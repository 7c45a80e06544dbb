package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// ListedPackage is the subset of `go list -json` output the loader needs.
type ListedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// GoList runs `go list -export -deps -json` in dir for the given patterns
// and returns the decoded package stream. -export makes the toolchain
// compile (or fetch from the build cache) every listed package, so each
// entry carries the path of its gc export data — the loader type-checks
// against that instead of re-checking dependency sources.
func GoList(dir string, patterns []string) ([]*ListedPackage, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Export,DepOnly,Incomplete,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*ListedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p ListedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// ExportImporter returns a types.Importer that resolves every import from
// the gc export data recorded in exports (import path -> export file). The
// importer shares fset so positions stay consistent with parsed sources.
func ExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// TypeCheck parses the named files into fset and type-checks them as the
// package at importPath using imp for imports. Comments are retained (the
// suppression and scratch directives live there).
func TypeCheck(fset *token.FileSet, importPath string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", fn, err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if firstErr != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, firstErr)
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// LoadPackages loads, parses, and type-checks the packages matching patterns
// (relative to dir), excluding test files: the analyzers' invariants target
// library code, and tests are exempt by convention. Dependencies — including
// in-module ones — are consumed as gc export data, so each target package is
// type-checked exactly once from source.
func LoadPackages(dir string, patterns []string) ([]*Package, error) {
	listed, err := GoList(dir, patterns)
	if err != nil {
		return nil, err
	}
	return typeCheckListed(listed, nil)
}

// LoadUsers loads, like LoadPackages, the packages that count as users of
// the ones loaded for patterns without being analyzed: the rest of the
// module containing dir, and every module nested in it — a directory with
// its own go.mod, outside testdata, vendor and the names the go command
// ignores (a leading "." or "_"). The benchmark module is one; it imports
// the outer module's internal packages. When dir is the module root and
// patterns include "./...", the targets' own listing already is the whole
// module, so only the nested modules are listed.
func LoadUsers(dir string, patterns []string, loaded []*Package) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for !hasGoMod(root) {
		if filepath.Dir(root) == root {
			return nil, fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		root = filepath.Dir(root)
	}
	var modules []string
	if root != abs || !slices.Contains(patterns, "./...") {
		modules = append(modules, root)
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if name := d.Name(); name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if hasGoMod(path) {
			modules = append(modules, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: finding nested modules: %w", err)
	}
	skip := make(map[string]bool, len(loaded))
	for _, p := range loaded {
		skip[p.ImportPath] = true
	}
	var out []*Package
	for _, m := range modules {
		listed, err := GoList(m, []string{"./..."})
		if err != nil {
			return nil, err
		}
		pkgs, err := typeCheckListed(listed, skip)
		if err != nil {
			return nil, err
		}
		out = append(out, pkgs...)
	}
	return out, nil
}

func hasGoMod(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

// typeCheckListed type-checks from source every package go list matched
// (not its dependencies), except those whose import path is in skip.
func typeCheckListed(listed []*ListedPackage, skip map[string]bool) ([]*Package, error) {
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := ExportImporter(fset, exports)
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Name == "" || skip[p.ImportPath] {
			continue
		}
		if p.Error != nil || p.Incomplete {
			msg := "package did not compile"
			if p.Error != nil {
				msg = p.Error.Err
			}
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, msg)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		filenames := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			filenames[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := TypeCheck(fset, p.ImportPath, filenames, imp)
		if err != nil {
			return nil, err
		}
		pkg.Dir = p.Dir
		out = append(out, pkg)
	}
	return out, nil
}
