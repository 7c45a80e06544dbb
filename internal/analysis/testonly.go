package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// TestOnly reports the top-level declarations of the module's internal
// packages that no non-test code references: code kept only for tests,
// which belongs in a _test.go file of its package, or nowhere. References
// count from every non-test file of the module and of the modules nested in
// it (bench/ imports internal packages), except a declaration's references
// to itself and a method's references to its own receiver type. A method
// whose name some interface declares, the standard library's included,
// counts as referenced: a call through an interface names only the
// interface method, and matching by name errs toward silence. A deliberate
// harness that other packages' tests drive carries
// //uavlint:allow testonly -- <the tests it serves>.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "flag internal declarations that only tests (or nothing) reference",
	Run:  runTestOnly,
}

func runTestOnly(pass *Pass) error {
	path := pass.Pkg.Path()
	if !strings.HasPrefix(path, modulePath) || !strings.Contains(path+"/", "/internal/") {
		return nil
	}
	for _, f := range pass.Files {
		for _, unit := range declUnits(f) {
			for _, id := range unitNames(unit) {
				obj := pass.Info.Defs[id]
				if obj == nil {
					continue
				}
				key := declKey(obj)
				if key == "" || pass.Facts.refs[key] {
					continue
				}
				what := id.Name
				if fn, ok := obj.(*types.Func); ok && receiverNamed(fn) != nil {
					if pass.Facts.ifaceMethods[id.Name] {
						continue
					}
					what = receiverNamed(fn).Obj().Name() + "." + id.Name
				}
				pass.Reportf(id.Pos(), "%s is referenced only by tests, or not at all: delete it or move it into a _test.go file", what)
			}
		}
	}
	return nil
}

// declUnits splits a file's top-level declarations into the units whose
// self-references do not count: each function or method, and each spec of
// a type, var or const declaration.
func declUnits(f *ast.File) []ast.Node {
	var units []ast.Node
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				units = append(units, spec)
			}
			continue
		}
		units = append(units, decl)
	}
	return units
}

// unitNames returns the identifiers a declaration unit declares.
func unitNames(unit ast.Node) []*ast.Ident {
	switch u := unit.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{u.Name}
	case *ast.TypeSpec:
		return []*ast.Ident{u.Name}
	case *ast.ValueSpec:
		return u.Names
	}
	return nil
}

// declKey names a package-level object, or a method of a named type, by
// package path and name — the same key in the package that declares it
// (checked from source) and in one that imports it (read from export data).
// Anything else, including the blank identifier and init functions, has no
// key.
func declKey(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if fn.Type().(*types.Signature).Recv() != nil {
			if named := receiverNamed(fn); named != nil {
				return pkg.Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
		obj = fn
	}
	if pkg.Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return pkg.Path() + "." + obj.Name()
}

// receiverNamed returns the named type a method is declared on, or nil for
// functions and for methods of interface literals.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// collectRefs returns the declKey of every declaration the packages' files
// reference from outside the referencing unit itself.
func collectRefs(pkgs []*Package) map[string]bool {
	refs := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, unit := range declUnits(f) {
				self := map[string]bool{}
				for _, id := range unitNames(unit) {
					if obj := pkg.Info.Defs[id]; obj != nil {
						self[declKey(obj)] = true
						if fn, ok := obj.(*types.Func); ok && receiverNamed(fn) != nil {
							self[declKey(receiverNamed(fn).Obj())] = true
						}
					}
				}
				ast.Inspect(unit, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := pkg.Info.Uses[id]; obj != nil && !self[declKey(obj)] {
							refs[declKey(obj)] = true
						}
					}
					return true
				})
			}
		}
	}
	return refs
}

// interfaceMethods returns the method names of every interface the packages
// can see: error's, those of the named interfaces of each package and of
// everything it imports, and those of the interface types its files use.
func interfaceMethods(pkgs []*Package) map[string]bool {
	names := map[string]bool{"Error": true}
	add := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				names[iface.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return names
}
