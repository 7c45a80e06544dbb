// Package analysis is the repo's static-analysis suite: a small, dependency-free
// framework in the shape of golang.org/x/tools/go/analysis plus the ten
// repo-specific analyzers behind cmd/uavlint.
//
// The codebase rests on invariants that ordinary vet passes do not know about:
// byte-identical deployments across resume and worker counts,
// epoch-stamped scratch reuse, end-to-end context.Context threading, and
// float arithmetic that never silently truncates (the netsim.StableCapacity
// off-by-one). The analyzers here reject the corresponding defect classes at
// push time instead of relying on the seed corpus to catch them:
//
//   - detorder:     ordered output must not depend on map iteration order or
//     the global math/rand source (DESIGN.md §11.1)
//   - floatcast:    no truncating int(float) conversions or ==/!= on floats
//     in the numeric packages (§11.2)
//   - ctxthread:    no context.Background()/TODO() inside library code (§11.3)
//   - epochscratch: epoch-stamped scratch tables are only read against, or
//     stamped with, their epoch (§11.4)
//   - timenow:      no wall-clock reads outside sanctioned progress/metrics
//     sites (§11.5)
//
// On top of the per-package walkers sits a two-phase pipeline (DESIGN.md
// §16): ComputeFacts records per-function facts — mutexes acquired/required,
// goroutines spawned, ctx.Done observed, atomicfile used — keyed by function
// FullName so they survive the source/export-data identity split, and four
// concurrency/durability analyzers consume them:
//
//   - lockguard:   //uavlint:guard-annotated fields only touched under
//     their mutex, checked across call chains via facts (§16.2)
//   - golife:      every library goroutine joined or ctx-bounded (§16.3)
//   - atomicwrite: raw os.WriteFile/Create/Rename only inside
//     internal/atomicfile (§16.4)
//   - errdrop:     no silently discarded error results (§16.5)
//
// Phase one also records which declarations non-test code references, and
// the method names of the interfaces in sight, for a tenth analyzer:
//
//   - testonly:    no internal declaration that only tests use (§16.6)
//
// The framework deliberately mirrors the x/tools API (Analyzer, Pass,
// Diagnostic, a testdata-driven fixture runner in the analysistest
// subpackage) so the suite can migrate onto multichecker unchanged once the
// module takes on the x/tools dependency; until then everything here is
// standard library only.
//
// Suppression: a diagnostic is dropped when a comment of the form
//
//	//uavlint:allow <analyzer>[,<analyzer>...] [-- reason]
//
// appears on the flagged line, on the line directly above it, or in the doc
// comment of the enclosing function (which sanctions the whole function
// body). Sanctioned sites should carry a reason after " -- ".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static check. It is the stdlib-only counterpart
// of x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //uavlint:allow comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer rejects
	// and which invariant that defends.
	Doc string
	// Run applies the analyzer to one type-checked package, reporting
	// findings through pass.Report.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer run with a single type-checked package and a
// sink for its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Facts is the phase-one cross-function fact set covering every
	// package of the run (not just this pass's package).
	Facts  *FactSet
	Report func(Diagnostic)
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		DetOrder, FloatCast, CtxThread, EpochScratch, TimeNow,
		LockGuard, GoLife, AtomicWrite, ErrDrop, TestOnly,
	}
}

// ByName returns the named analyzers, or an error naming the first unknown.
func ByName(names []string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunPackage applies the analyzers to one loaded package and returns the
// surviving diagnostics (suppressed ones filtered out) sorted by position.
// Facts are computed from this package alone — the right scope for the
// analysistest fixtures; cross-package runs go through RunPackages.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts, err := ComputeFacts([]*Package{pkg})
	if err != nil {
		return nil, err
	}
	return runWithFacts(pkg, analyzers, facts)
}

// RunPackages is the module-level entry point: phase one computes the fact
// set across every package, phase two runs the analyzers per package against
// that shared set. users (see LoadUsers) join phase one only: their
// references count, and no analyzer runs on them. Diagnostics come back
// sorted globally, so output is byte-stable regardless of the order pkgs
// arrived in.
func RunPackages(pkgs, users []*Package, analyzers []*Analyzer) ([]Diagnostic, *FactSet, error) {
	facts, err := ComputeFacts(append(append([]*Package(nil), pkgs...), users...))
	if err != nil {
		return nil, nil, err
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		diags, err := runWithFacts(pkg, analyzers, facts)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, diags...)
	}
	sortDiagnostics(out)
	return out, facts, nil
}

func runWithFacts(pkg *Package, analyzers []*Analyzer, facts *FactSet) ([]Diagnostic, error) {
	sup := newSuppressions(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Facts:    facts,
		}
		pass.Report = func(d Diagnostic) {
			if !sup.allows(a.Name, d.Pos) {
				out = append(out, d)
			}
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	sortDiagnostics(out)
	return out, nil
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// packageFunc resolves a call to a package-level function (not a method) and
// returns its defining package path and name, or ok=false. Resolution goes
// through the type checker's Uses map, so import aliases are handled.
func packageFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return "", "", false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// isFloat reports whether t's underlying type is a floating-point basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isInteger reports whether t's underlying type is an integer basic type.
func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
