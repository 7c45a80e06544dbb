package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file is phase one of the two-phase pipeline: before any analyzer runs,
// ComputeFacts walks every loaded package once and records per-function facts
// in the shape of x/tools' analysis facts — except keyed by types.Func
// FullName strings rather than object identity, because the same function is
// a different *types.Func in the package that declares it (source-checked)
// and in a package that imports it (rebuilt from gc export data).
//
// Phase-two analyzers consult the FactSet through Pass.Facts: lockguard for
// Acquires/Requires across call boundaries, golife for CtxDone on named
// goroutine targets and for WaitGroup fields waited on in some other method,
// atomicwrite/errdrop only for scoping. Facts are position-free, so the set
// encodes to a canonical byte-stable dump regardless of package load order.

// FuncFact is what phase one learned about a single function body.
type FuncFact struct {
	// Acquires holds guard keys ("pkg.Type.field") this function locks
	// (Lock or RLock) somewhere outside function literals.
	Acquires map[string]bool
	// Requires holds guard keys the function touches guarded state under
	// without ever locking them itself: its callers must hold these. Seeded
	// from unsuppressed guarded-field misses, then propagated up through
	// call sites to a fixpoint.
	Requires map[string]bool
	// Spawns counts `go` statements in the body.
	Spawns int
	// CtxDone reports that the body observes a context.Context's
	// cancellation (receives from Done() or calls Err()).
	CtxDone bool
	// AtomicFile reports that the body calls into internal/atomicfile.
	AtomicFile bool
}

// FactSet is the module-wide phase-one output shared by every phase-two pass.
type FactSet struct {
	// guards is the merged //uavlint:guard annotation table of every
	// loaded package.
	guards *guardSpec
	// funcs maps a function's FullName to its facts.
	funcs map[string]*FuncFact
	// waited holds WaitGroup field keys ("pkg.Type.field") that some
	// function in the module calls .Wait() on: a goroutine doing
	// `defer x.f.Done()` on such a field counts as joined.
	waited map[string]bool
	// refs holds the declKey of every declaration some loaded file
	// references from outside the declaration itself, and ifaceMethods the
	// method names of every interface the loaded packages can see
	// (testonly).
	refs         map[string]bool
	ifaceMethods map[string]bool
}

// fact returns the named function's facts, or an empty fact for functions
// phase one never saw (dependencies loaded from export data, builtins).
func (fs *FactSet) fact(fullName string) *FuncFact {
	if f, ok := fs.funcs[fullName]; ok {
		return f
	}
	return &FuncFact{}
}

// Waited reports whether some function in the module waits on the WaitGroup
// field with the given "pkg.Type.field" key.
func (fs *FactSet) Waited(fieldKey string) bool { return fs.waited[fieldKey] }

// ComputeFacts runs phase one over the loaded packages. The result is
// independent of the order of pkgs: packages are visited sorted by import
// path and every map is keyed by strings, so the same sources always produce
// an Encode-identical FactSet.
func ComputeFacts(pkgs []*Package) (*FactSet, error) {
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })

	fs := &FactSet{
		guards:       &guardSpec{guardOf: map[string]string{}, kind: map[string]string{}},
		funcs:        map[string]*FuncFact{},
		waited:       map[string]bool{},
		refs:         collectRefs(sorted),
		ifaceMethods: interfaceMethods(sorted),
	}
	for _, pkg := range sorted {
		spec, _ := collectGuards(pkg) // malformed markers are lockguard's to report
		for k, v := range spec.guardOf {
			fs.guards.guardOf[k] = v
		}
		for k, v := range spec.kind {
			fs.guards.kind[k] = v
		}
	}

	// calls records, per function, the sites facts may propagate through.
	calls := map[string][]callSite{}
	for _, pkg := range sorted {
		sup := newSuppressions(pkg.Fset, pkg.Files)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				full := fn.FullName()
				flow := analyzeLockFlow(pkg.Info, fs.guards, fd.Body)
				fact := &FuncFact{
					Acquires:   flow.locks,
					Requires:   map[string]bool{},
					Spawns:     flow.spawns,
					CtxDone:    flow.ctxDone,
					AtomicFile: flow.atomicFile,
				}
				for _, m := range flow.misses {
					if m.inLit || flow.locks[m.guard] {
						continue // lockguard reports these directly in phase two
					}
					if sup.allows(LockGuard.Name, pkg.Fset.Position(m.pos)) {
						continue // a sanctioned miss must not poison callers
					}
					fact.Requires[m.guard] = true
				}
				fs.funcs[full] = fact
				for _, c := range flow.calls {
					if c.inLit || sup.allows(LockGuard.Name, pkg.Fset.Position(c.pos)) {
						continue
					}
					calls[full] = append(calls[full], c)
				}
				for _, wkey := range flow.waits {
					fs.waited[wkey] = true
				}
			}
		}
	}

	// Propagate Requires to a fixpoint: a caller that reaches a
	// requires-G callee without holding G and without ever locking G
	// itself inherits the requirement.
	names := make([]string, 0, len(fs.funcs))
	for n := range fs.funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for changed := true; changed; {
		changed = false
		for _, caller := range names {
			f := fs.funcs[caller]
			for _, c := range calls[caller] {
				callee, ok := fs.funcs[c.callee]
				if !ok {
					continue
				}
				for g := range callee.Requires {
					if c.held[g] || f.Acquires[g] || f.Requires[g] {
						continue
					}
					f.Requires[g] = true
					changed = true
				}
			}
		}
	}
	return fs, nil
}

// Encode renders the fact set as a canonical sorted text dump — one line per
// fact, byte-identical for byte-identical sources regardless of how the
// packages were ordered at load time. cmd/uavlint -facts prints this, and
// the determinism tests compare it.
func (fs *FactSet) Encode() []byte {
	var b strings.Builder
	for _, k := range sortedKeys(fs.guards.guardOf) {
		fmt.Fprintf(&b, "guard %s -> %s (%s)\n", k, fs.guards.guardOf[k], fs.guards.kind[fs.guards.guardOf[k]])
	}
	for _, name := range sortedKeys(fs.funcs) {
		f := fs.funcs[name]
		attrs := make([]string, 0, 5)
		if len(f.Acquires) > 0 {
			attrs = append(attrs, "acquires="+strings.Join(sortedKeys(f.Acquires), ","))
		}
		if len(f.Requires) > 0 {
			attrs = append(attrs, "requires="+strings.Join(sortedKeys(f.Requires), ","))
		}
		if f.Spawns > 0 {
			attrs = append(attrs, fmt.Sprintf("spawns=%d", f.Spawns))
		}
		if f.CtxDone {
			attrs = append(attrs, "ctxdone")
		}
		if f.AtomicFile {
			attrs = append(attrs, "atomicfile")
		}
		if len(attrs) == 0 {
			continue
		}
		fmt.Fprintf(&b, "func %s %s\n", name, strings.Join(attrs, " "))
	}
	for _, k := range sortedKeys(fs.waited) {
		fmt.Fprintf(&b, "waited %s\n", k)
	}
	return []byte(b.String())
}

// sortedKeys returns the keys of a string-keyed map in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
