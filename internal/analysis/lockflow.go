package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the shared walker behind the cross-function fact layer and the
// lockguard analyzer: a syntactic held-set interpretation of one function
// body. It threads "which (receiver, mutex) pairs are currently held" through
// the statement list in source order — branches inherit the set on entry and
// their changes do not escape (a lock taken only inside an `if` is genuinely
// conditional at the join) — and records three kinds of evidence:
//
//   - misses: reads/writes of a //uavlint:guard-annotated field at a point
//     where its guard is not held
//   - locks: every guard key the body locks anywhere (Lock or RLock)
//   - calls: resolvable calls with the key-level held set at the call site,
//     which is what lets facts flow across function boundaries
//
// Function literals run on their own schedule (goroutines, stored closures),
// so their bodies are walked with an empty held set and their evidence is
// tagged inLit; deferred literals run at return while the function's locks
// may still be held, so they inherit a copy of the current set instead.

// guardSpec is the package-merged //uavlint:guard annotation table.
type guardSpec struct {
	// guardOf maps a guarded field key ("pkg.Type.field") to the guard key
	// of the mutex field protecting it.
	guardOf map[string]string
	// kind maps a guard key to "mutex" or "rwmutex" (the self-deadlock rule
	// only applies to plain mutexes: RLock is shared-reentrant).
	kind map[string]string
}

// guardMiss is one guarded-field access outside a held region.
type guardMiss struct {
	pos   token.Pos
	recv  string // receiver expression text, e.g. "j"
	guard string // guard key, e.g. ".../server.Job.mu"
	field string // guarded field key, for the message
	inLit bool   // inside a function literal
}

// callSite is one resolvable call with the held set at that point.
type callSite struct {
	pos    token.Pos
	callee string          // types.Func FullName
	held   map[string]bool // guard keys held (key level, any receiver)
	inLit  bool
}

// lockFlow is everything one walk of a function body learns.
type lockFlow struct {
	misses []guardMiss
	locks  map[string]bool // guard keys this body locks outside literals
	calls  []callSite
	// doubleLocks are Lock() calls on a plain mutex already held — an
	// unconditional self-deadlock.
	doubleLocks []token.Pos

	// Facts for the other analyzers, gathered in the same walk:
	spawns     int  // `go` statements
	ctxDone    bool // body receives from a ctx.Done() or calls ctx.Err()
	atomicFile bool // body calls into internal/atomicfile
	// waits lists WaitGroup field keys this body calls .Wait() on.
	waits []string
}

// flowWalker carries the immutable walk context.
type flowWalker struct {
	info   *types.Info
	guards *guardSpec
	out    *lockFlow
}

// analyzeLockFlow walks one function body. guards may cover fields declared
// in any loaded package; keys are textual, so cross-package identities agree.
func analyzeLockFlow(info *types.Info, guards *guardSpec, body *ast.BlockStmt) *lockFlow {
	w := &flowWalker{info: info, guards: guards, out: &lockFlow{locks: map[string]bool{}}}
	w.stmts(body.List, map[string]bool{}, false)
	return w.out
}

// heldKey is the exact held-set entry for a (receiver, guard) pair.
func heldKey(recv, guard string) string { return recv + "\x00" + guard }

// keysOf flattens a held set to guard keys (dropping receivers) for the
// key-level cross-function checks.
func keysOf(held map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range held {
		if i := strings.IndexByte(k, 0); i >= 0 {
			out[k[i+1:]] = true
		}
	}
	return out
}

// stmts threads held through a statement list in order.
func (w *flowWalker) stmts(list []ast.Stmt, held map[string]bool, inLit bool) {
	for _, s := range list {
		w.stmt(s, held, inLit)
	}
}

// copyHeld snapshots the held set for a branch.
func copyHeld(held map[string]bool) map[string]bool {
	cp := make(map[string]bool, len(held))
	for k, v := range held {
		cp[k] = v
	}
	return cp
}

func (w *flowWalker) stmt(s ast.Stmt, held map[string]bool, inLit bool) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(s.List, held, inLit)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held, inLit)
	case *ast.ExprStmt:
		w.expr(s.X, held, inLit)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held, inLit)
		}
		for _, e := range s.Lhs {
			w.expr(e, held, inLit)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held, inLit)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held, inLit)
		}
	case *ast.IncDecStmt:
		w.expr(s.X, held, inLit)
	case *ast.SendStmt:
		w.expr(s.Chan, held, inLit)
		w.expr(s.Value, held, inLit)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the guard held to the end of the function:
		// do not remove it. A deferred literal runs at return, so it inherits
		// the current set rather than starting empty.
		if _, _, op := w.lockOp(s.Call); op == opUnlock {
			return
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, copyHeld(held), inLit)
			for _, a := range s.Call.Args {
				w.expr(a, held, inLit)
			}
			return
		}
		w.expr(s.Call, held, inLit)
	case *ast.GoStmt:
		w.out.spawns++
		// The goroutine runs concurrently: locks held here are NOT held there.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.stmts(lit.Body.List, map[string]bool{}, true)
		} else {
			w.expr(s.Call.Fun, held, inLit)
		}
		for _, a := range s.Call.Args {
			w.expr(a, held, inLit)
		}
	case *ast.IfStmt:
		w.stmt(s.Init, held, inLit)
		w.expr(s.Cond, held, inLit)
		w.stmts(s.Body.List, copyHeld(held), inLit)
		w.stmt(s.Else, held, inLit)
	case *ast.ForStmt:
		w.stmt(s.Init, held, inLit)
		if s.Cond != nil {
			w.expr(s.Cond, held, inLit)
		}
		body := copyHeld(held)
		w.stmts(s.Body.List, body, inLit)
		w.stmt(s.Post, body, inLit)
	case *ast.RangeStmt:
		w.expr(s.X, held, inLit)
		w.stmts(s.Body.List, copyHeld(held), inLit)
	case *ast.SwitchStmt:
		w.stmt(s.Init, held, inLit)
		if s.Tag != nil {
			w.expr(s.Tag, held, inLit)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				branch := copyHeld(held)
				for _, e := range cc.List {
					w.expr(e, branch, inLit)
				}
				w.stmts(cc.Body, branch, inLit)
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, held, inLit)
		w.stmt(s.Assign, held, inLit)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeld(held), inLit)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				branch := copyHeld(held)
				w.stmt(cc.Comm, branch, inLit)
				w.stmts(cc.Body, branch, inLit)
			}
		}
	}
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opRLock
	opUnlock
)

// lockOp recognizes x.mu.Lock()/Unlock()/RLock()/RUnlock() where mu is a
// sync.Mutex or sync.RWMutex struct field, returning the receiver expression
// text, the guard key, and the operation.
func (w *flowWalker) lockOp(call *ast.CallExpr) (recv, guard string, op lockOpKind) {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", opNone
	}
	switch fun.Sel.Name {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return "", "", opNone
	}
	msel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr)
	if !ok {
		return "", "", opNone
	}
	s, ok := w.info.Selections[msel]
	if !ok || s.Kind() != types.FieldVal {
		return "", "", opNone
	}
	switch types.TypeString(s.Obj().Type(), nil) {
	case "sync.Mutex", "sync.RWMutex":
	default:
		return "", "", opNone
	}
	key := fieldKeyOfSelection(s, msel.Sel.Name)
	if key == "" {
		return "", "", opNone
	}
	return types.ExprString(msel.X), key, op
}

// fieldKeyOfSelection builds the "pkg.Type.field" key of a field selection
// from the selection's receiver type, so source-checked and export-loaded
// views of the same struct agree on the key.
func fieldKeyOfSelection(s *types.Selection, field string) string {
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + field
}

// expr walks one expression with the current held set.
func (w *flowWalker) expr(e ast.Expr, held map[string]bool, inLit bool) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		if recv, guard, op := w.lockOp(e); op != opNone {
			hk := heldKey(recv, guard)
			switch op {
			case opLock:
				if held[hk] && w.guards.kind[guard] == "mutex" {
					w.out.doubleLocks = append(w.out.doubleLocks, e.Pos())
				}
				held[hk] = true
				if !inLit {
					w.out.locks[guard] = true
				}
			case opRLock:
				held[hk] = true
				if !inLit {
					w.out.locks[guard] = true
				}
			case opUnlock:
				delete(held, hk)
			}
			return
		}
		w.recordCall(e, held, inLit)
		w.expr(e.Fun, held, inLit)
		for _, a := range e.Args {
			w.expr(a, held, inLit)
		}
	case *ast.FuncLit:
		// A stored closure runs later, on an unknown goroutine, with no lock
		// inherited from here.
		w.stmts(e.Body.List, map[string]bool{}, true)
	case *ast.SelectorExpr:
		w.checkGuardedAccess(e, held, inLit)
		w.expr(e.X, held, inLit)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW && isCtxDoneCall(w.info, e.X) {
			w.out.ctxDone = true
		}
		w.expr(e.X, held, inLit)
	case *ast.ParenExpr:
		w.expr(e.X, held, inLit)
	case *ast.StarExpr:
		w.expr(e.X, held, inLit)
	case *ast.BinaryExpr:
		w.expr(e.X, held, inLit)
		w.expr(e.Y, held, inLit)
	case *ast.IndexExpr:
		w.expr(e.X, held, inLit)
		w.expr(e.Index, held, inLit)
	case *ast.IndexListExpr:
		w.expr(e.X, held, inLit)
		for _, i := range e.Indices {
			w.expr(i, held, inLit)
		}
	case *ast.SliceExpr:
		w.expr(e.X, held, inLit)
		w.expr(e.Low, held, inLit)
		w.expr(e.High, held, inLit)
		w.expr(e.Max, held, inLit)
	case *ast.TypeAssertExpr:
		w.expr(e.X, held, inLit)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el, held, inLit)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Value, held, inLit)
	}
}

// recordCall resolves a call's target and records the call-site facts:
// the callee, the key-level held set, a Wait() on a WaitGroup field, a
// ctx.Done()/ctx.Err() observation, and calls into internal/atomicfile.
func (w *flowWalker) recordCall(call *ast.CallExpr, held map[string]bool, inLit bool) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Wait":
			if msel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
				if s, ok := w.info.Selections[msel]; ok && s.Kind() == types.FieldVal &&
					types.TypeString(s.Obj().Type(), nil) == "sync.WaitGroup" {
					if key := fieldKeyOfSelection(s, msel.Sel.Name); key != "" {
						w.out.waits = append(w.out.waits, key)
					}
				}
			}
		case "Done", "Err":
			if isContextExpr(w.info, sel.X) {
				w.out.ctxDone = true
			}
		}
	}
	fn := calleeFunc(w.info, call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == modulePath+"/internal/atomicfile" {
		w.out.atomicFile = true
	}
	w.out.calls = append(w.out.calls, callSite{
		pos:    call.Pos(),
		callee: fn.FullName(),
		held:   keysOf(held),
		inLit:  inLit,
	})
}

// isContextExpr reports whether e's static type is context.Context.
func isContextExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return false
	}
	return types.TypeString(tv.Type, nil) == "context.Context"
}

// calleeFunc resolves a call to its *types.Func (package function or method),
// or nil for builtins, conversions, and func-valued expressions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// checkGuardedAccess records a miss when sel reads or writes a guarded field
// while its guard is not held on the same receiver expression.
func (w *flowWalker) checkGuardedAccess(sel *ast.SelectorExpr, held map[string]bool, inLit bool) {
	s, ok := w.info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	fieldKey := fieldKeyOfSelection(s, sel.Sel.Name)
	if fieldKey == "" {
		return
	}
	guard, ok := w.guards.guardOf[fieldKey]
	if !ok {
		return
	}
	recv := types.ExprString(sel.X)
	if held[heldKey(recv, guard)] {
		return
	}
	w.out.misses = append(w.out.misses, guardMiss{
		pos: sel.Pos(), recv: recv, guard: guard, field: fieldKey, inLit: inLit,
	})
}
