package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// EpochScratch enforces the epoch-stamped scratch-table protocol on structs
// marked
//
//	//uavlint:scratch epoch=<field> tables=<f1>[,<f2>...]
//
// (core.SubsetEvaluator, match.Matcher). The protocol, from DESIGN.md §9: a
// scratch table is never cleared between uses; instead the owner bumps an
// epoch counter, a slot is "set" by storing the current epoch, and "is it
// set?" is exactly "does it equal the current epoch?". That makes any other
// access a latent stale-read bug: comparing a slot against a literal, copying
// a slot's raw value, or storing anything but the epoch all read meaning into
// stamps left over from an arbitrary earlier evaluation.
//
// Concretely, an index expression on a marked table field is legal only as
//
//	x.table[i] == x.epoch     x.table[i] != x.epoch     x.table[i] = x.epoch
//
// with the same receiver on both sides. Everything else is flagged, as is a
// marker whose named fields do not exist on the struct.
var EpochScratch = &Analyzer{
	Name: "epochscratch",
	Doc:  "enforce that epoch-stamped scratch tables are only compared against or stamped with their epoch",
	Run:  runEpochScratch,
}

func runEpochScratch(pass *Pass) error {
	// epochOf maps each marked table field to its struct's epoch field.
	epochOf := map[*types.Var]*types.Var{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				for _, dir := range scratchDirectives(gd, ts) {
					collectScratchMarker(pass, ts, dir, epochOf)
				}
			}
		}
	}
	if len(epochOf) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		checkScratchAccesses(pass, f, epochOf)
	}
	return nil
}

// collectScratchMarker parses one directive body ("epoch=e tables=a,b") for
// the marked struct and records its field objects, reporting malformed
// markers at the type declaration.
func collectScratchMarker(pass *Pass, ts *ast.TypeSpec, dir string, epochOf map[*types.Var]*types.Var) {
	obj := pass.Info.Defs[ts.Name]
	if obj == nil {
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		pass.Reportf(ts.Pos(), "//uavlint:scratch marker on %s, which is not a struct type", ts.Name.Name)
		return
	}
	fieldByName := map[string]*types.Var{}
	for i := 0; i < st.NumFields(); i++ {
		fieldByName[st.Field(i).Name()] = st.Field(i)
	}
	var epochName string
	var tableNames []string
	for _, kv := range strings.Fields(dir) {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			pass.Reportf(ts.Pos(), "//uavlint:scratch on %s: malformed clause %q (want key=value)", ts.Name.Name, kv)
			return
		}
		switch key {
		case "epoch":
			epochName = val
		case "tables":
			tableNames = strings.Split(val, ",")
		default:
			pass.Reportf(ts.Pos(), "//uavlint:scratch on %s: unknown key %q (want epoch=, tables=)", ts.Name.Name, key)
			return
		}
	}
	if epochName == "" || len(tableNames) == 0 {
		pass.Reportf(ts.Pos(), "//uavlint:scratch on %s needs both epoch=<field> and tables=<f1,...>", ts.Name.Name)
		return
	}
	epochField, ok := fieldByName[epochName]
	if !ok {
		pass.Reportf(ts.Pos(), "//uavlint:scratch on %s: no field named %q", ts.Name.Name, epochName)
		return
	}
	for _, tn := range tableNames {
		tf, ok := fieldByName[tn]
		if !ok {
			pass.Reportf(ts.Pos(), "//uavlint:scratch on %s: no field named %q", ts.Name.Name, tn)
			continue
		}
		epochOf[tf] = epochField
	}
}

// checkScratchAccesses walks one file with a parent stack and validates
// every index expression over a marked table field.
func checkScratchAccesses(pass *Pass, f *ast.File, epochOf map[*types.Var]*types.Var) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		ie, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(ie.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pass.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		tableField, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		epochField, marked := epochOf[tableField]
		if !marked {
			return true
		}
		recv := types.ExprString(sel.X)
		if scratchAccessOK(pass, stack, ie, recv, epochField) {
			return true
		}
		pass.Reportf(ie.Pos(), "scratch table %s.%s is epoch-stamped and never cleared: access it only as a ==/!= comparison with %s.%s or by storing %s.%s into it — anything else reads stale stamps",
			recv, tableField.Name(), recv, epochField.Name(), recv, epochField.Name())
		return true
	})
}

// scratchAccessOK reports whether the table access ie (on receiver text
// recv) sits in one of the two sanctioned contexts.
func scratchAccessOK(pass *Pass, stack []ast.Node, ie *ast.IndexExpr, recv string, epochField *types.Var) bool {
	// Walk up past parentheses; stack[len(stack)-1] is ie itself.
	var parent ast.Node
	for i := len(stack) - 2; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		parent = stack[i]
		break
	}
	switch p := parent.(type) {
	case *ast.BinaryExpr:
		if p.Op != token.EQL && p.Op != token.NEQ {
			return false
		}
		other := p.X
		if ast.Unparen(other) == ie {
			other = p.Y
		}
		return isEpochRead(pass, other, recv, epochField)
	case *ast.AssignStmt:
		if p.Tok != token.ASSIGN || len(p.Lhs) != len(p.Rhs) {
			return false
		}
		for i, lhs := range p.Lhs {
			if ast.Unparen(lhs) == ie {
				return isEpochRead(pass, p.Rhs[i], recv, epochField)
			}
		}
		return false // table value read on the RHS of an assignment
	}
	return false
}

// isEpochRead reports whether e is a selector for the given epoch field on
// the same receiver expression.
func isEpochRead(pass *Pass, e ast.Expr, recv string, epochField *types.Var) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal || s.Obj() != epochField {
		return false
	}
	return types.ExprString(sel.X) == recv
}
