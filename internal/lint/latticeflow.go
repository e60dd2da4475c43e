package lint

import (
	"go/ast"
	"go/types"
)

// latticePkg is the one package allowed to construct lattice.Value
// elements from raw parts.
const latticePkg = "ipcp/internal/core/lattice"

// LatticeFlow enforces the monotone-descent invariant of stage 3: a
// VAL cell — an element of a slice or map of lattice.Value — may only
// ever be initialized from the lattice package's constructors
// (Top/Bottom/Of/OfInt/OfBool), lowered through lattice.Meet, or
// copied from another cell. Any other write risks raising a cell
// mid-solve, which silently breaks the fixpoint the whole flavor
// study rests on (a solver that never terminates, or — worst — one
// that terminates on a wrong answer).
//
// Flagged:
//   - composite literals of lattice.Value outside the lattice package
//     (construction must go through the constructors so the kind/const
//     pairing stays coherent);
//   - an assignment storing into a lattice.Value element whose
//     right-hand side is not a lattice constructor, a lattice.Meet
//     call, a copy of another cell, or a local whose every definition
//     is one of those.
//
// Writes like `cells[i] = sym.Eval(jf, env)` — overwriting a cell
// with a freshly evaluated value instead of meeting into it — are
// exactly the bug shape this catches.
var LatticeFlow = &Analyzer{
	Name: "latticeflow",
	Doc: `flag lattice.Value cell writes that bypass Meet and the constructors

VAL cells must only descend: initialization via lattice.Top/Bottom/
Of/OfInt/OfBool, lowering via lattice.Meet, or copies of other cells.
A raw overwrite can raise a cell mid-solve and corrupt the fixpoint.`,
	Run: runLatticeFlow,
}

func runLatticeFlow(pass *Pass) error {
	if pkgPathMatches(pass.Pkg.Path(), latticePkg) {
		return nil // the lattice package owns its representation
	}
	for _, f := range pass.Files {
		withStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if t := pass.Info.TypeOf(n); t != nil && isLatticeValue(t) {
					pass.Reportf(n.Pos(),
						"lattice.Value constructed directly; use lattice.Top/Bottom/Of/OfInt/OfBool so the element stays coherent")
				}
			case *ast.AssignStmt:
				checkCellAssign(pass, n, stack)
			}
			return true
		})
	}
	return nil
}

// isLatticeValue reports whether t is lattice.Value.
func isLatticeValue(t types.Type) bool {
	return namedFrom(t, latticePkg, "Value")
}

// checkCellAssign flags stores into lattice.Value elements with an
// unapproved right-hand side.
func checkCellAssign(pass *Pass, assign *ast.AssignStmt, stack []ast.Node) {
	if len(assign.Lhs) != len(assign.Rhs) {
		return // comma-ok / multi-value calls never store raw cells
	}
	for i, lhs := range assign.Lhs {
		idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			continue
		}
		if t := pass.Info.TypeOf(idx); t == nil || !isLatticeValue(t) {
			continue
		}
		rhs := assign.Rhs[i]
		if descendingExpr(pass.Info, rhs) {
			continue
		}
		if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
			if body := enclosingFuncBody(stack); body != nil && descendingLocal(pass.Info, body, id) {
				continue
			}
		}
		pass.Reportf(assign.Pos(),
			"lattice.Value cell overwritten by a value that is not a lattice constructor, a Meet, or a cell copy — non-monotone update can raise the cell mid-solve")
	}
}

// descendingExpr reports whether e is an approved cell source: a
// lattice-package constructor/Meet call, the Top/Bottom elements, or
// a copy of another cell (index/selector of type lattice.Value).
func descendingExpr(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		fn := calleeFunc(info, e)
		return fn != nil && pkgMatches(fn.Pkg(), latticePkg)
	case *ast.SelectorExpr:
		// lattice.Top / lattice.Bottom, or a cell read through a field
		// chain (cells.Formals[i] is an IndexExpr; plain field reads of
		// type Value are cell copies too).
		if obj, ok := info.Uses[e.Sel]; ok && pkgMatches(obj.Pkg(), latticePkg) {
			return true
		}
		t := info.TypeOf(e)
		return t != nil && isLatticeValue(t)
	case *ast.IndexExpr:
		t := info.TypeOf(e)
		if t != nil && isLatticeValue(t) {
			return true // copy of another cell
		}
		// In comma-ok position (`sv, ok := seed[val]`) the index
		// expression's recorded type is the (Value, bool) tuple; look
		// at the container's element type instead.
		if base := info.TypeOf(e.X); base != nil {
			switch bt := base.Underlying().(type) {
			case *types.Map:
				return isLatticeValue(bt.Elem())
			case *types.Slice:
				return isLatticeValue(bt.Elem())
			case *types.Array:
				return isLatticeValue(bt.Elem())
			}
		}
	}
	return false
}

// descendingLocal reports whether every assignment to the local id in
// the enclosing function body has an approved right-hand side — the
// `nv := lattice.Meet(old, v); cells[i] = nv` idiom of both stage-3
// solvers.
func descendingLocal(info *types.Info, body *ast.BlockStmt, id *ast.Ident) bool {
	obj := info.Uses[id]
	if obj == nil {
		return false
	}
	approved, all := 0, 0
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range assign.Lhs {
			lid, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || (info.Defs[lid] != obj && info.Uses[lid] != obj) {
				continue
			}
			all++
			var rhs ast.Expr
			switch {
			case len(assign.Rhs) == len(assign.Lhs):
				rhs = assign.Rhs[i]
			case len(assign.Rhs) == 1:
				// Comma-ok destructuring: `sv, ok := seed[val]`.
				rhs = assign.Rhs[0]
			}
			if rhs != nil && descendingExpr(info, rhs) {
				approved++
			}
		}
		return true
	})
	return all > 0 && approved == all
}
