// Package valnum implements SSA-based global value numbering producing
// symbolic expressions: for every SSA value of a procedure it computes a
// sym.Expr over the procedure's entry values (formals and globals),
// integer constants, and opaque unknowns.
//
// This is the substrate the paper builds jump functions on (§3): the
// expression computed for an actual parameter at a call site *is* the
// polynomial jump function; restricting its shape yields the
// pass-through, intraprocedural-constant, and literal variants.
//
// Value numbering is pessimistic: blocks are visited in reverse
// postorder and a phi whose back-edge operand has not been computed yet
// becomes an unknown keyed by its own SSA id. Congruent computations
// (same operator over congruent operands) receive equal expressions:
// each run builds its expressions in a sym.Table of its own, which
// makes them one node, so runs over different procedures share nothing
// and need no lock.
//
// Return jump functions of callees feed in through the ReturnEval hook:
// when the hook can show a call-modified binding (or function result)
// has a known constant value at this site, the CallDef's expression is
// that constant instead of an unknown — the mechanism behind the ocean
// initialization-routine result in the paper's Table 2.
package valnum

import (
	"ipcp/internal/ir"
	"ipcp/internal/sym"
)

// ReturnEval supplies return-jump-function evaluation during value
// numbering. argExpr gives the symbolic expression of the call's i-th
// argument (actuals first, then the implicit global uses in
// Program.ScalarGlobals order); t is the caller's table, which any
// expression the implementation builds goes into. Implementations
// return nil when the binding's post-call value is unknown.
type ReturnEval interface {
	CallDefExpr(t *sym.Table, call *ir.Instr, def *ir.Value, argExpr func(int) sym.Expr) sym.Expr
}

// Result maps every SSA value of one procedure to its symbolic
// expression.
type Result struct {
	Proc  *ir.Proc
	exprs []sym.Expr // indexed by Value.ID
}

// ExprOf returns the expression of an SSA value (nil for untracked
// values, which callers treat as unknown).
func (r *Result) ExprOf(v *ir.Value) sym.Expr {
	if v == nil || v.ID >= len(r.exprs) {
		return nil
	}
	return r.exprs[v.ID]
}

// OperandExpr returns the expression of an instruction operand: integer
// constants map to sym.Const, variable uses to their SSA value's
// expression, and everything else (reals, logicals, arrays) to nil.
func (r *Result) OperandExpr(op ir.Operand) sym.Expr {
	if op.Const != nil {
		if op.Const.Type == ir.Int {
			return sym.NewConst(op.Const.Int)
		}
		return nil
	}
	return r.ExprOf(op.Val)
}

// run seeds the entry values and visits every reachable instruction in
// reverse postorder.
func (a *analyzer) run() {
	p := a.proc
	// Entry values first.
	for _, val := range p.EntryValues {
		if val == nil {
			continue
		}
		v := val.Var
		switch {
		case val.Kind == ir.EntryDef && v.Kind == ir.FormalVar:
			a.exprs[val.ID] = &sym.Formal{Index: v.Index, Name: v.Name}
		case val.Kind == ir.EntryDef && v.Kind == ir.GlobalRefVar:
			a.exprs[val.ID] = &sym.GlobalEntry{G: v.Global}
		default:
			a.exprs[val.ID] = &sym.Unknown{ID: val.ID}
		}
	}

	for _, b := range p.ReversePostorder() {
		for _, i := range b.Instrs {
			a.visit(i)
		}
	}
}

// Analyze value-numbers a procedure in SSA form. re may be nil (every
// call-modified binding becomes unknown). It only reads the procedure,
// visiting the blocks in the order BuildSSA computed, so products with
// different re can value-number one SSA program concurrently.
func Analyze(p *ir.Proc, re ReturnEval) *Result {
	a := &analyzer{
		proc:  p,
		re:    re,
		exprs: make([]sym.Expr, p.NumValues()),
	}
	a.run()
	return &Result{Proc: p, exprs: a.exprs}
}

type analyzer struct {
	proc  *ir.Proc
	re    ReturnEval
	exprs []sym.Expr // indexed by Value.ID
	t     sym.Table  // this run's operator nodes
}

// unknown returns the opaque expression for an SSA value.
func (a *analyzer) unknown(v *ir.Value) sym.Expr { return &sym.Unknown{ID: v.ID} }

// operandExpr mirrors Result.OperandExpr during analysis.
func (a *analyzer) operandExpr(op ir.Operand) sym.Expr {
	if op.Const != nil {
		if op.Const.Type == ir.Int {
			return sym.NewConst(op.Const.Int)
		}
		return nil
	}
	if op.Val == nil {
		return nil
	}
	return a.exprs[op.Val.ID]
}

func (a *analyzer) visit(i *ir.Instr) {
	switch i.Op {
	case ir.OpPhi:
		a.visitPhi(i)
		return
	case ir.OpCall:
		a.visitCall(i)
		return
	}
	if i.Dst == nil {
		return
	}
	// Only integer scalar results carry symbolic values; the paper
	// propagates integer constants only.
	if i.Var == nil || i.Var.Type != ir.Int {
		a.exprs[i.Dst.ID] = a.unknown(i.Dst)
		return
	}
	switch i.Op {
	case ir.OpCopy:
		if e := a.operandExpr(i.Args[0]); e != nil {
			a.exprs[i.Dst.ID] = e
			return
		}
	case ir.OpNeg, ir.OpAbs, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv,
		ir.OpPow, ir.OpMod, ir.OpMin, ir.OpMax:
		var buf [4]sym.Expr
		args := buf[:0]
		for _, op := range i.Args {
			if e := a.operandExpr(op); e != nil {
				args = append(args, e)
			}
		}
		if len(args) == len(i.Args) {
			if e := a.t.MakeOp(i.Op, args...); e != nil {
				a.exprs[i.Dst.ID] = e
				return
			}
		}
	}
	// ALoad, Read, conversions, failed folds: opaque.
	a.exprs[i.Dst.ID] = a.unknown(i.Dst)
}

func (a *analyzer) visitPhi(i *ir.Instr) {
	var common sym.Expr
	for k := range i.Args {
		e := a.operandExpr(i.Args[k])
		if e == nil {
			// Back-edge operand not computed yet (pessimistic), or an
			// untracked value.
			common = nil
			break
		}
		if common == nil {
			common = e
			continue
		}
		if !sym.Equal(common, e) {
			common = nil
			break
		}
	}
	if common != nil {
		a.exprs[i.Dst.ID] = common
		return
	}
	a.exprs[i.Dst.ID] = a.unknown(i.Dst)
}

func (a *analyzer) visitCall(i *ir.Instr) {
	argExpr := func(k int) sym.Expr {
		if k < 0 || k >= len(i.Args) {
			return nil
		}
		return a.operandExpr(i.Args[k])
	}
	if i.Dst != nil { // function result
		var e sym.Expr
		if a.re != nil {
			e = a.re.CallDefExpr(&a.t, i, i.Dst, argExpr)
		}
		if e == nil {
			e = a.unknown(i.Dst)
		}
		a.exprs[i.Dst.ID] = e
	}
	for _, def := range i.CallDefs {
		if def == nil {
			continue
		}
		var e sym.Expr
		if a.re != nil {
			e = a.re.CallDefExpr(&a.t, i, def, argExpr)
		}
		if e == nil {
			e = a.unknown(def)
		}
		a.exprs[def.ID] = e
	}
}
