// Package sccp implements Wegman–Zadeck sparse conditional constant
// propagation over a procedure in SSA form.
//
// Three clients use it:
//
//   - the Table 3 "intraprocedural propagation" baseline (no seeding:
//     every entry value is ⊥, call effects per the MOD-based SSA);
//   - dead-code elimination for the paper's "complete propagation"
//     (seeded with the CONSTANTS(p) sets, so branches controlled by
//     interprocedural constants fold and their arms become unreachable);
//   - sanity checks in tests.
//
// Integer and logical constants are tracked; REAL values are ⊥
// throughout (the paper propagates integer constants only, and logical
// constants exist so branches can be decided).
package sccp

import (
	"ipcp/internal/core/lattice"
	"ipcp/internal/ir"
	"ipcp/internal/sym"
)

// CallDefEval lets a caller supply return-jump-function knowledge for
// values redefined by calls (including function results). argVal yields
// the lattice value of the call's i-th argument. Return lattice.Bottom
// when nothing is known.
type CallDefEval func(call *ir.Instr, def *ir.Value, argVal func(int) lattice.Value) lattice.Value

// Result is the analysis outcome for one procedure. Its state is held
// in slices indexed by the procedure's dense Value and Block IDs.
type Result struct {
	Proc *ir.Proc

	// vals holds every SSA value's lattice element, by Value.ID. Values
	// in unreachable code keep ⊤.
	vals []lattice.Value

	// Reachable marks, by Block.ID, the blocks executable from the entry
	// under constant-branch pruning.
	Reachable []bool
}

// ValueOf returns the lattice element of an SSA value: ⊥ for nil and for
// a value never lowered from ⊤ (one in unreachable code).
func (r *Result) ValueOf(v *ir.Value) lattice.Value {
	if v == nil || v.ID >= len(r.vals) || r.vals[v.ID].IsTop() {
		return lattice.Bottom
	}
	return r.vals[v.ID]
}

// OperandValue returns the lattice element of an instruction operand.
func (r *Result) OperandValue(op ir.Operand) lattice.Value {
	if op.Const != nil {
		return lattice.Of(op.Const)
	}
	if op.Val != nil {
		return r.ValueOf(op.Val)
	}
	return lattice.Bottom
}

// BranchDecision reports, for a conditional branch instruction, whether
// its condition folded to a constant, and if so which successor index is
// taken (0 = true arm, 1 = false arm).
func (r *Result) BranchDecision(br *ir.Instr) (taken int, folded bool) {
	if br.Op != ir.OpBr {
		return 0, false
	}
	v := r.valOperand(br.Args[0])
	if c := v.Const(); c != nil && c.Type == ir.Bool {
		if c.Bool {
			return 0, true
		}
		return 1, true
	}
	return 0, false
}

func (r *Result) valOperand(op ir.Operand) lattice.Value { return r.OperandValue(op) }

// Run analyzes proc. seed optionally pins the lattice value of entry
// values (the CONSTANTS(p) sets during complete propagation); entry
// values without a seed start at ⊥. cde may be nil.
func Run(proc *ir.Proc, seed map[*ir.Value]lattice.Value, cde CallDefEval) *Result {
	res := &Result{
		Proc:      proc,
		vals:      make([]lattice.Value, proc.NumValues()),
		Reachable: make([]bool, len(proc.Blocks)),
	}
	s := &solver{
		res:      res,
		cde:      cde,
		edgeBase: make([]int, len(proc.Blocks)),
		visited:  make([]bool, len(proc.Blocks)),
	}
	nedges := 0
	for _, b := range proc.Blocks {
		s.edgeBase[b.ID] = nedges
		nedges += len(b.Preds)
	}
	s.edgeExec = make([]bool, nedges)
	// Initialize non-instruction definitions: entry and undef values
	// are ⊥ unless seeded. (CallDefs are computed when their call runs.)
	for _, val := range proc.EntryValues {
		if val == nil {
			continue
		}
		if sv, ok := seed[val]; ok {
			res.vals[val.ID] = sv
		} else {
			res.vals[val.ID] = lattice.Bottom
		}
	}
	s.flowWork = append(s.flowWork, flowItem{to: proc.Entry, predIdx: -1})
	s.run()
	return res
}

type flowItem struct {
	to      *ir.Block
	predIdx int // index of the incoming edge in to.Preds; -1 for entry
}

type solver struct {
	res      *Result
	cde      CallDefEval
	flowWork []flowItem
	ssaWork  []*ir.Instr

	// edgeExec marks executable CFG edges: the edge into block b through
	// its k-th predecessor slot is edgeExec[edgeBase[b.ID]+k].
	edgeExec []bool
	edgeBase []int
	visited  []bool // by Block.ID
}

func (s *solver) run() {
	for len(s.flowWork) > 0 || len(s.ssaWork) > 0 {
		switch {
		case len(s.flowWork) > 0:
			item := s.flowWork[len(s.flowWork)-1]
			s.flowWork = s.flowWork[:len(s.flowWork)-1]
			s.flowEdge(item)
		case len(s.ssaWork) > 0:
			i := s.ssaWork[len(s.ssaWork)-1]
			s.ssaWork = s.ssaWork[:len(s.ssaWork)-1]
			if s.res.Reachable[i.Block.ID] {
				s.visitInstr(i)
			}
		}
	}
}

func (s *solver) flowEdge(item flowItem) {
	b := item.to
	if item.predIdx >= 0 {
		e := s.edgeBase[b.ID] + item.predIdx
		if s.edgeExec[e] {
			return
		}
		s.edgeExec[e] = true
	}
	s.res.Reachable[b.ID] = true
	if s.visited[b.ID] {
		// Re-evaluate only the phis: a new incoming edge adds operands.
		for _, i := range b.Instrs {
			if i.Op != ir.OpPhi {
				break
			}
			s.visitInstr(i)
		}
		return
	}
	s.visited[b.ID] = true
	for _, i := range b.Instrs {
		s.visitInstr(i)
	}
}

// lower updates a value's lattice element and wakes its uses. Lattice
// discipline: the new value must be ≤ the old one (monotone descent).
func (s *solver) lower(v *ir.Value, nv lattice.Value) {
	old := s.res.vals[v.ID]
	nv = lattice.Meet(old, nv)
	if nv.Equal(old) {
		return
	}
	s.res.vals[v.ID] = nv
	s.ssaWork = append(s.ssaWork, v.Uses...)
}

func (s *solver) operand(op ir.Operand) lattice.Value {
	if op.Const != nil {
		return lattice.Of(op.Const)
	}
	if op.Val == nil {
		return lattice.Bottom // arrays and untracked uses
	}
	return s.res.vals[op.Val.ID]
}

func (s *solver) visitInstr(i *ir.Instr) {
	switch i.Op {
	case ir.OpPhi:
		s.visitPhi(i)
	case ir.OpBr:
		s.visitBranch(i)
	case ir.OpJmp:
		s.addFlowEdges(i.Block, 0)
	case ir.OpRet, ir.OpStop, ir.OpWrite, ir.OpAStore:
		// No definitions, no outgoing edges (Ret/Stop) or fallthrough
		// handled by the terminator itself.
	case ir.OpCall:
		s.visitCall(i)
	case ir.OpRead, ir.OpALoad, ir.OpI2R, ir.OpR2I:
		if i.Dst != nil {
			s.lower(i.Dst, lattice.Bottom)
		}
	case ir.OpCopy:
		if i.Dst != nil {
			s.lower(i.Dst, s.typedResult(i, s.operand(i.Args[0])))
		}
	default:
		if i.Dst != nil {
			s.lower(i.Dst, s.evalOp(i))
		}
	}
}

// typedResult forces ⊥ for destinations the analysis does not track
// (REAL variables).
func (s *solver) typedResult(i *ir.Instr, v lattice.Value) lattice.Value {
	if i.Var != nil && i.Var.Type == ir.Real {
		return lattice.Bottom
	}
	return v
}

func (s *solver) visitPhi(i *ir.Instr) {
	acc := lattice.Top
	base := s.edgeBase[i.Block.ID]
	for k := range i.Args {
		if !s.edgeExec[base+k] {
			continue
		}
		acc = lattice.Meet(acc, s.operand(i.Args[k]))
	}
	s.lower(i.Dst, acc)
}

func (s *solver) visitBranch(i *ir.Instr) {
	v := s.operand(i.Args[0])
	switch {
	case v.IsTop():
		// Not enough information yet.
	case v.IsConst() && v.Const().Type == ir.Bool:
		if v.Const().Bool {
			s.addFlowEdges(i.Block, 0)
		} else {
			s.addFlowEdges(i.Block, 1)
		}
	default:
		s.addFlowEdges(i.Block, 0)
		s.addFlowEdges(i.Block, 1)
	}
}

// addFlowEdges enqueues the CFG edge from b through its succIdx-th
// successor.
func (s *solver) addFlowEdges(b *ir.Block, succIdx int) {
	if succIdx >= len(b.Succs) {
		return
	}
	to := b.Succs[succIdx]
	// Find which pred slot(s) of `to` correspond to this edge. With
	// duplicate edges (both branch arms to one block), succIdx 0 maps to
	// the first matching slot and succIdx 1 to the second.
	seen := 0
	want := 0
	if len(b.Succs) == 2 && b.Succs[0] == b.Succs[1] {
		want = succIdx
	}
	for pi, p := range to.Preds {
		if p != b {
			continue
		}
		if seen == want {
			s.flowWork = append(s.flowWork, flowItem{to: to, predIdx: pi})
			return
		}
		seen++
	}
	// Defensive: edge bookkeeping mismatch; mark the block reachable.
	s.flowWork = append(s.flowWork, flowItem{to: to, predIdx: -1})
}

func (s *solver) visitCall(i *ir.Instr) {
	argVal := func(k int) lattice.Value {
		if k < 0 || k >= len(i.Args) {
			return lattice.Bottom
		}
		return s.operand(i.Args[k])
	}
	eval := func(def *ir.Value) lattice.Value {
		if s.cde == nil {
			return lattice.Bottom
		}
		return s.cde(i, def, argVal)
	}
	if i.Dst != nil {
		s.lower(i.Dst, eval(i.Dst))
	}
	for _, def := range i.CallDefs {
		if def != nil {
			s.lower(def, eval(def))
		}
	}
}

// evalOp folds an arithmetic, comparison, or logical operation.
func (s *solver) evalOp(i *ir.Instr) lattice.Value {
	// Logical short-circuit precision: a constant false absorbs AND, a
	// constant true absorbs OR, regardless of the other operand.
	if i.Op == ir.OpAnd || i.Op == ir.OpOr {
		return s.evalLogical(i)
	}

	vals := make([]lattice.Value, 0, len(i.Args))
	for k := range i.Args {
		vals = append(vals, s.operand(i.Args[k]))
		if vals[k].IsBottom() {
			return lattice.Bottom
		}
	}
	for k := range vals {
		if vals[k].IsTop() {
			return lattice.Top
		}
	}

	switch i.Op {
	case ir.OpNot:
		c := vals[0].Const()
		if c.Type != ir.Bool {
			return lattice.Bottom
		}
		return lattice.OfBool(!c.Bool)
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		return s.compare(i.Op, vals[0], vals[1])
	}

	// Integer arithmetic; REAL operands (or destinations) are ⊥.
	ints := make([]int64, len(vals))
	for k := range vals {
		c, ok := vals[k].IntConst()
		if !ok {
			return lattice.Bottom
		}
		ints[k] = c
	}
	if i.Var != nil && i.Var.Type != ir.Int {
		return lattice.Bottom
	}
	r, ok := sym.FoldInt(i.Op, ints)
	if !ok {
		return lattice.Bottom
	}
	return lattice.OfInt(r)
}

func (s *solver) evalLogical(i *ir.Instr) lattice.Value {
	a := s.operand(i.Args[0])
	b := s.operand(i.Args[1])
	boolOf := func(v lattice.Value) (bool, bool) {
		if c := v.Const(); c != nil && c.Type == ir.Bool {
			return c.Bool, true
		}
		return false, false
	}
	av, aok := boolOf(a)
	bv, bok := boolOf(b)
	if i.Op == ir.OpAnd {
		if (aok && !av) || (bok && !bv) {
			return lattice.OfBool(false)
		}
		if aok && bok {
			return lattice.OfBool(av && bv)
		}
	} else {
		if (aok && av) || (bok && bv) {
			return lattice.OfBool(true)
		}
		if aok && bok {
			return lattice.OfBool(av || bv)
		}
	}
	if a.IsTop() || b.IsTop() {
		return lattice.Top
	}
	return lattice.Bottom
}

// compare folds a relational operation over integer constants.
func (s *solver) compare(op ir.Op, a, b lattice.Value) lattice.Value {
	x, okx := a.IntConst()
	y, oky := b.IntConst()
	if !okx || !oky {
		return lattice.Bottom // REAL comparisons are not folded
	}
	var r bool
	switch op {
	case ir.OpEq:
		r = x == y
	case ir.OpNe:
		r = x != y
	case ir.OpLt:
		r = x < y
	case ir.OpLe:
		r = x <= y
	case ir.OpGt:
		r = x > y
	case ir.OpGe:
		r = x >= y
	}
	return lattice.OfBool(r)
}
