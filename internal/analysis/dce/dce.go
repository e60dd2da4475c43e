// Package dce implements dead-code elimination for the paper's
// "complete propagation" experiment (Table 3, column 3): after an
// interprocedural propagation, branches controlled by interprocedural
// constants fold, their unreachable arms disappear, and useless
// computations are swept. The caller then re-runs the whole propagation
// from scratch (all lattice values reset to ⊤) on the cleaned program.
//
// The transformation takes a procedure in SSA form plus an SCCP result
// (seeded with the CONSTANTS sets) and produces a fresh pre-SSA
// procedure:
//
//  1. mark live instructions (side effects, escapes, and the transitive
//     closure over operands; conditions of folded branches stay dead);
//  2. clone the procedure without dead instructions (phis vanish — the
//     named variables carry the merges);
//  3. rewrite folded branches to jumps and prune unreachable blocks.
package dce

import (
	"ipcp/internal/analysis/sccp"
	"ipcp/internal/ir"
)

// RefOracle reports whether a callee may read a binding; it sharpens
// liveness at call sites (a global passed implicitly to a callee that
// never reads it does not keep the global's defining stores alive).
// modref.Summary implements it.
type RefOracle interface {
	RefFormal(callee *ir.Proc, idx int) bool
	RefGlobal(callee *ir.Proc, g *ir.GlobalVar) bool
}

// worstCaseRef keeps everything alive at call sites.
type worstCaseRef struct{}

func (worstCaseRef) RefFormal(*ir.Proc, int) bool           { return true }
func (worstCaseRef) RefGlobal(*ir.Proc, *ir.GlobalVar) bool { return true }

// Stats summarizes what one Transform removed.
type Stats struct {
	InstrsRemoved  int
	BlocksRemoved  int
	BranchesFolded int
	Changed        bool
}

// Options configures Transform. The zero value (nil) gives the paper's
// complete-propagation behavior: unreachable code and the condition
// chains of folded branches are removed, but reachable named assignments
// survive even when their values are unused — the substitution metric
// counts source references, and a statement-level dead-code eliminator
// does not delete live-path statements.
type Options struct {
	// Refs sharpens call-site liveness (may be nil: worst case).
	Refs RefOracle

	// SweepUseless additionally removes reachable assignments whose
	// values are never used (classic mark-sweep DCE over SSA).
	SweepUseless bool
}

// Transform returns a fresh pre-SSA copy of proc with dead code removed.
// res must come from sccp.Run on proc.
func Transform(proc *ir.Proc, res *sccp.Result, opts *Options) (*ir.Proc, Stats) {
	return Find(proc, res, opts).Remove()
}

// Dead is the dead code of one procedure in SSA form: what Transform
// removes, found without copying anything. A caller that rebuilds a
// program only when some procedure changes asks Changes first and
// calls Remove only then.
type Dead struct {
	proc *ir.Proc
	res  *sccp.Result
	live map[*ir.Instr]bool

	// folded maps each reachable conditional branch whose condition
	// folded to the index of the successor it takes.
	folded map[*ir.Instr]int

	// removed counts the non-phi, non-terminator instructions the copy
	// drops.
	removed int
}

// Find marks proc's dead code under res, which must come from sccp.Run
// on proc. It only reads proc.
func Find(proc *ir.Proc, res *sccp.Result, opts *Options) *Dead {
	if opts == nil {
		opts = &Options{}
	}
	refs := opts.Refs
	if refs == nil {
		refs = worstCaseRef{}
	}
	d := &Dead{
		proc:   proc,
		res:    res,
		live:   markLive(proc, res, refs, opts.SweepUseless),
		folded: make(map[*ir.Instr]int),
	}
	for _, b := range proc.Blocks {
		if !res.Reachable[b.ID] {
			continue
		}
		if t := b.Terminator(); t != nil && t.Op == ir.OpBr {
			if taken, ok := res.BranchDecision(t); ok {
				d.folded[t] = taken
			}
		}
	}
	for _, b := range proc.Blocks {
		for _, i := range b.Instrs {
			if i.Op == ir.OpPhi || i.Op.IsTerminator() {
				continue
			}
			if !d.keep(i) {
				d.removed++
			}
		}
	}
	return d
}

// keep reports whether the copy keeps instruction i.
func (d *Dead) keep(i *ir.Instr) bool {
	return d.live[i] && d.res.Reachable[i.Block.ID]
}

// Changes reports whether Remove would change the procedure, as its
// Stats.Changed says. When no instruction goes and no branch folds, the
// copy keeps the procedure's control-flow graph, so it changes only if
// that graph has a block the entry cannot reach (BuildSSA's order
// leaves it out) or a jump that MergeTrivialJumps collapses.
func (d *Dead) Changes() bool {
	if d.removed > 0 || len(d.folded) > 0 {
		return true
	}
	if len(d.proc.ReversePostorder()) != len(d.proc.Blocks) {
		return true
	}
	for _, b := range d.proc.Blocks {
		if t := b.Terminator(); t != nil && t.Op == ir.OpJmp {
			if c := b.Succs[0]; c != b && len(c.Preds) == 1 {
				return true
			}
		}
	}
	return false
}

// Remove returns a fresh pre-SSA copy of the procedure without its dead
// code, and what it removed.
func (d *Dead) Remove() (*ir.Proc, Stats) {
	stats := Stats{InstrsRemoved: d.removed}
	np := d.proc.CloneStripSSA(d.keep)

	// Rewrite folded branches on the clone (IDs survive cloning, so
	// match by block position: clone blocks parallel original blocks).
	for bi, b := range d.proc.Blocks {
		nb := np.Blocks[bi]
		t := b.Terminator()
		if t == nil {
			continue
		}
		taken, ok := d.folded[t]
		if !ok {
			continue
		}
		nt := nb.Terminator()
		if nt == nil || nt.Op != ir.OpBr {
			continue
		}
		stats.BranchesFolded++
		removeEdge(nb, 1-taken)
		nt.Op = ir.OpJmp
		nt.Args = nil
	}

	before := len(np.Blocks)
	np.RemoveUnreachable()
	np.MergeTrivialJumps()
	stats.BlocksRemoved = before - len(np.Blocks)
	stats.Changed = stats.InstrsRemoved > 0 || stats.BlocksRemoved > 0 || stats.BranchesFolded > 0
	return np, stats
}

// removeEdge removes block b's succIdx-th outgoing edge, dropping one
// matching pred slot on the target.
func removeEdge(b *ir.Block, succIdx int) {
	target := b.Succs[succIdx]
	b.Succs = append(b.Succs[:succIdx:succIdx], b.Succs[succIdx+1:]...)
	for pi, p := range target.Preds {
		if p == b {
			target.Preds = append(target.Preds[:pi:pi], target.Preds[pi+1:]...)
			return
		}
	}
}

// markLive computes the live-instruction set. When sweepUseless is
// false, every reachable named assignment is a root (statement-level
// liveness); otherwise only side-effecting instructions are.
func markLive(proc *ir.Proc, res *sccp.Result, refs RefOracle, sweepUseless bool) map[*ir.Instr]bool {
	live := make(map[*ir.Instr]bool)
	var work []*ir.Instr

	mark := func(i *ir.Instr) {
		if i == nil || live[i] {
			return
		}
		live[i] = true
		work = append(work, i)
	}
	markOperand := func(op ir.Operand) {
		if op.Val != nil && op.Val.Def != nil {
			mark(op.Val.Def)
		}
	}

	// Roots: side-effecting and control instructions in reachable blocks.
	for _, b := range proc.Blocks {
		if !res.Reachable[b.ID] {
			continue
		}
		for _, i := range b.Instrs {
			switch i.Op {
			case ir.OpCall, ir.OpAStore, ir.OpWrite, ir.OpRead,
				ir.OpRet, ir.OpStop, ir.OpJmp, ir.OpBr:
				mark(i)
			default:
				// Statement-level mode: a reachable assignment to a
				// named variable is a source statement and stays.
				if !sweepUseless && i.Op != ir.OpPhi && i.Var != nil && i.Var.Kind != ir.TempVar {
					mark(i)
				}
			}
		}
	}

	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		switch i.Op {
		case ir.OpBr:
			// A folded branch no longer reads its condition.
			if _, foldedBranch := res.BranchDecision(i); !foldedBranch {
				markOperand(i.Args[0])
			}
		case ir.OpCall:
			for a := range i.Args {
				if a >= i.NumActuals {
					// Implicit global use: live only if the callee may
					// actually read the global.
					g := globalOfCallArg(proc, i, a)
					if g != nil && !refs.RefGlobal(i.Callee, g) {
						continue
					}
				}
				markOperand(i.Args[a])
			}
		default:
			for a := range i.Args {
				markOperand(i.Args[a])
			}
		}
	}
	return live
}

// globalOfCallArg maps a call's implicit global-use argument index to
// its GlobalVar.
func globalOfCallArg(proc *ir.Proc, call *ir.Instr, a int) *ir.GlobalVar {
	gi := a - call.NumActuals
	if gi < 0 || gi >= len(proc.Prog.ScalarGlobals) {
		return nil
	}
	return proc.Prog.ScalarGlobals[gi]
}
