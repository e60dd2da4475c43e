// Package inline implements procedure integration (inlining) at the IR
// level, preserving FORTRAN by-reference semantics by variable
// substitution.
//
// The paper's §5 discusses Wegman & Zadeck's proposal to find
// interprocedural constants by combining procedure integration with
// intraprocedural constant propagation: making call paths explicit can
// find *more* constants than the jump-function framework (which merges
// all paths into one CONSTANTS set), but "data is not yet available to
// indicate whether or not the proposed algorithm would perform
// efficiently in practice". This package supplies the mechanism; the
// integration-baseline experiment (cmd/tables -integration and the
// tests in this package) supplies the data.
//
// Correctness is validated differentially: an inlined program must
// produce bit-identical output to the original under the interpreter.
package inline

import (
	"fmt"

	"ipcp/internal/analysis/callgraph"
	"ipcp/internal/ir"
)

// Options bounds the transformation.
type Options struct {
	// MaxCalleeSize caps the instruction count of an inlinable callee
	// (default 2000).
	MaxCalleeSize int

	// MaxCallerSize stops growing a caller past this many instructions
	// (default 50000).
	MaxCallerSize int

	// MaxPasses bounds the inline-until-fixpoint iteration (default 10).
	MaxPasses int
}

func (o *Options) fill() {
	if o.MaxCalleeSize == 0 {
		o.MaxCalleeSize = 2000
	}
	if o.MaxCallerSize == 0 {
		o.MaxCallerSize = 50000
	}
	if o.MaxPasses == 0 {
		o.MaxPasses = 10
	}
}

// Stats reports what Program did.
type Stats struct {
	Inlined int // call sites expanded
	Passes  int // passes until fixpoint
	Dropped int // procedures that became unreachable and were removed
}

// Program returns a fresh program with every inlinable call expanded:
// non-recursive callees within the size budgets. Procedures that become
// unreachable from the main program are dropped.
func Program(prog *ir.Program, opts *Options) (*ir.Program, Stats) {
	if opts == nil {
		opts = &Options{}
	}
	opts.fill()

	// Work on a private pre-SSA copy.
	np := ir.CloneProgram(prog)
	var stats Stats

	for pass := 0; pass < opts.MaxPasses; pass++ {
		cg := callgraph.Build(np)
		recursive := make(map[*ir.Proc]bool)
		for _, n := range cg.TopDown() {
			if cg.InCycle(n) {
				recursive[n.Proc] = true
			}
		}
		changed := false
		for _, proc := range np.Procs {
			if expandCalls(proc, recursive, opts, &stats) {
				changed = true
			}
		}
		stats.Passes = pass + 1
		if !changed {
			break
		}
	}

	// Drop procedures that are no longer reachable from main.
	cg := callgraph.Build(np)
	reach := cg.ReachableFromMain()
	var kept []*ir.Proc
	for _, proc := range np.Procs {
		if reach[proc] || proc.Kind == ir.MainProc {
			kept = append(kept, proc)
		} else {
			stats.Dropped++
			delete(np.ProcByName, proc.Name)
		}
	}
	np.Procs = kept
	return np, stats
}

func procSize(p *ir.Proc) int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// expandCalls inlines every eligible call in proc (one level; the
// pass loop reaches transitive depth). It reports whether anything
// changed.
func expandCalls(proc *ir.Proc, recursive map[*ir.Proc]bool, opts *Options, stats *Stats) bool {
	changed := false
	for bi := 0; bi < len(proc.Blocks); bi++ {
		b := proc.Blocks[bi]
		for k := 0; k < len(b.Instrs); k++ {
			call := b.Instrs[k]
			if call.Op != ir.OpCall {
				continue
			}
			callee := call.Callee
			if callee == proc || recursive[callee] {
				continue
			}
			if procSize(callee) > opts.MaxCalleeSize || procSize(proc) > opts.MaxCallerSize {
				continue
			}
			splice(proc, b, k, call)
			stats.Inlined++
			changed = true
			// The block was split at the call; continue scanning from
			// the next block (the clone and continuation follow).
			break
		}
	}
	return changed
}

// splice expands one call: the containing block is split, the callee's
// body is cloned in with variables substituted, and the callee's
// returns become jumps to the continuation.
func splice(caller *ir.Proc, b *ir.Block, k int, call *ir.Instr) {
	callee := call.Callee

	// Continuation block: everything after the call.
	cont := caller.NewBlock()
	cont.Instrs = append(cont.Instrs, b.Instrs[k+1:]...)
	for _, i := range cont.Instrs {
		i.Block = cont
	}
	cont.Succs = b.Succs
	for _, s := range cont.Succs {
		for pi, pr := range s.Preds {
			if pr == b {
				s.Preds[pi] = cont
			}
		}
	}
	b.Instrs = b.Instrs[:k]
	b.Succs = nil

	// Variable substitution.
	varMap := make(map[*ir.Var]*ir.Var, len(callee.Vars))
	fresh := func(v *ir.Var) *ir.Var {
		nv := caller.NewVar(fmt.Sprintf("%s.%s", callee.Name, v.Name), v.Kind, v.Type)
		if nv.Kind == ir.FormalVar || nv.Kind == ir.ResultVar {
			nv.Kind = ir.LocalVar // an inlined formal is just a local now
		}
		nv.Size = v.Size
		nv.Dims = v.Dims
		return nv
	}
	// Formals bind to the actuals.
	for i, f := range callee.Formals {
		var actual ir.Operand
		if i < call.NumActuals {
			actual = call.Args[i]
		}
		switch {
		case actual.Var != nil && f.Type.IsArray() == actual.Var.Type.IsArray():
			// Bare variable (scalar or array): true by-reference
			// aliasing — substitute the actual for the formal.
			varMap[f] = actual.Var
		default:
			// Constant or expression value: bind a fresh local,
			// initialized before entry (writes to it are unobservable,
			// exactly as writes through a temporary reference are).
			nv := fresh(f)
			varMap[f] = nv
			init := &ir.Instr{Op: ir.OpCopy, Var: nv, Args: []ir.Operand{actual}, Pos: call.Pos}
			b.Append(init)
		}
	}
	// The function result writes the call's destination temp directly.
	if callee.Result != nil {
		if call.Var != nil {
			varMap[callee.Result] = call.Var
		} else {
			varMap[callee.Result] = fresh(callee.Result)
		}
	}
	// Global views map positionally.
	for gi, gv := range callee.GlobalVars {
		varMap[gv] = caller.GlobalVars[gi]
	}
	mapVar := func(v *ir.Var) *ir.Var {
		if v == nil {
			return nil
		}
		if nv, ok := varMap[v]; ok {
			return nv
		}
		nv := fresh(v)
		varMap[v] = nv
		return nv
	}

	// Clone the body.
	blockMap := make(map[*ir.Block]*ir.Block, len(callee.Blocks))
	for _, cb := range callee.Blocks {
		blockMap[cb] = caller.NewBlock()
	}
	for _, cb := range callee.Blocks {
		nb := blockMap[cb]
		for _, s := range cb.Succs {
			ir.AddEdge(nb, blockMap[s])
		}
		for _, i := range cb.Instrs {
			if i.Op == ir.OpRet {
				nb.Append(&ir.Instr{Op: ir.OpJmp, Pos: i.Pos})
				ir.AddEdge(nb, cont)
				continue
			}
			ni := &ir.Instr{
				Op:         i.Op,
				Pos:        i.Pos,
				Role:       i.Role,
				Var:        mapVar(i.Var),
				Callee:     i.Callee,
				NumActuals: i.NumActuals,
			}
			ni.Args = make([]ir.Operand, len(i.Args))
			for a := range i.Args {
				op := i.Args[a]
				op.Var = mapVar(op.Var)
				ni.Args[a] = op
			}
			nb.Append(ni)
		}
	}

	// Enter the inlined body.
	b.Append(&ir.Instr{Op: ir.OpJmp, Pos: call.Pos})
	ir.AddEdge(b, blockMap[callee.Entry])
	caller.RemoveUnreachable()
}
