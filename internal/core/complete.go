package core

import (
	"errors"
	"fmt"

	"ipcp/internal/analysis/dce"
	"ipcp/internal/analysis/sccp"
	"ipcp/internal/core/lattice"
	"ipcp/internal/ir"
	"ipcp/internal/pass"
)

// maxDCERounds bounds complete propagation's loop. Tests lower it.
var maxDCERounds = 10

// ErrNoFixpoint reports a complete propagation whose dead-code round
// still removed code at the round bound: every round must shrink a
// finite program, so a round that claims a change forever is a bug, and
// the bound keeps it from hanging the analysis.
var ErrNoFixpoint = errors.New("fixpoint not reached")

// dceFault, when non-nil, is applied to the program each dead-code
// round leaves. It exists only so the tests can seed IR corruption and
// prove that a Debug run fails naming the step that caused it.
var dceFault func(prog *ir.Program)

// analyze runs cfg over prog, tracing every step: one propagation, or
// in complete mode the paper's loop (Table 3, column 3). Each round
// propagates, then removes the code the constants prove dead; a round
// that removed code resets every VAL cell to ⊤ by propagating the
// rebuilt program from scratch in the next round, and the round that
// removes nothing ends the loop without a further propagation. The
// trace reads propagate and dce per round and closes with a "complete"
// row that summarizes the loop.
//
// m and reuse feed the first propagation only (see propagate): later
// rounds run over programs of their own, which no matrix member shares
// and no stored summary describes. Dead-code elimination only reads the
// program it cleans, so a matrix member's first round may share its
// key's product. analyze returns the result and, when reuse is non-nil,
// the summaries of the first propagation. Its error is a cancellation,
// ErrNoFixpoint, or under Debug an IR verification failure naming the
// step.
func analyze(prog *ir.Program, cfg Config, m *member, reuse *Reuse) (*Result, *Summaries, error) {
	rec := &pass.Recorder{Debug: cfg.Debug, Cancel: cfg.Cancel}
	if !cfg.Complete {
		res, p, err := propagate(rec, 0, prog, cfg, m, reuse)
		if err != nil {
			return nil, nil, err
		}
		var sums *Summaries
		if reuse != nil {
			sums = p.extractSummaries()
		}
		res.Stats.Passes = rec.Stats()
		return res, sums, nil
	}
	loop, err := rec.Begin("complete", 0, m.startSize(prog))
	if err != nil {
		return nil, nil, err
	}
	loop.Fixpoint = true
	var sums *Summaries
	for round := 1; round <= maxDCERounds; round++ {
		res, p, err := propagate(rec, round, prog, cfg, m, reuse)
		if err != nil {
			return nil, nil, err
		}
		if reuse != nil {
			sums = p.extractSummaries()
		}
		m, reuse = nil, nil
		row, err := rec.Begin("dce", round, pass.SizeOf(res.Prog))
		if err != nil {
			return nil, nil, err
		}
		np, changed := eliminateDeadCode(res)
		if dceFault != nil {
			dceFault(np)
		}
		if err := rec.End(row, np, changed); err != nil {
			return nil, nil, err
		}
		if !changed {
			res.DCERounds = round - 1
			loop.Rounds = res.DCERounds
			if err := rec.End(loop, np, res.DCERounds > 0); err != nil {
				return nil, nil, err
			}
			res.Stats.Passes = rec.Stats()
			return res, sums, nil
		}
		prog = np
	}
	return nil, nil, fmt.Errorf("complete propagation: dce still removes code after %d rounds: %w", maxDCERounds, ErrNoFixpoint)
}

// PipelineDescription renders, as one line, the schedule of steps a
// configuration runs (cmd/ipcp -passes).
func PipelineDescription(cfg Config) string {
	if !cfg.Complete {
		return "propagate"
	}
	return fmt.Sprintf("fixpoint complete[<=%d rounds]{dce-round(propagate if stale -> dce)}", maxDCERounds)
}

// eliminateDeadCode performs one round of the paper's complete
// propagation (Table 3, column 3): seed each procedure's SCCP with its
// CONSTANTS(p) set, find the code the constants prove dead, and, when
// some procedure loses code, return a fresh pre-SSA program without it.
// changed reports whether any procedure lost code; the caller then
// re-propagates from scratch (all values reset to ⊤). It only reads
// res.Prog, and when nothing is removed it copies nothing and returns
// res.Prog itself.
func eliminateDeadCode(res *Result) (*ir.Program, bool) {
	prog := res.Prog
	dead := make([]*dce.Dead, len(prog.Procs))
	changed := false
	for k, proc := range prog.Procs {
		dead[k] = dce.Find(proc, sccp.Run(proc, constantsSeed(proc, res.Procs[proc.Name]), nil), nil)
		changed = changed || dead[k].Changes()
	}
	if !changed {
		return prog, false
	}
	procs := make([]*ir.Proc, len(dead))
	for k, d := range dead {
		procs[k], _ = d.Remove()
	}
	return ir.Assemble(prog, procs), true
}

// constantsSeed pins the entry value of every member of CONSTANTS(p)
// for proc's SCCP.
func constantsSeed(proc *ir.Proc, pr *ProcResult) map[*ir.Value]lattice.Value {
	seed := make(map[*ir.Value]lattice.Value)
	for i, f := range proc.Formals {
		if c, ok := pr.FormalVals[i].IntConst(); ok {
			if ev := proc.EntryValues[f.ID]; ev != nil {
				seed[ev] = lattice.OfInt(c)
			}
		}
	}
	for k, gvar := range proc.GlobalVars {
		if c, ok := pr.GlobalVals[k].IntConst(); ok {
			if ev := proc.EntryValues[gvar.ID]; ev != nil {
				seed[ev] = lattice.OfInt(c)
			}
		}
	}
	return seed
}
