package core

import (
	"ipcp/internal/ir"
	"ipcp/internal/pass"
)

// propagate is the four-stage interprocedural constant propagation
// (§4.1) over prog, a pre-SSA program, recorded as one "propagate" row
// of rec's trace in the given round: return jump functions bottom-up,
// forward jump functions via value numbering, VAL-set propagation,
// CONSTANTS recording. SSA construction rewrites prog in place, so the
// result's Prog is prog itself.
//
// s1, when non-nil, is the stage-1 product of a matrix group's leader:
// prog is its program, already in SSA form, so only stages 2–4 run,
// and the row reports the size the leader's row saw before the
// conversion, as a standalone run would. Otherwise reuse (nil outside
// incremental runs) supplies the pre-SSA callgraph and MOD summary and
// the seeds of unchanged procedures (reuse.go). The returned
// propagation holds the stage-1 product and the jump functions a
// seeded run extracts its summaries from.
func propagate(rec *pass.Recorder, round int, prog *ir.Program, cfg Config, s1 *stage1, reuse *Reuse) (*Result, *propagation, error) {
	pre := pass.SizeOf(prog)
	if s1 != nil {
		pre = s1.pre
	}
	row, err := rec.Begin("propagate", round, pre)
	if err != nil {
		return nil, nil, err
	}
	if s1 == nil {
		if reuse == nil {
			reuse = &Reuse{}
		}
		s1 = newStage1(prog, cfg, reuse.CG, reuse.Mods, reuse.Procs)
		s1.pre = pre
		s1.buildSSA(cfg.Workers)
		s1.stage1ReturnJFs(cfg.Workers)
	}
	if err := rec.Canceled(); err != nil {
		return nil, nil, err
	}
	p := newPropagation(s1, cfg)
	p.cancel = rec.Cancel
	p.stage2ForwardJFs()
	if err := p.stage3Solve(); err != nil {
		return nil, nil, err
	}
	res := p.stage4Record()
	if err := rec.End(row, prog, true); err != nil {
		return nil, nil, err
	}
	return res, p, nil
}

// Reanalyze propagates cfg over prog, a pre-SSA program, as one
// "propagate" row of rec's trace in the given round. A transform that
// rebuilds the program calls it to analyze the rebuilt one (procedure
// cloning does, after each round). The error is rec's: a cancellation,
// or under Debug an IR verification failure.
func Reanalyze(rec *pass.Recorder, round int, prog *ir.Program, cfg Config) (*Result, error) {
	res, _, err := propagate(rec, round, prog, cfg, nil, nil)
	return res, err
}
