package core

import (
	"ipcp/internal/ir"
	"ipcp/internal/pass"
)

// propagate is the four-stage interprocedural constant propagation
// (§4.1) over prog, recorded as one "propagate" row of rec's trace in
// the given round: return jump functions bottom-up, forward jump
// functions via value numbering, VAL-set propagation, CONSTANTS
// recording. The result's Prog is prog, in SSA form.
//
// m, when non-nil, is a matrix member's share: prog is the SSA program
// of its MOD setting, and the stage-1 product of its key is built by
// the first member that needs it, inside that member's row, while the
// others wait for it; the row reports the size of the lowering before
// SSA construction, as a standalone run's does. Otherwise prog is a
// pre-SSA program that the row converts in place, and reuse (nil
// outside incremental runs) supplies the pre-SSA callgraph and MOD
// summary and the seeds of unchanged procedures (reuse.go). The
// returned propagation holds the stage-1 product and the jump functions
// a seeded run extracts its summaries from.
func propagate(rec *pass.Recorder, round int, prog *ir.Program, cfg Config, m *member, reuse *Reuse) (*Result, *propagation, error) {
	row, err := rec.Begin("propagate", round, m.startSize(prog))
	if err != nil {
		return nil, nil, err
	}
	var s1 *stage1
	if m != nil {
		s1 = m.product.get(cfg.Workers)
	} else {
		s1 = buildStage1(prog, cfg, reuse)
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
