package ipcp

import (
	"context"

	"ipcp/internal/core"
)

// This file implements the configuration-matrix runner: the study
// analyzes every program under 16+ configurations (4 jump-function
// flavors × MOD × return jump functions, plus complete propagation and
// solver variants). AnalyzeMatrix executes them on a bounded worker
// pool, sharing one parsed and semantically analyzed program and one IR
// lowering across all configurations. Configurations that differ only
// in the jump-function flavor, the solver or the per-run knobs share
// more: one copy of the IR, one SSA conversion and one stage 1 per
// (MOD, return jump functions) pair, which their stages 2–4 only read.
// Complete propagation rewrites its program, so it gets a copy of its
// own. Results are positionally ordered and byte-identical to calling
// Analyze once per configuration — the determinism test suite asserts
// exactly that.

// AnalyzeMatrix analyzes the program under every configuration, in
// parallel, and returns the reports in configuration order. workers
// bounds the configuration-level pool (0 = one per CPU); the
// per-configuration pipelines additionally honor their own
// Config.Workers, so a matrix of sequential pipelines
// (Config.Workers == 1) on a wide pool is the usual sweet spot.
func (p *Program) AnalyzeMatrix(cfgs []Config, workers int) []*Report {
	icfgs := make([]core.Config, len(cfgs))
	for i, c := range cfgs {
		icfgs[i] = c.internal()
	}
	results := core.AnalyzeMatrix(p.sp, icfgs, workers)
	reps := make([]*Report, len(results))
	for i, res := range results {
		reps[i] = buildReport(cfgs[i], res)
	}
	return reps
}

// AnalyzeMatrixContext is AnalyzeMatrix under a context: every
// configuration's pipeline polls ctx, and if it is canceled or times
// out the whole matrix is abandoned with an error wrapping ErrCanceled.
func (p *Program) AnalyzeMatrixContext(ctx context.Context, cfgs []Config, workers int) ([]*Report, error) {
	hook := cancelHook(ctx)
	icfgs := make([]core.Config, len(cfgs))
	for i, c := range cfgs {
		icfgs[i] = c.internal()
		icfgs[i].Cancel = hook
	}
	results, err := core.AnalyzeMatrixErr(p.sp, icfgs, workers)
	if err != nil {
		return nil, err
	}
	reps := make([]*Report, len(results))
	for i, res := range results {
		reps[i] = buildReport(cfgs[i], res)
	}
	return reps, nil
}

// FullMatrix returns the study's full configuration matrix: every
// forward jump-function flavor crossed with the MOD and
// return-jump-function toggles — 16 configurations, the sweep behind
// the paper's Tables 2 and 3. Configurations come out in a fixed order:
// flavors cheapest-first, and for each flavor the four toggle
// combinations (neither, return JFs, MOD, both).
func FullMatrix() []Config {
	var cfgs []Config
	for _, j := range JumpFunctions {
		for _, mod := range []bool{false, true} {
			for _, ret := range []bool{false, true} {
				cfgs = append(cfgs, Config{Jump: j, MOD: mod, ReturnJumpFunctions: ret})
			}
		}
	}
	return cfgs
}
