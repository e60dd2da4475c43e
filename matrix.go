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
// lowering across all configurations. SSA construction reads only the
// MOD setting, so the lowering is converted once per MOD setting (the
// second setting takes a copy), and the configurations with one
// setting read that SSA program. Over it, configurations that differ
// only in the jump-function flavor, the solver or the per-run knobs
// share one stage 1 (value numbering and return jump functions) per
// (MOD, return jump functions) pair, which their stages 2–4 only read.
// Complete propagation's first round joins the stage 1 of its pair,
// since dead-code elimination only reads the program it cleans; the
// programs it rewrites are its own. AnalyzeMatrixWithBaseline adds the
// Table 3 intraprocedural baseline over the same lowering. Results are
// positionally ordered and byte-identical to calling Analyze once per
// configuration (and AnalyzeIntraprocedural for the baseline) — the
// determinism test suite asserts exactly that.

// AnalyzeMatrix analyzes the program under every configuration, in
// parallel, and returns the reports in configuration order. workers
// bounds the configuration-level pool (0 = one per CPU); the
// per-configuration pipelines additionally honor their own
// Config.Workers, so a matrix of sequential pipelines
// (Config.Workers == 1) on a wide pool is the usual sweet spot.
func (p *Program) AnalyzeMatrix(cfgs []Config, workers int) []*Report {
	return buildReports(cfgs, core.AnalyzeMatrix(p.sp, internalConfigs(cfgs), workers))
}

// AnalyzeMatrixWithBaseline is AnalyzeMatrix plus the result of
// AnalyzeIntraprocedural, computed over the same lowering: the
// baseline's local propagation only reads the program in SSA form under
// MOD information, so it counts over the SSA program the configurations
// with MOD share instead of lowering and converting the program again.
// The paper's Table 3 (internal/report) reads its columns this way.
func (p *Program) AnalyzeMatrixWithBaseline(cfgs []Config, workers int) ([]*Report, *IntraproceduralReport) {
	results, intra := core.AnalyzeMatrixWithBaseline(p.sp, internalConfigs(cfgs), workers)
	return buildReports(cfgs, results), intraReport(intra)
}

// AnalyzeMatrixContext is AnalyzeMatrix under a context: every
// configuration's pipeline polls ctx, and if it is canceled or times
// out the whole matrix is abandoned with an error wrapping ErrCanceled.
func (p *Program) AnalyzeMatrixContext(ctx context.Context, cfgs []Config, workers int) ([]*Report, error) {
	hook := cancelHook(ctx)
	icfgs := internalConfigs(cfgs)
	for i := range icfgs {
		icfgs[i].Cancel = hook
	}
	results, err := core.AnalyzeMatrixErr(p.sp, icfgs, workers)
	if err != nil {
		return nil, err
	}
	return buildReports(cfgs, results), nil
}

// internalConfigs converts a matrix's configurations for core.
func internalConfigs(cfgs []Config) []core.Config {
	icfgs := make([]core.Config, len(cfgs))
	for i, c := range cfgs {
		icfgs[i] = c.internal()
	}
	return icfgs
}

// buildReports converts a matrix's results, in configuration order.
func buildReports(cfgs []Config, results []*core.Result) []*Report {
	reps := make([]*Report, len(results))
	for i, res := range results {
		reps[i] = buildReport(cfgs[i], res)
	}
	return reps
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
