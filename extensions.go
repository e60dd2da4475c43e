package ipcp

import (
	"ipcp/internal/core"
	"ipcp/internal/core/clone"
)

// This file exposes the two extensions beyond the paper's core study:
// the dependence-driven solver variant (the algorithm of Callahan et
// al. whose complexity bound §3.1.5 quotes) and goal-directed procedure
// cloning (the downstream consumer of CONSTANTS sets the paper
// discusses in §1 and §5).

// CloneOptions bounds the procedure-cloning transformation. A field
// that is zero or negative takes its default.
type CloneOptions struct {
	// MaxVersionsPerProc caps the versions of one procedure (including
	// the original). Default 4.
	MaxVersionsPerProc int

	// MaxRounds caps the clone→reanalyze iterations. Default 3.
	MaxRounds int
}

// CloneReport is the outcome of AnalyzeWithCloning.
type CloneReport struct {
	// Base is the analysis of the original program.
	Base *Report

	// Final is the analysis after cloning converged; clone procedures
	// appear as <name>_C1, <name>_C2, …
	Final *Report

	// Rounds of cloning applied and total clones created.
	Rounds      int
	TotalClones int
}

// AnalyzeWithCloning runs the propagation, then iterates goal-directed
// procedure cloning: call sites that pass different constant vectors to
// one procedure get their own specialized versions, each keeping the
// constants the meet would have destroyed. Metzger & Stroud report this
// "can substantially increase the number of interprocedural constants";
// the CloneReport quantifies it as Base vs Final substitution counts.
func (p *Program) AnalyzeWithCloning(cfg Config, opts CloneOptions) *CloneReport {
	icfg := cfg.internal()
	base := core.Analyze(p.sp, icfg)
	out := clone.AndAnalyze(base, icfg, clone.Options{
		MaxVersionsPerProc: opts.MaxVersionsPerProc,
		MaxRounds:          opts.MaxRounds,
	})
	return &CloneReport{
		Base:        buildReport(cfg, out.Base),
		Final:       buildReport(cfg, out.Final),
		Rounds:      out.Rounds,
		TotalClones: out.TotalClones,
	}
}
