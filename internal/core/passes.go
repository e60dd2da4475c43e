package core

import (
	"ipcp/internal/ir"
	"ipcp/internal/pass"
)

// Propagate is the four-stage interprocedural constant propagation
// (§4.1) as a pass: return jump functions bottom-up, forward jump
// functions via value numbering, VAL-set propagation, CONSTANTS
// recording. Result returns what its last run found; the transforms
// that consume it (DCE, cloning) hold the pass and read it there. It
// reports changed=true because SSA construction rewrites the program in
// place.
type Propagate struct {
	cfg  Config
	last *Result

	// s1 is the stage-1 product of the last run. A matrix group injects
	// its leader's product here, and a run over that product's program
	// reuses it instead of building its own: the program is then already
	// in SSA form, rewritten by the leader's run.
	s1 *stage1

	// Incremental reuse (AnalyzeSeeded): seeds are injected — and the
	// finished summaries captured — only for the run over seedProg, the
	// program the seeds were bound against. Complete-propagation reruns
	// execute over DCE-rebuilt programs that no longer correspond to
	// any stored summary, so they run fresh, exactly as from scratch.
	seedProg *ir.Program
	seeds    map[*ir.Proc]*ProcSeed
	captured *Summaries
}

// NewPropagate builds the propagation pass for one configuration.
func NewPropagate(cfg Config) *Propagate {
	return &Propagate{cfg: cfg}
}

func (p *Propagate) Name() string { return "propagate" }

// Run executes stages 1–4 over the Context's current program, sharing
// the Context's callgraph and mod/ref caches. The callgraph is taken
// before SSA construction mutates call instructions — order matters.
// Stage 1 is skipped when an injected product already covers the
// program; stages 2–4 only read it.
func (p *Propagate) Run(ctx *pass.Context) (bool, error) {
	prog := ctx.Program()
	capture := p.seedProg != nil && prog == p.seedProg
	if p.s1 == nil || p.s1.prog != prog {
		var reuse map[*ir.Proc]*ProcSeed
		if capture {
			reuse = p.seeds
		}
		p.s1 = newStage1(prog, p.cfg, ctx.CallGraph(), ctx.ModRef(), reuse)
		p.s1.buildSSA(p.cfg.Workers)
		p.s1.stage1ReturnJFs(p.cfg.Workers)
	}
	if err := ctx.Canceled(); err != nil {
		// SSA construction already rewrote the program in place.
		return true, err
	}
	pr := newPropagation(p.s1, p.cfg)
	pr.cancel = ctx.Cancel
	pr.stage2ForwardJFs()
	if err := pr.stage3Solve(); err != nil {
		return true, err
	}
	p.last = pr.stage4Record()
	if capture {
		p.captured = pr.extractSummaries()
	}
	return true, nil
}

// Result returns the most recent propagation outcome.
func (p *Propagate) Result() *Result { return p.last }

// plan is the pass composition for one configuration: the propagation
// pass alone, or — in complete mode — a fixpoint of DCE rounds, each
// preceded by a propagation of the program the previous round rebuilt
// (the paper resets every lattice value to ⊤ and propagates again from
// scratch on the cleaned program).
type plan struct {
	prop *Propagate
	fix  *pass.Fixpoint
	root pass.Pass
}

// newPlan declares the pipeline for cfg.
func newPlan(cfg Config) *plan {
	return newPlanWith(cfg, NewPropagate(cfg))
}

// newPlanWith builds the plan around a caller-prepared propagation
// pass (the seeded one, for incremental runs); the composition is
// identical to newPlan's, so seeded and scratch runs produce the same
// pass trace. The round that finds nothing to remove ends the fixpoint
// without a further propagation.
func newPlanWith(cfg Config, prop *Propagate) *plan {
	pl := &plan{prop: prop, root: prop}
	if cfg.Complete {
		round := pass.NewPipeline("dce-round", pass.NewRefresh(prop, nil), &dcePass{prop: prop})
		pl.fix = pass.NewFixpoint("complete", round, pass.DefaultMaxRounds)
		pl.root = pl.fix
	}
	return pl
}

// PipelineDescription renders the pass composition a configuration
// would execute (cmd/ipcp -passes).
func PipelineDescription(cfg Config) string {
	return pass.Describe(newPlan(cfg).root)
}
