package core

import (
	"fmt"

	"ipcp/internal/ir"
	"ipcp/internal/pass"
)

// FactResult is the pass-manager fact under which the interprocedural
// propagation result (*Result) is published. Passes that consume the
// analysis (DCE, cloning) declare it in Requires; the runner then
// re-propagates automatically whenever a transformation invalidated it.
const FactResult pass.Fact = "ipcp-result"

// Propagate is the four-stage interprocedural constant propagation
// (§4.1) as a pass: return jump functions bottom-up, forward jump
// functions via value numbering, VAL-set propagation, CONSTANTS
// recording. It publishes its *Result as FactResult. It reports
// changed=true because SSA construction rewrites the program in place.
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
	seeds    map[string]*ProcSeed
	captured *Summaries

	// warm is the previous fixpoint for demand-driven stage-3
	// re-solving; like the seeds, it applies only to the run over
	// seedProg — complete-mode re-propagations over DCE-rebuilt
	// programs solve cold, exactly as from scratch.
	warm *WarmSeed
}

// NewPropagate builds the propagation pass for one configuration
// (defaults filled).
func NewPropagate(cfg Config) *Propagate {
	return &Propagate{cfg: cfg.withDefaults()}
}

func (p *Propagate) Name() string             { return "propagate" }
func (p *Propagate) Requires() []pass.Fact    { return nil }
func (p *Propagate) Invalidates() []pass.Fact { return nil }

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
			reuse = resolveSeeds(prog, ctx.CallGraph(), p.seeds)
		}
		workers := poolSize(p.cfg.Workers)
		p.s1 = newStage1(prog, p.cfg, ctx.CallGraph(), ctx.ModRef(), reuse)
		p.s1.buildSSA(workers)
		p.s1.stage1ReturnJFs(workers)
	}
	if err := ctx.Canceled(); err != nil {
		// SSA construction already rewrote the program in place.
		return true, err
	}
	pr := newPropagation(p.s1, p.cfg)
	pr.cancel = ctx.Cancel
	if capture {
		pr.warm = p.warm
	}
	pr.stage2ForwardJFs()
	if err := pr.stage3Solve(); err != nil {
		return true, err
	}
	p.last = pr.stage4Record()
	if capture {
		p.captured = pr.extractSummaries()
	}
	ctx.SetFact(FactResult, p.last)
	return true, nil
}

// Result returns the most recent propagation outcome.
func (p *Propagate) Result() *Result { return p.last }

// plan is the declared pass composition for one configuration: the
// propagation pass registered as the ipcp-result provider, and either
// a plain pipeline or the complete-propagation DCE fixpoint as root.
type plan struct {
	prop *Propagate
	fix  *pass.Fixpoint
	reg  *pass.Registry
	root pass.Pass
}

// newPlan declares the pipeline for cfg. In complete mode the root is
// a fixpoint over DCE alone: DCE requires FactResult, so the runner
// inserts a fresh propagation at the start of every round (and skips
// the redundant one after the round that found nothing to remove).
func newPlan(cfg Config) *plan {
	return newPlanWith(cfg.withDefaults(), NewPropagate(cfg))
}

// newPlanWith builds the plan around a caller-prepared propagation
// pass (the seeded one, for incremental runs); the composition is
// identical to newPlan's, so seeded and scratch runs produce the same
// pass trace.
func newPlanWith(cfg Config, prop *Propagate) *plan {
	cfg = cfg.withDefaults()
	pl := &plan{prop: prop, reg: pass.NewRegistry()}
	pl.reg.Register(pl.prop, FactResult)
	if cfg.Complete {
		pl.fix = pass.NewFixpoint("complete", &dcePass{}, cfg.MaxDCERounds)
		pl.root = pass.NewPipeline("complete-propagation", pl.fix)
	} else {
		pl.root = pass.NewPipeline("propagation", pl.prop)
	}
	return pl
}

// PipelineDescription renders the pass composition a configuration
// would execute, one line per element (cmd/ipcp -passes).
func PipelineDescription(cfg Config) []string {
	pl := newPlan(cfg)
	return []string{
		pass.Describe(pl.root),
		fmt.Sprintf("provider: %s <- %s", FactResult, pl.prop.Name()),
	}
}
