// Package core implements the interprocedural constant propagation
// framework of Callahan, Cooper, Kennedy & Torczon as studied by Grove &
// Torczon (PLDI 1993): the four-stage pipeline of §4.1 —
//
//	stage 1  generate return jump functions (bottom-up over the call graph)
//	stage 2  generate forward jump functions (value numbering per procedure)
//	stage 3  propagate VAL sets around the call graph (iterative worklist)
//	stage 4  record the CONSTANTS(p) sets and count substitutions
//
// A Config chooses the forward jump-function flavor, toggles return jump
// functions and MOD information, and optionally iterates the whole
// propagation with dead-code elimination ("complete propagation").
package core

import (
	"errors"
	"sort"

	"ipcp/internal/analysis/callgraph"
	"ipcp/internal/analysis/modref"
	"ipcp/internal/analysis/valnum"
	"ipcp/internal/core/jump"
	"ipcp/internal/core/lattice"
	"ipcp/internal/ir"
	"ipcp/internal/ir/irbuild"
	"ipcp/internal/mf/sema"
	"ipcp/internal/par"
	"ipcp/internal/pass"
	"ipcp/internal/sym"
)

// Config selects an analysis configuration (one column of the paper's
// Tables 2–3).
type Config struct {
	// Jump is the forward jump-function flavor.
	Jump jump.Kind

	// ReturnJFs enables return jump functions (§3.2).
	ReturnJFs bool

	// MOD enables interprocedural MOD summaries; when false the
	// analysis makes worst-case assumptions at every call site
	// (Table 3, column 1).
	MOD bool

	// Complete iterates propagation with dead-code elimination until no
	// dead code is found (Table 3, column 3).
	Complete bool

	// DependenceSolver selects the wake-up policy of the Callahan et
	// al. dependence-driven solver instead of the paper's simple
	// worklist. Both compute identical VAL sets; the dependence-driven
	// one re-evaluates a jump function only when a support member
	// changes, achieving the O(Σ cost(J)) bound of §3.1.5.
	DependenceSolver bool

	// Workers bounds the goroutines the per-procedure stages (SSA
	// construction, stage-1 return jump functions) and, in incremental
	// runs, internal/incr's fingerprinting and summary fetch fan out
	// over. 0 means one worker per available CPU; 1 forces the
	// sequential reference path. Results are identical for every
	// setting — the determinism tests prove it.
	Workers int

	// Debug verifies the IR after every traced step and fails fast
	// naming the step that corrupted it.
	Debug bool

	// Cancel, when non-nil, is polled before every traced step and
	// inside the stage-3 solver loop; a non-nil return (it must wrap
	// ErrCanceled) aborts the analysis with that error. Drivers wire
	// request deadlines through it — see AnalyzeErr. The zero value is
	// an uncancellable run with no polling overhead.
	Cancel func() error
}

// NamedConstant is one (name, value) member of a CONSTANTS(p) set.
type NamedConstant struct {
	Name   string
	Global bool
	Value  int64
}

// ProcResult is the outcome for one procedure.
type ProcResult struct {
	Name string

	// FormalVals holds the final lattice value of each formal (array
	// formals stay ⊥).
	FormalVals []lattice.Value

	// GlobalVals holds the final lattice value of each scalar global on
	// entry, parallel to Program.ScalarGlobals.
	GlobalVals []lattice.Value

	// Constants is CONSTANTS(p): the formals and globals with constant
	// entry values, sorted by name.
	Constants []NamedConstant

	// Substituted counts the textual references to members of
	// CONSTANTS(p) that the transformer replaces with literals — the
	// Metzger–Stroud metric the paper's tables report.
	Substituted int

	// ControlFlowSubstituted counts the subset of Substituted that sits
	// in loop bounds, strides, or branch conditions — the references
	// §4 says the study cared most about.
	ControlFlowSubstituted int
}

// Result is the outcome of one analysis configuration over one program.
type Result struct {
	Config Config

	// Prog is the analyzed IR (the DCE-transformed program for complete
	// propagation). The AnalyzeMatrix configurations with one MOD
	// setting share it, a Complete one too when its dead-code
	// elimination removed nothing, so it must be treated as read-only.
	Prog *ir.Program

	// Procs maps procedure names to their results.
	Procs map[string]*ProcResult

	// TotalSubstituted is the program-wide substitution count (one cell
	// of Table 2 / Table 3).
	TotalSubstituted int

	// TotalConstants is the number of (procedure, name) pairs in all
	// CONSTANTS sets.
	TotalConstants int

	// TotalControlFlow is the program-wide count of substituted
	// references that sit in loop bounds or branch conditions.
	TotalControlFlow int

	// SolverPasses counts stage-3 work-item visits: procedure visits
	// under the simple worklist, jump-function instance visits under
	// the dependence-driven solver.
	SolverPasses int

	// JFEvaluations counts jump-function evaluations during stage 3.
	JFEvaluations int

	// DCERounds counts complete-propagation rounds that found and
	// removed dead code.
	DCERounds int

	// JFShape tallies the forward jump functions by syntactic form —
	// the data behind §3.1.5's observation that "the number of complex
	// polynomial jump functions actually constructed is small" and that
	// their support size approaches 1.
	JFShape JFShapeStats

	// Stats reports how the run executed.
	Stats Stats

	// sites, reach and vals are what EvalSite needs of the finished
	// propagation: the forward jump functions of every call site, the
	// procedures reachable from main, and the final VAL sets.
	sites map[*ir.Instr]*jump.Site
	reach map[*ir.Proc]bool
	vals  *vals
}

// Stats describes how one analysis run executed.
type Stats struct {
	// Passes is the trace of the run: one entry per step plus one
	// summary per loop, in completion order. Every field except the
	// wall-clock Nanos is deterministic.
	Passes []pass.Stat
}

// JFShapeStats classifies constructed forward jump functions.
type JFShapeStats struct {
	Bottom      int // ⊥: nothing propagates along this binding
	Constant    int // a known constant
	PassThrough int // exactly one incoming formal or global
	Polynomial  int // a genuine expression over ≥1 inputs

	// SupportSum accumulates |support(J)| over non-constant, non-⊥
	// jump functions; SupportSum / (PassThrough + Polynomial) is the
	// paper's "|support| approaches 1" metric.
	SupportSum int
}

// SiteValues is the evaluated jump-function vector of one call site:
// one lattice value per callee formal and one per scalar global.
type SiteValues struct {
	Formals []lattice.Value
	Globals []lattice.Value
}

// EvalSite evaluates the forward jump functions of call, a call site in
// caller, under caller's final VAL set: the values that flowed along
// that edge. It returns nil when caller is not reachable from main,
// whose sites never fed the propagation. The procedure-cloning
// extension partitions call sites by these vectors; nothing else needs
// them, so no run evaluates them up front.
func (r *Result) EvalSite(caller *ir.Proc, call *ir.Instr) *SiteValues {
	site := r.sites[call]
	if site == nil || !r.reach[caller] {
		return nil
	}
	var env sym.Env = procEnv{v: r.vals, at: caller}
	sv := &SiteValues{
		Formals: make([]lattice.Value, len(site.Formal)),
		Globals: make([]lattice.Value, len(site.Global)),
	}
	for i, e := range site.Formal {
		//lint:ignore latticeflow post-fixpoint evaluation into a freshly allocated result vector, not a live VAL cell
		sv.Formals[i] = sym.Eval(e, env)
	}
	for k, e := range site.Global {
		//lint:ignore latticeflow post-fixpoint evaluation into a freshly allocated result vector, not a live VAL cell
		sv.Globals[k] = sym.Eval(e, env)
	}
	return sv
}

// ErrCanceled is the sentinel a Config.Cancel hook wraps: an analysis
// aborted by its caller (a context deadline or cancellation), as
// opposed to an internal invariant violation (which still panics).
var ErrCanceled = errors.New("analysis canceled")

// Analyze runs the configured interprocedural constant propagation over
// an analyzed source program. Each invocation lowers a fresh IR, so a
// single *sema.Program can be analyzed under many configurations.
// cfg.Cancel must be nil — cancellable callers use AnalyzeErr.
func Analyze(sp *sema.Program, cfg Config) *Result {
	res, err := AnalyzeErr(sp, cfg)
	if err != nil {
		// Only a Cancel hook can produce an error here.
		panic("core: Analyze with a Cancel hook: " + err.Error())
	}
	return res
}

// AnalyzeErr is Analyze for cancellable runs: when cfg.Cancel reports
// cancellation mid-analysis, it returns nil and that error. With a nil
// Cancel hook it never fails. It analyzes a fresh lowering: one
// propagation, or for complete propagation the loop of DCE rounds that
// re-propagates after each round that rebuilt the program.
func AnalyzeErr(sp *sema.Program, cfg Config) (*Result, error) {
	res, _, err := analyze(irbuild.Build(sp), cfg, nil, nil)
	if err != nil {
		return nil, invariant(err)
	}
	return res, nil
}

// Stage1Key is the part of a Config that SSA construction and stage 1
// read: MOD picks the side-effect oracle, and ReturnJFs decides whether
// return jump functions exist at all. SSA construction reads only the
// MOD half, so AnalyzeMatrix converts a program once per MOD setting
// and builds the products of both ReturnJFs settings over that one SSA
// program. The forward jump-function flavor first enters in stage 2
// (jump.Filter), so configurations with equal keys share one stage-1
// product (AnalyzeMatrix).
type Stage1Key struct {
	MOD       bool
	ReturnJFs bool
}

// Stage1Key returns the stage-1 key of cfg.
func (cfg Config) Stage1Key() Stage1Key {
	return Stage1Key{MOD: cfg.MOD, ReturnJFs: cfg.ReturnJFs}
}

// invariant returns a cancellation (an error wrapping ErrCanceled,
// necessarily from the Config.Cancel hook) as it is. Any other error
// from analyze is an invariant violation, not a user error: a complete
// propagation that never converges, or a step that corrupted the IR
// under Debug. It panics loudly.
func invariant(err error) error {
	if !errors.Is(err, ErrCanceled) {
		panic("core: " + err.Error())
	}
	return err
}

// ssaForm is the MOD-keyed half of stage 1: the program in SSA form
// under one MOD oracle, its callgraph (taken from the pre-SSA program)
// and every procedure's substitution tallies. SSA construction and
// collectUses read only the oracle, so the stage-1 products of one MOD
// setting, with return jump functions and without, can share one form
// (AnalyzeMatrix). Once built it is read-only.
type ssaForm struct {
	mod  bool
	prog *ir.Program
	cg   *callgraph.Graph

	oracle      ir.ModOracle
	globalIndex map[*ir.GlobalVar]int

	// reuse maps procedures whose stage-1/stage-2 outputs are injected
	// from stored summaries instead of derived (nil outside incremental
	// runs). The seeds carry flavor-dependent sites, so a seeded form
	// serves only the configuration it was seeded for. See reuse.go.
	reuse map[*ir.Proc]*ProcSeed

	// ssaAll converts seeded procedures to SSA form too: complete mode's
	// dead-code elimination runs SCCP over every procedure.
	ssaAll bool

	uses map[*ir.Proc]*ProcUses
}

// newSSAForm prepares the SSA form of irp, a pre-SSA program, under
// the MOD setting mod; buildSSA then converts it. cg and mods are the
// whole-program views an incremental caller already built; nil means
// build fresh (both must come from the pre-SSA program, so they are
// taken before any conversion, and the MOD summary only when mod needs
// it). reuse — normally nil — injects stored summaries for unchanged
// procedures (reuse.go), and ssaAll converts those procedures anyway.
func newSSAForm(irp *ir.Program, mod bool, cg *callgraph.Graph, mods *modref.Summary, reuse map[*ir.Proc]*ProcSeed, ssaAll bool) *ssaForm {
	if cg == nil {
		cg = callgraph.Build(irp)
	}
	f := &ssaForm{
		mod:         mod,
		prog:        irp,
		cg:          cg,
		oracle:      ir.WorstCase,
		reuse:       reuse,
		ssaAll:      ssaAll,
		globalIndex: make(map[*ir.GlobalVar]int, len(irp.ScalarGlobals)),
	}
	for i, g := range irp.ScalarGlobals {
		f.globalIndex[g] = i
	}
	if mod {
		if mods == nil {
			mods = modref.Compute(irp, cg)
		}
		f.oracle = mods.Oracle()
	}
	return f
}

// stage1 is the configuration-invariant half of a propagation: an SSA
// form plus the value numbering of every procedure and the return jump
// functions, all derived under one Stage1Key. Once built it is
// read-only, so every configuration with that key can run its stages
// 2–4 over the same product, concurrently in a matrix.
type stage1 struct {
	*ssaForm
	key    Stage1Key
	retJFs *jump.Store
	vns    map[*ir.Proc]*valnum.Result
}

// newStage1 prepares the stage-1 product of a built form with return
// jump functions on or off; stage1ReturnJFs then fills it.
func newStage1(f *ssaForm, returnJFs bool) *stage1 {
	return &stage1{
		ssaForm: f,
		key:     Stage1Key{MOD: f.mod, ReturnJFs: returnJFs},
		vns:     make(map[*ir.Proc]*valnum.Result, len(f.prog.Procs)),
	}
}

// buildStage1 converts prog, a pre-SSA program, to SSA form and builds
// cfg's stage-1 product over it, injecting the seeds of reuse (nil
// outside incremental runs).
func buildStage1(prog *ir.Program, cfg Config, reuse *Reuse) *stage1 {
	if reuse == nil {
		reuse = &Reuse{}
	}
	f := newSSAForm(prog, cfg.MOD, reuse.CG, reuse.Mods, reuse.Procs, cfg.Complete)
	f.buildSSA(cfg.Workers)
	s := newStage1(f, cfg.ReturnJFs)
	s.stage1ReturnJFs(cfg.Workers)
	return s
}

// propagation carries one configuration's state through stages 2–4
// over a stage-1 product it only reads.
type propagation struct {
	*stage1
	cfg Config

	sites map[*ir.Instr]*jump.Site

	vals    *vals
	jfShape JFShapeStats

	// Stage-3 effort (solver.go): work items visited and jump
	// functions evaluated.
	solverPasses int
	jfEvals      int

	// reach is the set of procedures reachable from main, whose call
	// sites stage 3 propagates along.
	reach map[*ir.Proc]bool

	// cancel is the trace recorder's cancellation hook (nil when the
	// run is uncancellable); the stage-3 solve polls it per work item.
	cancel func() error
}

// newPropagation starts cfg's stages 2–4 over a built stage-1 product
// with cfg's key.
func newPropagation(s1 *stage1, cfg Config) *propagation {
	return &propagation{
		stage1: s1,
		cfg:    cfg,
		sites:  make(map[*ir.Instr]*jump.Site),
	}
}

// buildSSA converts every procedure to SSA form and tallies its
// substitution uses (count.go), fanning out over the worker pool:
// BuildSSA mutates only its own procedure and the MOD oracle is
// read-only, so the procedures are independent.
//
// Seeded procedures skip SSA construction and take their seed's
// tallies: their jump functions come from the seed too, so nothing
// downstream reads their SSA state — except complete mode, whose
// dead-code elimination runs SCCP over every procedure's entry values,
// so there everyone is converted and tallied.
func (f *ssaForm) buildSSA(workers int) {
	procs := f.prog.Procs
	uses := make([]*ProcUses, len(procs))
	par.For(workers, len(procs), func(i int) {
		proc := procs[i]
		if seed := f.reuse[proc]; seed != nil && !f.ssaAll {
			proc.ElidedPhis = seed.Uses.Phis
			uses[i] = seed.Uses
			return
		}
		proc.BuildSSA(f.oracle)
		uses[i] = collectUses(proc, f.oracle)
	})
	f.uses = make(map[*ir.Proc]*ProcUses, len(procs))
	for i, proc := range procs {
		f.uses[proc] = uses[i]
	}
}

// stage1ReturnJFs value-numbers every procedure bottom-up over the call
// graph, building return jump functions as it goes so callers see their
// callees' summaries (§4.1, "Generating return jump functions").
// Procedures in call-graph cycles get no return jump functions (⊥).
//
// The bottom-up order is relaxed to waves over the call-graph
// condensation (see parallel.go): procedures inside one wave have no
// finished callee summaries to exchange, so they value-number in
// parallel; the summaries a wave produced are published sequentially
// before the next wave starts. Without return jump functions there are
// no cross-procedure reads at all and the whole stage is one wave.
func (s *stage1) stage1ReturnJFs(workers int) {
	s.retJFs = jump.NewStore(s.prog)
	// Reused procedures publish their stored return jump functions up
	// front: a summary is injected only when the procedure's whole
	// forward cone is unchanged (internal/incr's invalidation rule), so
	// the stored functions are exactly what re-deriving would produce,
	// and publishing before the waves keeps every caller's view
	// identical to the scratch schedule.
	if s.key.ReturnJFs {
		for proc, seed := range s.reuse {
			if seed.Returns != nil {
				s.retJFs.Set(proc, seed.Returns)
			}
		}
	}
	var re valnum.ReturnEval
	if s.key.ReturnJFs {
		re = s.retJFs
	}
	// Without return jump functions nothing crosses procedures and one
	// wave covers everything; with them, the wave schedule guarantees a
	// caller never runs before its callees' summaries are published.
	waves := [][]*callgraph.Node{s.cg.BottomUp()}
	if s.key.ReturnJFs {
		waves = sccWaves(s.cg)
	}
	for _, wave := range waves {
		vns := make([]*valnum.Result, len(wave))
		rets := make([]*jump.Returns, len(wave))
		par.For(workers, len(wave), func(i int) {
			n := wave[i]
			if s.reuse[n.Proc] != nil {
				return // summary injected; nothing to derive
			}
			vns[i] = valnum.Analyze(n.Proc, re)
			if s.key.ReturnJFs && !s.cg.InCycle(n) {
				rets[i] = s.buildReturns(n.Proc, vns[i])
			}
		})
		for i, n := range wave {
			if vns[i] != nil {
				s.vns[n.Proc] = vns[i]
			}
			if rets[i] != nil {
				s.retJFs.Set(n.Proc, rets[i])
			}
		}
	}
}

// buildReturns derives a procedure's return jump functions from the
// value-numbered expressions of its Ret operands: the exit value of each
// binding must agree (be congruent) across every RETURN and be a closed
// polynomial over the procedure's entry values.
func (s *stage1) buildReturns(proc *ir.Proc, vn *valnum.Result) *jump.Returns {
	r := &jump.Returns{
		Formal: make([]sym.Expr, len(proc.Formals)),
		Global: make(map[*ir.GlobalVar]sym.Expr),
	}
	var rets []*ir.Instr
	for _, b := range proc.Blocks {
		if t := b.Terminator(); t != nil && t.Op == ir.OpRet {
			rets = append(rets, t)
		}
	}
	if len(rets) == 0 {
		return r // procedure never returns: all ⊥
	}
	for pos, v := range proc.RetVars {
		var acc sym.Expr
		ok := true
		for ri, ret := range rets {
			e := vn.OperandExpr(ret.Args[pos])
			if e == nil {
				ok = false
				break
			}
			if ri == 0 {
				acc = e
				continue
			}
			if !sym.Equal(acc, e) {
				ok = false
				break
			}
		}
		if !ok || acc == nil || !sym.IsClosed(acc) {
			continue
		}
		// Return jump functions over entry values (identity and
		// polynomial forms) assert which bindings the procedure leaves
		// unmodified — that assertion *is* MOD information. In the
		// no-MOD configuration (Table 3, column 1) only constant-valued
		// return jump functions are available.
		if !s.key.MOD {
			if _, isConst := acc.(*sym.Const); !isConst {
				continue
			}
		}
		switch v.Kind {
		case ir.ResultVar:
			r.Result = acc
		case ir.FormalVar:
			r.Formal[v.Index] = acc
		case ir.GlobalRefVar:
			r.Global[v.Global] = acc
		}
	}
	return r
}

// stage2ForwardJFs builds the configured flavor of forward jump function
// for every actual parameter and every implicit global at every call
// site, reusing the stage-1 value numbering (valid because return jump
// functions are final once stage 1 completes); a seeded procedure's
// sites come from its seed instead. Both kinds go through one loop, so
// the shape tally (which skips array formals and truncated global
// slots) is the same for either. It runs sequentially in call-graph
// order: the stage is a small share of the pipeline, and a worker pool
// did not pay for itself on it (EXPERIMENTS.md).
func (p *propagation) stage2ForwardJFs() {
	for _, n := range p.cg.TopDown() {
		seed := p.reuse[n.Proc]
		vn := p.vns[n.Proc]
		for si, call := range n.Sites {
			var site *jump.Site
			if seed != nil {
				site = seed.Sites[si]
			} else {
				site = &jump.Site{
					Call:   call,
					Formal: make([]sym.Expr, len(call.Callee.Formals)),
					Global: make([]sym.Expr, len(p.prog.ScalarGlobals)),
				}
			}
			for i := 0; i < call.NumActuals && i < len(call.Callee.Formals); i++ {
				if call.Callee.Formals[i].Type.IsArray() {
					continue // arrays carry no constants
				}
				if seed == nil {
					site.Formal[i] = jump.Filter(p.cfg.Jump, call.Args[i], vn.OperandExpr(call.Args[i]))
				}
				p.jfShape.classify(site.Formal[i])
			}
			for k := range p.prog.ScalarGlobals {
				a := call.NumActuals + k
				if a >= len(call.Args) {
					break
				}
				if seed == nil {
					site.Global[k] = jump.Filter(p.cfg.Jump, call.Args[a], vn.OperandExpr(call.Args[a]))
				}
				p.jfShape.classify(site.Global[k])
			}
			p.sites[call] = site
		}
	}
}

// classify tallies one constructed forward jump function by form.
func (s *JFShapeStats) classify(e sym.Expr) {
	switch e := e.(type) {
	case nil:
		s.Bottom++
	case *sym.Const:
		s.Constant++
	case *sym.Formal, *sym.GlobalEntry:
		s.PassThrough++
		s.SupportSum++
	default:
		s.Polynomial++
		leaves, _ := sym.Support(e)
		s.SupportSum += len(leaves)
	}
}

// stage4Record assembles the CONSTANTS sets and the substitution counts.
func (p *propagation) stage4Record() *Result {
	res := &Result{
		Config:        p.cfg,
		Prog:          p.prog,
		Procs:         make(map[string]*ProcResult, len(p.prog.Procs)),
		SolverPasses:  p.solverPasses,
		JFEvaluations: p.jfEvals,
		JFShape:       p.jfShape,
		sites:         p.sites,
		reach:         p.reach,
		vals:          p.vals,
	}
	for _, proc := range p.prog.Procs {
		pr := &ProcResult{
			Name:       proc.Name,
			FormalVals: p.vals.formals[proc],
			GlobalVals: p.vals.globals[proc],
		}
		for i, f := range proc.Formals {
			if c, ok := pr.FormalVals[i].IntConst(); ok {
				pr.Constants = append(pr.Constants, NamedConstant{Name: f.Name, Value: c})
			}
		}
		for k, g := range p.prog.ScalarGlobals {
			if c, ok := pr.GlobalVals[k].IntConst(); ok {
				pr.Constants = append(pr.Constants, NamedConstant{Name: g.String(), Global: true, Value: c})
			}
		}
		sort.Slice(pr.Constants, func(i, j int) bool { return pr.Constants[i].Name < pr.Constants[j].Name })
		pr.Substituted, pr.ControlFlowSubstituted = p.countFromUses(proc)
		res.Procs[proc.Name] = pr
		res.TotalSubstituted += pr.Substituted
		res.TotalControlFlow += pr.ControlFlowSubstituted
		res.TotalConstants += len(pr.Constants)
	}
	return res
}
