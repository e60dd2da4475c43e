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

	// MaxDCERounds bounds the complete-propagation iteration
	// (default 10). The paper observed convergence after one round.
	MaxDCERounds int

	// DependenceSolver selects the wake-up policy of the Callahan et
	// al. dependence-driven solver instead of the paper's simple
	// worklist. Both compute identical VAL sets; the dependence-driven
	// one re-evaluates a jump function only when a support member
	// changes, achieving the O(Σ cost(J)) bound of §3.1.5.
	DependenceSolver bool

	// NoWarmStart disables demand-driven re-solving in incremental
	// runs: stage 3 always solves cold from ⊤ instead of warm-starting
	// from the previous fixpoint. The propagation itself ignores the
	// flag — it solves warm exactly when the incremental driver hands
	// it a Reuse.Warm seed, which the driver only does when this is
	// unset. Results are identical either way; only the solver effort
	// differs.
	NoWarmStart bool

	// Workers bounds the goroutines the per-procedure stages (SSA
	// construction, stage-1 return jump functions) fan out over. 0 means
	// one worker per available CPU; 1 forces the sequential reference
	// path. Results are identical for every setting — the determinism
	// tests prove it.
	Workers int

	// Debug makes the pass runner verify the IR after every pass and
	// fail fast naming the pass that corrupted it.
	Debug bool

	// Cancel, when non-nil, is polled between passes and inside the
	// stage-3 solver loop; a non-nil return (it must wrap ErrCanceled)
	// aborts the analysis with that error. Drivers wire request
	// deadlines through it — see AnalyzeErr. The zero value is an
	// uncancellable run with no polling overhead.
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
	// propagation). The members of one AnalyzeMatrix stage-1 group share
	// it, so it must be treated as read-only.
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

	// SiteVals records, for every call site, the jump-function values
	// that flowed along that edge under the final VAL sets. The
	// procedure-cloning extension partitions call sites by these
	// vectors.
	SiteVals map[*ir.Instr]*SiteValues

	// JFShape tallies the forward jump functions by syntactic form —
	// the data behind §3.1.5's observation that "the number of complex
	// polynomial jump functions actually constructed is small" and that
	// their support size approaches 1.
	JFShape JFShapeStats

	// Stats reports how the run executed.
	Stats Stats
}

// Stats describes how one analysis run executed.
type Stats struct {
	// Passes is the pass-manager trace of the run: one entry per pass
	// execution plus one summary per fixpoint, in completion order.
	// Every field except the wall-clock Nanos is deterministic.
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
// Cancel hook it never fails.
func AnalyzeErr(sp *sema.Program, cfg Config) (*Result, error) {
	return analyzeConfigured(irbuild.Build(sp), cfg.withDefaults())
}

// withDefaults fills the defaulted Config fields.
func (cfg Config) withDefaults() Config {
	if cfg.MaxDCERounds == 0 {
		cfg.MaxDCERounds = 10
	}
	return cfg
}

// Stage1Key is the part of a Config that SSA construction and stage 1
// read: MOD picks the side-effect oracle, and ReturnJFs decides whether
// return jump functions exist at all. The forward jump-function flavor
// first enters in stage 2 (jump.Filter), so configurations with equal
// keys share one stage-1 product (AnalyzeMatrix), and the summary store
// keys its flavor-free records by the same pair (incr.SharedConfigKey).
type Stage1Key struct {
	MOD       bool
	ReturnJFs bool
}

// Stage1Key returns the stage-1 key of cfg.
func (cfg Config) Stage1Key() Stage1Key {
	return Stage1Key{MOD: cfg.MOD, ReturnJFs: cfg.ReturnJFs}
}

// analyzeConfigured runs one full configured analysis over a fresh
// pre-SSA program by executing the declared pass plan: a plain
// propagation pipeline, or — for complete propagation — a verified
// fixpoint of DCE whose ipcp-result requirement re-runs propagation
// each round (the paper resets every lattice value to ⊤ and propagates
// again from scratch on the cleaned program). cfg must already have
// its defaults filled.
func analyzeConfigured(irp *ir.Program, cfg Config) (*Result, error) {
	return runPlan(newPlan(cfg), pass.NewContext(irp), cfg)
}

// runPlan executes a declared plan over a prepared Context and collects
// the result — the shared tail of the scratch and seeded entry points.
// Cancellation (an error wrapping ErrCanceled, necessarily from the
// Config.Cancel hook) is returned; any other pipeline error is an
// invariant violation (a pass that never converges, or corrupts the IR
// under Debug), not a user error, and panics loudly.
func runPlan(pl *plan, ctx *pass.Context, cfg Config) (*Result, error) {
	ctx.Debug = cfg.Debug
	ctx.Cancel = cfg.Cancel
	if err := pass.Run(ctx, pl.reg, pl.root); err != nil {
		if errors.Is(err, ErrCanceled) {
			return nil, err
		}
		panic("core: " + err.Error())
	}
	res := pl.prop.Result()
	if pl.fix != nil {
		res.DCERounds = pl.fix.Rounds()
	}
	res.Stats.Passes = ctx.PassStats()
	return res, nil
}

// AnalyzeMatrix analyzes one program under every configuration of the
// matrix, fanning the work out over a bounded worker pool (workers <= 0
// means one per CPU). The source program is lowered once. Configurations
// that are not Complete are grouped by Stage1Key, in order of first
// appearance; each group runs on its own copy of the lowering (the last
// group takes the original, the others deep clones), converts it to SSA
// form and runs stage 1 once, and then fans its members' stages 2–4 out
// over that read-only product. A Complete configuration rewrites its
// program every round, so it keeps a copy of its own. Results arrive in
// configuration order and are identical to running Analyze per
// configuration, pass traces included apart from their wall-clock
// Nanos: only the group leader's propagate row carries the shared stage
// time. The determinism tests assert it across the full config matrix.
func AnalyzeMatrix(sp *sema.Program, cfgs []Config, workers int) []*Result {
	out, err := AnalyzeMatrixErr(sp, cfgs, workers)
	if err != nil {
		panic("core: AnalyzeMatrix with a Cancel hook: " + err.Error())
	}
	return out
}

// AnalyzeMatrixErr is AnalyzeMatrix for cancellable runs: if any
// configuration's Cancel hook fires, the whole matrix is abandoned and
// the lowest-indexed error is returned (results are nil). With nil
// Cancel hooks it never fails.
func AnalyzeMatrixErr(sp *sema.Program, cfgs []Config, workers int) ([]*Result, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	groups := matrixGroups(cfgs)
	base := irbuild.Build(sp)
	out := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	pool := poolSize(workers)
	// BuildSSA mutates the IR in place, so every group but the last
	// gets its own copy of the lowering, made before any group starts,
	// and the last takes the original.
	progs := make([]*ir.Program, len(groups))
	progs[len(groups)-1] = base
	parallelFor(pool, len(groups)-1, func(g int) {
		progs[g] = ir.CloneProgram(base, nil, nil)
	})
	parallelFor(pool, len(groups), func(g int) {
		analyzeGroup(progs[g], cfgs, groups[g], pool, out, errs)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// matrixGroups partitions the configuration indices into the groups
// that share a stage-1 product: every Complete configuration on its
// own, the others by Stage1Key. Groups come out in order of their first
// member, and members in configuration order.
func matrixGroups(cfgs []Config) [][]int {
	var groups [][]int
	byKey := make(map[Stage1Key]int)
	for i, cfg := range cfgs {
		if !cfg.Complete {
			if g, ok := byKey[cfg.Stage1Key()]; ok {
				groups[g] = append(groups[g], i)
				continue
			}
			byKey[cfg.Stage1Key()] = len(groups)
		}
		groups = append(groups, []int{i})
	}
	return groups
}

// analyzeGroup analyzes one group's configurations over irp, a fresh
// pre-SSA program of its own. The leader, the group's first member,
// runs exactly as a standalone analysis, building the stage-1 product
// inside its propagate pass. The other members then run their stages
// 2–4 over that product concurrently. A canceled leader abandons the
// group: the matrix fails anyway.
func analyzeGroup(irp *ir.Program, cfgs []Config, members []int, workers int, out []*Result, errs []error) {
	lead := NewPropagate(cfgs[members[0]])
	out[members[0]], errs[members[0]] = runPlan(newPlanWith(lead.cfg, lead), pass.NewContext(irp), lead.cfg)
	if errs[members[0]] != nil || len(members) == 1 {
		return
	}
	// A non-Complete plan traces exactly one row: propagate.
	shared := out[members[0]].Stats.Passes[0]
	rest := members[1:]
	parallelFor(workers, len(rest), func(k int) {
		i := rest[k]
		prop := NewPropagate(cfgs[i])
		prop.s1 = lead.s1
		res, err := runPlan(newPlanWith(prop.cfg, prop), pass.NewContext(irp), prop.cfg)
		if err != nil {
			errs[i] = err
			return
		}
		// The runner sized the program this member found, already in SSA
		// form; a standalone run would have sized it before the
		// conversion, as the leader's row did.
		st := &res.Stats.Passes[0]
		st.ProcsBefore, st.BlocksBefore, st.InstrsBefore = shared.ProcsBefore, shared.BlocksBefore, shared.InstrsBefore
		out[i] = res
	})
}

// AnalyzeIR runs one propagation (never the complete-propagation
// iteration) over an already-lowered program. The program must be
// fresh (pre-SSA); Analyze is the usual entry point.
func AnalyzeIR(irp *ir.Program, cfg Config) *Result {
	cfg = cfg.withDefaults()
	ctx := pass.NewContext(irp)
	ctx.Debug = cfg.Debug
	prop := NewPropagate(cfg)
	if err := pass.Run(ctx, pass.NewRegistry(), pass.NewPipeline("propagation", prop)); err != nil {
		panic("core: " + err.Error())
	}
	res := prop.Result()
	res.Stats.Passes = ctx.PassStats()
	return res
}

// stage1 is the configuration-invariant half of a propagation: the
// program in SSA form, the value numbering of every procedure, and the
// return jump functions, all derived under one Stage1Key. Once built it
// is read-only, so every configuration with that key can run its
// stages 2–4 over the same product, concurrently in a matrix group.
type stage1 struct {
	key  Stage1Key
	prog *ir.Program
	cg   *callgraph.Graph
	mods *modref.Summary

	oracle      ir.ModOracle
	globalIndex map[*ir.GlobalVar]int

	// reuse maps procedures whose stage-1/stage-2 outputs are injected
	// from stored summaries instead of derived (nil outside incremental
	// runs). The seeds carry flavor-dependent sites, so a seeded product
	// serves only the configuration it was seeded for. See reuse.go.
	reuse map[*ir.Proc]*ProcSeed

	// ssaAll converts seeded procedures to SSA form too: complete mode's
	// dead-code elimination runs SCCP over every procedure.
	ssaAll bool

	retJFs *jump.Store
	vns    map[*ir.Proc]*valnum.Result
}

// newStage1 prepares the stage-1 state for cfg's key; buildSSA and
// stage1ReturnJFs then fill it. cg and mods are the whole-program
// caches, normally supplied by the pass Context so repeated
// propagations over the same program share them; nil means build fresh
// (the callgraph must come from the pre-SSA program, so it is taken
// before any stage runs). reuse — normally nil — injects stored
// summaries for unchanged procedures (reuse.go).
func newStage1(irp *ir.Program, cfg Config, cg *callgraph.Graph, mods *modref.Summary, reuse map[*ir.Proc]*ProcSeed) *stage1 {
	if cg == nil {
		cg = callgraph.Build(irp)
	}
	if mods == nil {
		mods = modref.Compute(irp, cg)
	}
	s := &stage1{
		key:         cfg.Stage1Key(),
		prog:        irp,
		cg:          cg,
		mods:        mods,
		reuse:       reuse,
		ssaAll:      cfg.Complete,
		globalIndex: make(map[*ir.GlobalVar]int, len(irp.ScalarGlobals)),
		vns:         make(map[*ir.Proc]*valnum.Result, len(irp.Procs)),
	}
	for i, g := range irp.ScalarGlobals {
		s.globalIndex[g] = i
	}
	s.oracle = ir.WorstCase
	if s.key.MOD {
		s.oracle = s.mods.Oracle()
	}
	return s
}

// propagation carries one configuration's state through stages 2–4
// over a stage-1 product it only reads.
type propagation struct {
	*stage1
	cfg     Config
	workers int // resolved pool size for the per-procedure stages

	sites map[*ir.Instr]*jump.Site

	vals    *vals
	jfShape JFShapeStats

	// Stage-3 effort (solver.go): work items visited, jump functions
	// evaluated, items on the initial worklist, and items re-enqueued
	// by lowered cells after it.
	solverPasses int
	jfEvals      int
	seeded       int
	enqueued     int

	// Warm-start state (warm.go): the previous fixpoint injected for
	// the capture run of an incremental analysis (nil = cold solve) and
	// the cached per-procedure jump-function fingerprints.
	warm        *WarmSeed
	siteHash    map[string]string
	warmStarted bool
	coneProcs   int

	// cancel is the pass Context's cancellation hook (nil when the run
	// is uncancellable); the stage-3 solve polls it per work item.
	cancel func() error
}

// newPropagation starts cfg's stages 2–4 over a built stage-1 product
// with cfg's key.
func newPropagation(s1 *stage1, cfg Config) *propagation {
	return &propagation{
		stage1:  s1,
		cfg:     cfg,
		workers: poolSize(cfg.Workers),
		sites:   make(map[*ir.Instr]*jump.Site),
	}
}

// buildSSA converts every procedure to SSA form, fanning out over the
// worker pool: BuildSSA mutates only its own procedure and the MOD
// oracle is read-only, so the procedures are independent.
//
// Seeded procedures skip SSA construction: their jump functions come
// from the seed and their substitution counts replay cached use
// vectors, so nothing downstream reads their SSA state — except
// complete mode, whose dead-code elimination runs SCCP over every
// procedure's entry values, so there everyone is converted.
func (s *stage1) buildSSA(workers int) {
	procs := s.prog.Procs
	parallelFor(workers, len(procs), func(i int) {
		if !s.ssaAll {
			if seed := s.reuse[procs[i]]; seed != nil && seed.Uses != nil {
				procs[i].ElidedPhis = seed.Uses.Phis
				return
			}
		}
		procs[i].BuildSSA(s.oracle)
	})
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
		parallelFor(workers, len(wave), func(i int) {
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
// functions are final once stage 1 completes). It runs sequentially in
// call-graph order: the stage is a small share of the pipeline, and a
// worker pool did not pay for itself on it (EXPERIMENTS.md).
func (p *propagation) stage2ForwardJFs() {
	for _, n := range p.cg.TopDown() {
		if seed := p.reuse[n.Proc]; seed != nil {
			// Replay the stored jump functions through the exact loop
			// structure of the derivation below, so the shape tally
			// (which skips array formals and truncated global slots)
			// matches a scratch run bit for bit.
			for si, call := range n.Sites {
				ss := seed.Sites[si]
				site := &jump.Site{Call: call, Formal: ss.Formal, Global: ss.Global}
				for i := 0; i < call.NumActuals && i < len(call.Callee.Formals); i++ {
					if call.Callee.Formals[i].Type.IsArray() {
						continue
					}
					p.jfShape.classify(site.Formal[i])
				}
				for k := range p.prog.ScalarGlobals {
					if call.NumActuals+k >= len(call.Args) {
						break
					}
					p.jfShape.classify(site.Global[k])
				}
				p.sites[call] = site
			}
			continue
		}
		vn := p.vns[n.Proc]
		for _, call := range n.Sites {
			site := &jump.Site{
				Call:   call,
				Formal: make([]sym.Expr, len(call.Callee.Formals)),
				Global: make([]sym.Expr, len(p.prog.ScalarGlobals)),
			}
			for i := 0; i < call.NumActuals && i < len(call.Callee.Formals); i++ {
				if call.Callee.Formals[i].Type.IsArray() {
					continue // arrays carry no constants
				}
				raw := vn.OperandExpr(call.Args[i])
				site.Formal[i] = jump.Filter(p.cfg.Jump, call.Args[i], raw)
				p.jfShape.classify(site.Formal[i])
			}
			for k := range p.prog.ScalarGlobals {
				a := call.NumActuals + k
				if a >= len(call.Args) {
					break
				}
				raw := vn.OperandExpr(call.Args[a])
				site.Global[k] = jump.Filter(p.cfg.Jump, call.Args[a], raw)
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
		SiteVals:      make(map[*ir.Instr]*SiteValues, len(p.sites)),
		JFShape:       p.jfShape,
	}
	// Per-site jump-function values under the final VAL sets, for the
	// cloning extension.
	reach := p.cg.ReachableFromMain()
	for _, n := range p.cg.TopDown() {
		if !reach[n.Proc] {
			continue
		}
		env := procEnv{p: p, at: n.Proc}
		for _, call := range n.Sites {
			site := p.sites[call]
			if site == nil {
				continue
			}
			sv := &SiteValues{
				Formals: make([]lattice.Value, len(site.Formal)),
				Globals: make([]lattice.Value, len(site.Global)),
			}
			for i, e := range site.Formal {
				//lint:ignore latticeflow post-fixpoint recording into a freshly allocated result vector, not a live VAL cell
				sv.Formals[i] = sym.Eval(e, env)
			}
			for k, e := range site.Global {
				//lint:ignore latticeflow post-fixpoint recording into a freshly allocated result vector, not a live VAL cell
				sv.Globals[k] = sym.Eval(e, env)
			}
			res.SiteVals[call] = sv
		}
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
		pr.Substituted, pr.ControlFlowSubstituted = p.countSubstitutions(proc)
		res.Procs[proc.Name] = pr
		res.TotalSubstituted += pr.Substituted
		res.TotalControlFlow += pr.ControlFlowSubstituted
		res.TotalConstants += len(pr.Constants)
	}
	return res
}
