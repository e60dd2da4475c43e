// Package ipcp is a from-scratch reproduction of
//
//	Dan Grove and Linda Torczon,
//	"Interprocedural Constant Propagation: A Study of Jump Function
//	Implementations", PLDI 1993.
//
// It implements the Callahan–Cooper–Kennedy–Torczon interprocedural
// constant propagation framework over a FORTRAN-77-flavored source
// language (MiniFortran), including every substrate the study depends
// on: a front end, an SSA-based intermediate representation, global
// value numbering, call graphs, interprocedural MOD/REF summaries,
// sparse conditional constant propagation, and dead-code elimination.
//
// The package exposes the study's experimental surface:
//
//	prog, err := ipcp.Load(source)
//	report := prog.Analyze(ipcp.Config{
//	        Jump:                ipcp.PassThrough,
//	        ReturnJumpFunctions: true,
//	        MOD:                 true,
//	})
//	fmt.Println(report.TotalSubstituted)
//
// Four forward jump-function flavors are available (Literal,
// Intraprocedural, PassThrough, Polynomial), return jump functions and
// MOD information toggle independently, and Complete iterates the
// propagation with dead-code elimination — one knob per column of the
// paper's Tables 2 and 3.
package ipcp

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"

	"ipcp/internal/core"
	"ipcp/internal/core/jump"
	"ipcp/internal/ir/irbuild"
	"ipcp/internal/mf/ast"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
	"ipcp/internal/pass"
)

// JumpFunction selects a forward jump-function flavor (§3.1 of the
// paper), in increasing order of construction cost.
type JumpFunction int

// The four forward jump-function flavors.
const (
	// Literal propagates only literal constants written at call sites;
	// constants reach one call-graph edge deep and constant globals are
	// missed entirely.
	Literal JumpFunction = iota

	// Intraprocedural propagates values that intraprocedural constant
	// propagation proves constant at the call site (including globals);
	// still one edge deep.
	Intraprocedural

	// PassThrough additionally forwards formals passed unmodified
	// through the procedure body, so constants flow along arbitrary
	// call-graph paths. The paper's recommendation: equal in power to
	// Polynomial in practice at lower cost.
	PassThrough

	// Polynomial represents each actual as an arbitrary polynomial over
	// the incoming formals (and globals).
	Polynomial
)

// JumpFunctions lists the four flavors from cheapest to most precise.
var JumpFunctions = []JumpFunction{Literal, Intraprocedural, PassThrough, Polynomial}

func (k JumpFunction) String() string { return k.kind().String() }

func (k JumpFunction) kind() jump.Kind {
	switch k {
	case Literal:
		return jump.Literal
	case Intraprocedural:
		return jump.Intraprocedural
	case PassThrough:
		return jump.PassThrough
	default:
		return jump.Polynomial
	}
}

// Config selects one analysis configuration — one column of the paper's
// Tables 2 and 3.
type Config struct {
	// Jump is the forward jump-function flavor.
	Jump JumpFunction

	// ReturnJumpFunctions enables the polynomial return jump functions
	// of §3.2, which model constants a procedure assigns to by-reference
	// parameters and globals (the "ocean" effect).
	ReturnJumpFunctions bool

	// MOD enables interprocedural MOD summaries. When false, value
	// numbering makes worst-case assumptions at every call site
	// (Table 3, column 1).
	MOD bool

	// Complete iterates propagation with dead-code elimination until no
	// dead code is found (Table 3, column 3).
	Complete bool

	// DependenceSolver selects the dependence-driven propagation
	// algorithm of Callahan et al. instead of the paper's simple
	// worklist. Results are identical; only jump functions whose
	// support actually changed are re-evaluated, matching the
	// complexity bound quoted in §3.1.5.
	DependenceSolver bool

	// NoWarmStart makes AnalyzeIncremental solve stage 3 cold from ⊤
	// instead of warm-starting the worklist from the previous
	// snapshot's fixpoint (DESIGN.md, "Demand-driven re-solve"). The
	// Report is identical either way — warm starting only shrinks the
	// solver-effort counters — so the flag exists as an escape hatch
	// and for benchmarking the warm/cold gap. It does not enter the
	// cache key: snapshots written under either setting interoperate.
	NoWarmStart bool

	// Workers bounds the goroutines the per-procedure analysis stages
	// (SSA construction, value numbering and return jump functions) fan
	// out over. 0 means one worker per available CPU; 1 forces the
	// sequential reference path. The Report is identical for every
	// setting — see DESIGN.md, "Concurrency model".
	Workers int

	// Debug makes the pass runner verify the IR after every pass and
	// fail fast naming the pass that corrupted it. Analysis results are
	// unaffected; only the verification cost is added.
	Debug bool
}

func (c Config) internal() core.Config {
	return core.Config{
		Jump:             c.Jump.kind(),
		ReturnJFs:        c.ReturnJumpFunctions,
		MOD:              c.MOD,
		Complete:         c.Complete,
		DependenceSolver: c.DependenceSolver,
		NoWarmStart:      c.NoWarmStart,
		Workers:          c.Workers,
		Debug:            c.Debug,
	}
}

// PassStat is one entry of a Report's pass trace — a single execution
// of a pass, or the summary line of a fixpoint. Every field except the
// wall-clock Nanos is deterministic.
type PassStat = pass.Stat

// DescribePipeline renders the pass composition a configuration would
// execute, one line per element, without running anything.
func DescribePipeline(cfg Config) []string {
	return core.PipelineDescription(cfg.internal())
}

// Program is a parsed, semantically analyzed MiniFortran program, ready
// to be analyzed any number of times under different configurations.
//
// A Program is immutable after Load; Analyze, AnalyzeIntraprocedural,
// Execute, and the other methods each work on a freshly lowered IR, so
// they are safe to call concurrently from multiple goroutines (the
// table generator runs one goroutine per benchmark program).
type Program struct {
	sp *sema.Program

	// xformCtx lazily caches a pass Context over one lowering of the
	// program — TransformedSource reuses its callgraph/modref instead
	// of recomputing them per call. The Context's lazy getters are
	// mutex-guarded, so concurrent TransformedSource calls are safe.
	xformOnce sync.Once
	xformCtx  *pass.Context
}

// transformContext returns the Program's cached transformation Context.
func (p *Program) transformContext() *pass.Context {
	p.xformOnce.Do(func() {
		p.xformCtx = pass.NewContext(irbuild.Build(p.sp))
	})
	return p.xformCtx
}

// Load parses and semantically analyzes MiniFortran source text.
func Load(source string) (*Program, error) {
	file, err := parser.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("ipcp: %w", err)
	}
	sp, err := sema.Analyze(file)
	if err != nil {
		return nil, fmt.Errorf("ipcp: %w", err)
	}
	return &Program{sp: sp}, nil
}

// LoadFile reads and loads a MiniFortran source file.
func LoadFile(path string) (*Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ipcp: %w", err)
	}
	return Load(string(data))
}

// MustLoad is Load that panics on error; intended for tests, examples,
// and embedded sources known to be valid.
func MustLoad(source string) *Program {
	p, err := Load(source)
	if err != nil {
		panic(err)
	}
	return p
}

// Constant is one member of a CONSTANTS(p) set: a formal parameter or
// global variable proven to hold Value whenever Procedure is invoked.
type Constant struct {
	Procedure string
	Name      string
	Global    bool
	Value     int64
}

// ProcedureReport is the per-procedure analysis outcome.
type ProcedureReport struct {
	Name string

	// Constants is CONSTANTS(p), sorted by name.
	Constants []Constant

	// Substituted counts the textual references to interprocedural
	// constants that the transformer replaces with literals — the
	// Metzger–Stroud metric the paper's tables report.
	Substituted int

	// ControlFlowSubstituted is the subset of Substituted sitting in
	// loop bounds, strides, and branch conditions — the references the
	// study's motivation (§1, §4) is about: they feed dependence
	// analysis and parallelization decisions.
	ControlFlowSubstituted int
}

// Report is the outcome of one Analyze run.
type Report struct {
	Config Config

	// Procedures holds per-procedure results, sorted by name.
	Procedures []*ProcedureReport

	// TotalSubstituted is the program-wide substitution count: one cell
	// of the paper's Table 2 or Table 3.
	TotalSubstituted int

	// TotalConstants is the number of entries across all CONSTANTS sets.
	TotalConstants int

	// TotalControlFlowSubstituted counts the substituted references in
	// loop bounds and branch conditions, program-wide.
	TotalControlFlowSubstituted int

	// SolverPasses counts the work items the stage-3 solver visited:
	// procedures under the simple worklist, jump-function instances
	// under DependenceSolver. JFEvaluations counts jump-function
	// evaluations.
	SolverPasses  int
	JFEvaluations int

	// DCERounds counts complete-propagation rounds that removed code.
	DCERounds int

	// JumpFunctionShape tallies the constructed forward jump functions
	// by syntactic form — the data behind §3.1.5's observation that
	// complex polynomial jump functions are rare in practice.
	JumpFunctionShape JumpFunctionShape

	// Passes is the pass-manager trace of the run: one entry per pass
	// execution plus one summary per fixpoint, in completion order.
	// Everything but the Nanos fields is deterministic (the determinism
	// suite compares whole traces with Nanos normalized).
	Passes []PassStat

	// Incremental reports how an AnalyzeIncremental run split the
	// program between reused summaries and re-analysis; nil for plain
	// Analyze runs. It is bookkeeping about the run, not part of the
	// analysis outcome — the incremental≡scratch determinism comparison
	// normalizes it away like Config.Workers and the trace Nanos.
	Incremental *IncrementalStats
}

// PassTrace renders the pass trace as an aligned per-pass table (name,
// runs, rounds, changed, IR delta, wall time).
func (r *Report) PassTrace() string { return pass.FormatStats(r.Passes) }

// JumpFunctionShape classifies constructed forward jump functions.
type JumpFunctionShape struct {
	Bottom      int // ⊥: nothing propagates along this binding
	Constant    int // a known constant
	PassThrough int // exactly one incoming formal or global
	Polynomial  int // a genuine expression over one or more inputs

	// SupportSum accumulates |support| over the pass-through and
	// polynomial forms; SupportSum/(PassThrough+Polynomial) is the
	// paper's "|support| approaches 1" metric.
	SupportSum int
}

// Procedure returns the report for the named procedure (nil if absent).
func (r *Report) Procedure(name string) *ProcedureReport {
	for _, p := range r.Procedures {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// ConstantValue looks up one constant by procedure and name.
func (r *Report) ConstantValue(procedure, name string) (int64, bool) {
	p := r.Procedure(procedure)
	if p == nil {
		return 0, false
	}
	for _, c := range p.Constants {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Analyze runs interprocedural constant propagation under cfg. The
// program can be analyzed repeatedly; every run lowers a fresh IR.
func (p *Program) Analyze(cfg Config) *Report {
	return buildReport(cfg, core.Analyze(p.sp, cfg.internal()))
}

// ErrCanceled reports an analysis abandoned because its context was
// canceled or its deadline expired; errors from AnalyzeContext and the
// other context-aware entry points wrap it (and the context's own
// error, so errors.Is also matches context.Canceled /
// context.DeadlineExceeded).
var ErrCanceled = core.ErrCanceled

// cancelHook adapts a context to the analysis pipeline's cancellation
// hook: polled between passes and inside the interprocedural solver's
// worklist loop, so a canceled analysis stops within one work item.
func cancelHook(ctx context.Context) func() error {
	return func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("ipcp: %w: %w", ErrCanceled, err)
		}
		return nil
	}
}

// AnalyzeContext is Analyze under a context: when ctx is canceled or
// its deadline expires mid-run, the analysis is abandoned (the solver
// polls the context per work item) and an error wrapping ErrCanceled
// and the context's error is returned. The long-running analysis
// server wires per-request deadlines through here.
func (p *Program) AnalyzeContext(ctx context.Context, cfg Config) (*Report, error) {
	icfg := cfg.internal()
	icfg.Cancel = cancelHook(ctx)
	res, err := core.AnalyzeErr(p.sp, icfg)
	if err != nil {
		return nil, err
	}
	return buildReport(cfg, res), nil
}

// buildReport converts a core result to the public form.
func buildReport(cfg Config, res *core.Result) *Report {
	rep := &Report{
		Config:           cfg,
		TotalSubstituted: res.TotalSubstituted,
		TotalConstants:   res.TotalConstants,

		TotalControlFlowSubstituted: res.TotalControlFlow,
		SolverPasses:                res.SolverPasses,
		JFEvaluations:               res.JFEvaluations,
		DCERounds:                   res.DCERounds,
		JumpFunctionShape: JumpFunctionShape{
			Bottom:      res.JFShape.Bottom,
			Constant:    res.JFShape.Constant,
			PassThrough: res.JFShape.PassThrough,
			Polynomial:  res.JFShape.Polynomial,
			SupportSum:  res.JFShape.SupportSum,
		},
		Passes: res.Stats.Passes,
	}
	for name, pr := range res.Procs {
		prep := &ProcedureReport{
			Name:                   name,
			Substituted:            pr.Substituted,
			ControlFlowSubstituted: pr.ControlFlowSubstituted,
		}
		for _, c := range pr.Constants {
			prep.Constants = append(prep.Constants, Constant{
				Procedure: name, Name: c.Name, Global: c.Global, Value: c.Value,
			})
		}
		rep.Procedures = append(rep.Procedures, prep)
	}
	sort.Slice(rep.Procedures, func(i, j int) bool {
		return rep.Procedures[i].Name < rep.Procedures[j].Name
	})
	return rep
}

// IntraproceduralReport is the Table 3 column 4 baseline: constants
// found by purely local propagation (with MOD information at call
// sites), counted with the same reference-substitution metric.
type IntraproceduralReport struct {
	// Substituted maps procedure names to reference counts.
	Substituted map[string]int

	// TotalSubstituted is the program-wide count.
	TotalSubstituted int
}

// AnalyzeIntraprocedural runs the strictly intraprocedural baseline.
func (p *Program) AnalyzeIntraprocedural() *IntraproceduralReport {
	res := core.AnalyzeIntraprocedural(p.sp)
	return &IntraproceduralReport{
		Substituted:      res.Substituted,
		TotalSubstituted: res.TotalSubstituted,
	}
}

// Stats describes a program's shape (the paper's Table 1).
type Stats struct {
	Lines              int // noncomment source lines
	Procedures         int // program units
	CallSites          int // textual call sites (CALL statements + function calls)
	MeanLinesPerProc   float64
	MedianLinesPerProc float64
}

// Stats computes the program's Table 1 characteristics.
func (p *Program) Stats() Stats {
	var s Stats
	var lines []int
	for _, u := range p.sp.Units {
		n := irbuild.UnitLines(u.Unit)
		lines = append(lines, n)
		s.Lines += n
		s.Procedures++
	}
	for node, tgt := range p.sp.CallTargets {
		_ = node
		if tgt.Unit != nil {
			s.CallSites++
		}
	}
	if len(lines) > 0 {
		s.MeanLinesPerProc = float64(s.Lines) / float64(len(lines))
		sort.Ints(lines)
		mid := len(lines) / 2
		if len(lines)%2 == 1 {
			s.MedianLinesPerProc = float64(lines[mid])
		} else {
			s.MedianLinesPerProc = float64(lines[mid-1]+lines[mid]) / 2
		}
	}
	return s
}

// Units returns the names of the program's units in source order.
func (p *Program) Units() []string {
	names := make([]string, len(p.sp.Units))
	for i, u := range p.sp.Units {
		names[i] = u.Name
	}
	return names
}

// Format renders the program back to MiniFortran source.
func (p *Program) Format() string { return ast.Format(p.sp.File) }

// Sema exposes the analyzed program to sibling packages inside this
// module (the benchmark suite and command-line tools); external users
// should not need it.
func (p *Program) Sema() *sema.Program { return p.sp }
