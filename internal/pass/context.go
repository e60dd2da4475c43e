package pass

import (
	"fmt"
	"sync"
	"time"

	"ipcp/internal/analysis/callgraph"
	"ipcp/internal/analysis/modref"
	"ipcp/internal/ir"
)

// Context is the shared state a pipeline runs over: the current
// program, lazily built callgraph and mod/ref summaries, and the
// accumulated pass trace. One Context serves one pipeline run; the lazy
// caches are additionally safe for concurrent readers
// (TransformedSource shares a Context across goroutines).
type Context struct {
	// Debug makes the runner verify the IR after every non-composite
	// pass and fail fast naming the pass that corrupted it.
	Debug bool

	// Cancel, when non-nil, is polled by the runner before every
	// non-composite pass (and by long-running passes at finer grain —
	// the interprocedural solver checks it per work item). A non-nil
	// return aborts the pipeline with that error; drivers wire a
	// context.Context's deadline in through it. Nil means the run is
	// uncancellable, which costs nothing on the hot path.
	Cancel func() error

	mu   sync.Mutex
	prog *ir.Program
	cg   *callgraph.Graph
	mods *modref.Summary

	trace []Stat
	round int
}

// NewContext wraps a program for pipeline execution.
func NewContext(prog *ir.Program) *Context {
	return &Context{prog: prog}
}

// NewContextWith wraps a program whose callgraph and mod/ref summaries
// were already built (the incremental driver computes both to decide
// summary validity before the pipeline runs). cg and mods must describe
// prog in its current — pre-SSA — form; either may be nil to fall back
// to lazy construction. SetProgram drops them like any other cache.
func NewContextWith(prog *ir.Program, cg *callgraph.Graph, mods *modref.Summary) *Context {
	ctx := NewContext(prog)
	ctx.cg = cg
	ctx.mods = mods
	return ctx
}

// Program returns the current program.
func (ctx *Context) Program() *ir.Program {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	return ctx.prog
}

// SetProgram replaces the program, dropping the callgraph/modref
// caches: a different program identity makes both stale. Passes that
// rebuild the program (DCE, cloning) call this, and a Refresh ahead of
// them re-runs its analysis on the next round.
func (ctx *Context) SetProgram(p *ir.Program) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	ctx.prog = p
	ctx.cg = nil
	ctx.mods = nil
}

// CallGraph returns the callgraph for the current program, building it
// on first use. Note the callgraph must be built before SSA
// construction rewrites call instructions — callers that need both
// take the callgraph first (the propagate pass does).
func (ctx *Context) CallGraph() *callgraph.Graph {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if ctx.cg == nil {
		ctx.cg = callgraph.Build(ctx.prog)
	}
	return ctx.cg
}

// ModRef returns the mod/ref summary for the current program, building
// it (and the callgraph it depends on) on first use.
func (ctx *Context) ModRef() *modref.Summary {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if ctx.mods == nil {
		if ctx.cg == nil {
			ctx.cg = callgraph.Build(ctx.prog)
		}
		ctx.mods = modref.Compute(ctx.prog, ctx.cg)
	}
	return ctx.mods
}

// Exec runs one pass with the full runner protocol: cancellation,
// instrumentation and (in debug mode) IR verification. Composite passes
// (Pipeline, Refresh, Fixpoint) orchestrate their members through Exec
// and are not themselves instrumented; Fixpoint appends its own summary
// Stat.
func (ctx *Context) Exec(p Pass) (bool, error) {
	if err := ctx.Canceled(); err != nil {
		return false, err
	}
	if _, ok := p.(compositePass); ok {
		return p.Run(ctx)
	}
	st := ctx.beginStat(p.Name(), ctx.round)
	changed, err := p.Run(ctx)
	if err != nil {
		return changed, fmt.Errorf("pass %q: %w", p.Name(), err)
	}
	st.Changed = changed
	ctx.endStat(st)
	if ctx.Debug {
		if verr := ir.VerifyProgram(ctx.Program()); verr != nil {
			return changed, fmt.Errorf("pass %q corrupted the IR: %w", p.Name(), verr)
		}
	}
	return changed, nil
}

// Canceled polls the Context's cancellation hook (nil when none is
// installed). Long-running passes call it from their inner loops.
func (ctx *Context) Canceled() error {
	if ctx.Cancel == nil {
		return nil
	}
	return ctx.Cancel()
}

// PassStats returns the accumulated trace in execution order.
func (ctx *Context) PassStats() []Stat {
	out := make([]Stat, len(ctx.trace))
	copy(out, ctx.trace)
	return out
}

// beginStat opens a trace entry: before-counters and start time.
func (ctx *Context) beginStat(name string, round int) *Stat {
	st := &Stat{Pass: name, Round: round}
	st.ProcsBefore, st.BlocksBefore, st.InstrsBefore = countIR(ctx.Program())
	st.start = time.Now()
	return st
}

// endStat closes a trace entry — after-counters, wall time — and
// appends it. Fixpoint summaries close after their member entries, so
// the trace reads in completion order.
func (ctx *Context) endStat(st *Stat) {
	st.Nanos = time.Since(st.start).Nanoseconds()
	st.start = time.Time{} // only Nanos carries timing; keep Stat DeepEqual-comparable
	st.Procs, st.Blocks, st.Instrs = countIR(ctx.Program())
	ctx.trace = append(ctx.trace, *st)
}
