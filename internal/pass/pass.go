// Package pass implements the pass manager the analysis compositions
// run on: a Pass interface over a shared Context, a Pipeline runner, a
// Fixpoint combinator with bounded rounds, and Refresh, which re-runs
// an analysis after a transform replaced the program.
//
// The analysis proper is one pass (core's propagate: the four stages
// of §4.1). Two compositions iterate it against a transform: complete
// propagation (dead-code elimination until a round removes nothing)
// and goal-directed cloning (clone until no clone pays). Each is a
// Fixpoint over Pipeline(Refresh(propagate), transform), and the runner
// supplies uniformly what a hand-written loop would reimplement:
//
//   - instrumentation: every pass execution is timed and its IR delta
//     (procedures, blocks, instructions before/after) recorded into a
//     Trace, exposed through core.Stats and ipcp.Report;
//   - verification: in debug mode the runner calls ir.VerifyProgram
//     after every pass and fails fast naming the offending pass;
//   - fixpoint safety: Fixpoint bounds its rounds, and a body that
//     still reports changes at the cap is an ErrNoFixpoint error (a
//     misbehaving pass cannot hang a complete-propagation run).
//
// Determinism contract: every field of every Stat except the
// wall-clock Nanos is a pure function of the program and the pass
// composition, so traces are bit-identical between sequential and
// parallel runs of the same configuration once Nanos is zeroed. The
// determinism suite asserts exactly that.
package pass

import (
	"errors"
	"fmt"
	"strings"

	"ipcp/internal/ir"
)

// Pass is one unit of analysis or transformation over a Context's
// program.
type Pass interface {
	// Name identifies the pass in traces and error messages.
	Name() string

	// Run executes the pass. changed reports whether the program was
	// transformed (a pass that builds SSA in place has changed the
	// program and says so). A non-nil error aborts the whole pipeline.
	Run(ctx *Context) (changed bool, err error)
}

// ErrNoFixpoint reports a Fixpoint whose body still claimed changes
// when the round cap was reached.
var ErrNoFixpoint = errors.New("fixpoint not reached")

// Pipeline runs a fixed sequence of passes. It implements Pass, so
// pipelines nest and serve as Fixpoint bodies. Its changed result is
// the OR of its members'.
type Pipeline struct {
	name   string
	passes []Pass
}

// NewPipeline builds a named pipeline.
func NewPipeline(name string, passes ...Pass) *Pipeline {
	return &Pipeline{name: name, passes: passes}
}

func (pl *Pipeline) Name() string { return pl.name }
func (pl *Pipeline) composite()   {}

// Run executes the member passes in order, stopping at the first
// error.
func (pl *Pipeline) Run(ctx *Context) (bool, error) {
	changed := false
	for _, p := range pl.passes {
		ch, err := ctx.Exec(p)
		if err != nil {
			return changed, err
		}
		changed = changed || ch
	}
	return changed, nil
}

// Refresh keeps an analysis current for the transform that follows it
// in a pipeline: it re-runs the analysis, through the runner, only when
// the program it last analyzed has been replaced (Context.SetProgram).
// It adds no trace row of its own and always reports no change, so a
// Fixpoint over Pipeline(Refresh, transform) rounds on the transform's
// changed flag alone — an analysis that builds SSA in place always
// reports a change and would never let the fixpoint converge.
type Refresh struct {
	analysis Pass
	seen     *ir.Program
}

// NewRefresh wraps analysis. seen is the program the analysis's current
// result already describes, nil when it has not run yet.
func NewRefresh(analysis Pass, seen *ir.Program) *Refresh {
	return &Refresh{analysis: analysis, seen: seen}
}

func (r *Refresh) Name() string { return r.analysis.Name() }
func (r *Refresh) composite()   {}

// Run executes the analysis if the program is not the one it last saw.
func (r *Refresh) Run(ctx *Context) (bool, error) {
	if ctx.Program() == r.seen {
		return false, nil
	}
	if _, err := ctx.Exec(r.analysis); err != nil {
		return false, err
	}
	r.seen = ctx.Program()
	return false, nil
}

// Fixpoint repeats a body pass until it reports no change, bounded by
// a round cap. A body still reporting changes at the cap either errors
// (the default: a pass claiming changed=true forever is a bug and must
// not hang the driver) or stops silently (budgeted mode, for
// transformations like procedure cloning where the cap is a quality
// budget rather than a convergence bound).
type Fixpoint struct {
	name      string
	body      Pass
	maxRounds int
	errOnCap  bool
	rounds    int
}

// DefaultMaxRounds bounds a Fixpoint whose constructor got a
// non-positive cap.
const DefaultMaxRounds = 10

// NewFixpoint builds a fixpoint that errors with ErrNoFixpoint if the
// body still reports changes after maxRounds rounds (<= 0 means
// DefaultMaxRounds).
func NewFixpoint(name string, body Pass, maxRounds int) *Fixpoint {
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	return &Fixpoint{name: name, body: body, maxRounds: maxRounds, errOnCap: true}
}

// NewBudgetedFixpoint builds a fixpoint that stops silently at the
// round cap: the cap is a budget, not a convergence guarantee.
func NewBudgetedFixpoint(name string, body Pass, maxRounds int) *Fixpoint {
	fp := NewFixpoint(name, body, maxRounds)
	fp.errOnCap = false
	return fp
}

func (f *Fixpoint) Name() string   { return f.name }
func (f *Fixpoint) composite()     {}
func (f *Fixpoint) MaxRounds() int { return f.maxRounds }

// Rounds reports how many rounds of the last Run changed the program —
// the number the paper's "DCE rounds" column counts.
func (f *Fixpoint) Rounds() int { return f.rounds }

// Run iterates the body. Round numbering in the trace is 1-based; a
// round whose body reports no change ends the iteration (and is not
// counted in Rounds).
func (f *Fixpoint) Run(ctx *Context) (bool, error) {
	f.rounds = 0
	changedAny := false
	outer := ctx.round
	defer func() { ctx.round = outer }()

	st := ctx.beginStat(f.name, outer)
	st.Fixpoint = true
	converged := false
	for round := 1; round <= f.maxRounds; round++ {
		ctx.round = round
		changed, err := ctx.Exec(f.body)
		if err != nil {
			return changedAny, err
		}
		if !changed {
			converged = true
			break
		}
		changedAny = true
		f.rounds++
	}
	ctx.round = outer
	st.Rounds = f.rounds
	st.Changed = changedAny
	ctx.endStat(st)
	if !converged && f.errOnCap {
		return changedAny, fmt.Errorf("fixpoint %q: pass %q still reports changes after %d rounds: %w",
			f.name, f.body.Name(), f.maxRounds, ErrNoFixpoint)
	}
	return changedAny, nil
}

// composite marks passes that orchestrate other passes; the runner
// skips per-pass instrumentation and debug verification for them
// (their members get both).
type compositePass interface {
	Pass
	composite()
}

// Describe renders a pass composition as one line: pipelines show
// their members, fixpoints their cap and body, refreshes their
// analysis, leaf passes their name.
func Describe(p Pass) string {
	switch p := p.(type) {
	case *Pipeline:
		names := make([]string, len(p.passes))
		for i, m := range p.passes {
			names[i] = Describe(m)
		}
		return fmt.Sprintf("%s(%s)", p.name, strings.Join(names, " -> "))
	case *Fixpoint:
		return fmt.Sprintf("fixpoint %s[<=%d rounds]{%s}", p.name, p.maxRounds, Describe(p.body))
	case *Refresh:
		return Describe(p.analysis) + " if stale"
	default:
		return p.Name()
	}
}
