// Package pass records the trace of an analysis run: one Stat row per
// step (a propagation, a dead-code round, a cloning round) and one
// summary row per loop, each with its IR size before and after and its
// wall time.
//
// The analysis proper is one step (core's propagate: the four stages
// of §4.1). Two plain loops iterate it against a transform: complete
// propagation in internal/core (dead-code elimination until a round
// removes nothing) and goal-directed cloning in internal/core/clone
// (clone until no clone pays). Both drive a Recorder, which supplies
// what every step needs the same way:
//
//   - instrumentation: each step is timed and its IR delta
//     (procedures, blocks, instructions before/after) recorded into
//     the trace, exposed through core.Stats and ipcp.Report;
//   - cancellation: the Cancel hook is polled before every step;
//   - verification: in debug mode the recorder calls ir.VerifyProgram
//     after every step and fails fast naming the offending step.
//
// Determinism contract: every field of every Stat except the
// wall-clock Nanos is a pure function of the program and the
// configuration, so traces are bit-identical between sequential and
// parallel runs of the same configuration once Nanos is zeroed. The
// determinism suite asserts exactly that.
package pass

import (
	"fmt"
	"time"

	"ipcp/internal/ir"
)

// Recorder accumulates the trace of one run. A step is a Begin/End
// pair around its work: Begin polls Cancel and records the size of the
// program the step starts from, End sizes the program the step leaves,
// takes the wall time and appends the row.
type Recorder struct {
	// Debug makes End verify the program every step leaves and fail
	// naming the step that corrupted it.
	Debug bool

	// Cancel, when non-nil, is polled by Begin (and by long-running
	// steps at finer grain: the stage-3 solver checks it per work
	// item). Its non-nil return aborts the run; drivers wire a
	// context.Context's deadline in through it.
	Cancel func() error

	stats []Stat
}

// Row is a step in progress.
type Row struct {
	Stat
	start time.Time
}

// Begin polls Cancel, then opens the row of step name in round (0
// outside any loop) over a program of size before.
func (r *Recorder) Begin(name string, round int, before Size) (*Row, error) {
	if err := r.Canceled(); err != nil {
		return nil, err
	}
	row := &Row{Stat: Stat{Pass: name, Round: round}, start: time.Now()}
	row.ProcsBefore, row.BlocksBefore, row.InstrsBefore = before.Procs, before.Blocks, before.Instrs
	return row, nil
}

// End closes row over prog, the program the step left, and appends it
// to the trace. Under Debug it then verifies prog, except after a
// loop's summary row: each step inside the loop was verified already.
func (r *Recorder) End(row *Row, prog *ir.Program, changed bool) error {
	row.Nanos = time.Since(row.start).Nanoseconds()
	row.Changed = changed
	after := SizeOf(prog)
	row.Procs, row.Blocks, row.Instrs = after.Procs, after.Blocks, after.Instrs
	r.stats = append(r.stats, row.Stat)
	if r.Debug && !row.Fixpoint {
		if err := ir.VerifyProgram(prog); err != nil {
			return fmt.Errorf("pass %q corrupted the IR: %w", row.Pass, err)
		}
	}
	return nil
}

// Canceled polls Cancel (nil when no hook is installed).
func (r *Recorder) Canceled() error {
	if r.Cancel == nil {
		return nil
	}
	return r.Cancel()
}

// Stats returns the trace in completion order: a loop's summary row
// follows the rows of its steps.
func (r *Recorder) Stats() []Stat { return r.stats }
