package suite

import "ipcp/internal/par"

// Run generates every benchmark program at the given scale and maps fn
// over them on a bounded worker pool, returning the results in the
// suite's canonical (alphabetical) order regardless of which worker
// finished first. workers <= 0 means one worker per CPU; workers == 1
// runs inline, with no goroutines at all.
//
// Generation is pure (each generator writes only its own builder) and
// fn receives a freshly generated Program, so any fn that is itself
// safe for concurrent use — loading, analyzing, rendering a table row —
// can be mapped this way. This is the suite-level half of the parallel
// pipeline: cmd/tables and internal/report fan out per program here,
// and each program fans out per configuration via AnalyzeMatrix.
func Run[T any](scale, workers int, fn func(*Program) T) []T {
	names := Names()
	out := make([]T, len(names))
	par.For(workers, len(names), func(i int) {
		out[i] = fn(Generate(names[i], scale))
	})
	return out
}
