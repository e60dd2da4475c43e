package pass

import (
	"fmt"
	"strings"
	"time"

	"ipcp/internal/ir"
)

// Stat is one trace entry: a single step, or the summary line of a
// loop. Every field except Nanos is a pure function of the program and
// the configuration — the determinism suite compares whole traces with
// Nanos normalized to zero.
type Stat struct {
	// Pass is the step (or loop) name.
	Pass string

	// Round is the 1-based loop round this step ran in, 0 for steps
	// outside any loop and for a loop's summary row.
	Round int

	// Changed reports whether the step transformed the program.
	Changed bool

	// Fixpoint marks the summary entry of a whole loop; Rounds is then
	// the number of rounds whose transform changed the program.
	Fixpoint bool
	Rounds   int

	// IR size before and after the step.
	ProcsBefore, BlocksBefore, InstrsBefore int
	Procs, Blocks, Instrs                   int

	// Nanos is wall-clock time — the one nondeterministic field,
	// excluded from determinism comparisons.
	Nanos int64
}

// Size is a program's IR size as a trace row records it. Instrs counts
// the phis a seeded procedure's skipped SSA conversion would have
// inserted (Proc.ElidedPhis), so seeded and scratch rows agree.
type Size struct {
	Procs, Blocks, Instrs int
}

// SizeOf sizes a program (the zero Size for nil).
func SizeOf(p *ir.Program) Size {
	var s Size
	if p == nil {
		return s
	}
	s.Procs = len(p.Procs)
	for _, proc := range p.Procs {
		s.Blocks += len(proc.Blocks)
		s.Instrs += proc.ElidedPhis
		for _, b := range proc.Blocks {
			s.Instrs += len(b.Instrs)
		}
	}
	return s
}

// FormatStats renders a trace as an aligned per-step table: one row
// per step name in first-execution order, aggregating runs, changed
// rounds, IR deltas, and wall time.
func FormatStats(stats []Stat) string {
	type agg struct {
		name    string
		runs    int
		rounds  int
		changed int
		dInstrs int
		dBlocks int
		nanos   int64
	}
	var order []*agg
	byName := make(map[string]*agg)
	for _, st := range stats {
		a := byName[st.Pass]
		if a == nil {
			a = &agg{name: st.Pass}
			byName[st.Pass] = a
			order = append(order, a)
		}
		a.runs++
		a.rounds += st.Rounds
		if st.Changed {
			a.changed++
		}
		// A loop's summary row spans its steps' rows, so columns
		// are per-row facts, not a summable breakdown.
		a.dInstrs += st.Instrs - st.InstrsBefore
		a.dBlocks += st.Blocks - st.BlocksBefore
		a.nanos += st.Nanos
	}

	headers := []string{"pass", "runs", "rounds", "changed", "Δinstrs", "Δblocks", "time"}
	rows := make([][]string, 0, len(order))
	for _, a := range order {
		rows = append(rows, []string{
			a.name,
			fmt.Sprintf("%d", a.runs),
			fmt.Sprintf("%d", a.rounds),
			fmt.Sprintf("%d", a.changed),
			fmt.Sprintf("%+d", a.dInstrs),
			fmt.Sprintf("%+d", a.dBlocks),
			time.Duration(a.nanos).Round(time.Microsecond).String(),
		})
	}

	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range rows {
		for i, cell := range row {
			if n := len([]rune(cell)); n > widths[i] {
				widths[i] = n
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			pad := widths[i] - len([]rune(cell))
			if i == 0 {
				sb.WriteString(cell)
				sb.WriteString(strings.Repeat(" ", pad))
			} else {
				sb.WriteString(strings.Repeat(" ", pad))
				sb.WriteString(cell)
			}
		}
		sb.WriteString("\n")
	}
	line(headers)
	total := len(headers) - 1
	for _, w := range widths {
		total += w + 1
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteString("\n")
	for _, row := range rows {
		line(row)
	}
	return sb.String()
}
