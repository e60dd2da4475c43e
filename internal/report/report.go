// Package report regenerates the paper's exhibits — Figure 1 and
// Tables 1–3 — over the synthetic benchmark suite, formatted as aligned
// text tables like the originals.
package report

import (
	"fmt"
	"strings"

	"ipcp"
	"ipcp/internal/par"
	"ipcp/internal/suite"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Note    string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteString("\n")
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&sb, "%-*s", widths[i], cell)
			} else {
				fmt.Fprintf(&sb, "%*s", widths[i], cell)
			}
		}
		sb.WriteString("\n")
	}
	line(t.Headers)
	total := len(t.Headers) - 1
	for _, w := range widths {
		total += w + 1
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		sb.WriteString(t.Note)
		sb.WriteString("\n")
	}
	return sb.String()
}

// Figure1 renders the constant propagation lattice and its meet rules.
func Figure1() string {
	return `Figure 1: the constant propagation lattice.

          T                    meet rules:
       /  |  \                   any ^  T  = any
  ... c1  c2  c3 ...             any ^ _|_ = _|_
       \  |  /                   ci  ^ cj  = ci    if ci = cj
         _|_                     ci  ^ cj  = _|_   if ci /= cj

The lattice is infinite but has bounded depth: a value can be lowered
at most twice (T -> constant -> _|_).
`
}

// Suite generates and loads the 12-program suite once at the default
// scale, one program per suite-runner worker.
func Suite() []*Loaded {
	return suite.Run(suite.DefaultScale, 0, func(p *suite.Program) *Loaded {
		return NewLoaded(p, ipcp.MustLoad(p.Source))
	})
}

// rows fills one table row per program concurrently, one worker per
// program — the analyses are independent and CPU-bound, so table
// generation parallelizes cleanly. Output order stays deterministic
// (rows land at their program's index).
func rows(progs []*Loaded, build func(*Loaded) []string) [][]string {
	out := make([][]string, len(progs))
	par.For(len(progs), len(progs), func(i int) {
		out[i] = build(progs[i])
	})
	return out
}

// Loaded pairs a generated suite program with its analyzed form.
type Loaded struct {
	meta *suite.Program
	prog *ipcp.Program
}

// NewLoaded pairs a generated program with its loaded form.
func NewLoaded(meta *suite.Program, prog *ipcp.Program) *Loaded {
	return &Loaded{meta: meta, prog: prog}
}

// Prog returns the loaded program.
func (l *Loaded) Prog() *ipcp.Program { return l.prog }

// Meta returns the generated suite program.
func (l *Loaded) Meta() *suite.Program { return l.meta }

// Table1 regenerates the program-characteristics table.
func Table1(progs []*Loaded) *Table {
	t := &Table{
		Title:   "Table 1: Characteristics of program test suite.",
		Headers: []string{"Program", "Lines", "Procs", "Call sites", "Mean lines/proc", "Median lines/proc"},
		Note:    "Line counts exclude comments and blank lines.",
	}
	for _, l := range progs {
		st := l.prog.Stats()
		t.Rows = append(t.Rows, []string{
			l.meta.Name,
			fmt.Sprintf("%d", st.Lines),
			fmt.Sprintf("%d", st.Procedures),
			fmt.Sprintf("%d", st.CallSites),
			fmt.Sprintf("%.1f", st.MeanLinesPerProc),
			fmt.Sprintf("%.1f", st.MedianLinesPerProc),
		})
	}
	return t
}

// columns renders one program's table cells from the reports of a
// single configuration matrix, in configuration order: the parse +
// sema + IR lowering are shared and the configurations fan out over
// the worker pool.
func columns(reps []*ipcp.Report) []string {
	cells := make([]string, len(reps))
	for i, rep := range reps {
		cells[i] = fmt.Sprintf("%d", rep.TotalSubstituted)
	}
	return cells
}

// table2Configs are Table 2's columns, in order.
var table2Configs = []ipcp.Config{
	{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true},
	{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true},
	{Jump: ipcp.Intraprocedural, ReturnJumpFunctions: true, MOD: true},
	{Jump: ipcp.Literal, ReturnJumpFunctions: true, MOD: true},
	{Jump: ipcp.Polynomial, MOD: true},
	{Jump: ipcp.PassThrough, MOD: true},
}

// table3Configs are Table 3's interprocedural columns; the fourth, the
// intraprocedural baseline, comes with them from one call.
var table3Configs = []ipcp.Config{
	{Jump: ipcp.Polynomial, ReturnJumpFunctions: true},
	{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true},
	{Jump: ipcp.Polynomial, ReturnJumpFunctions: true, MOD: true, Complete: true},
}

// Table2 regenerates "Constants found through use of jump functions":
// the four flavors with return jump functions, then polynomial and
// pass-through without them.
func Table2(progs []*Loaded) *Table {
	t := &Table{
		Title: "Table 2: Constants found through use of jump functions.",
		Headers: []string{"Program",
			"Polynomial", "Pass-through", "Intraproc", "Literal",
			"Poly (no RJF)", "Pass (no RJF)"},
		Note: "First four columns use return jump functions; last two do not.",
	}
	t.Rows = rows(progs, func(l *Loaded) []string {
		return append([]string{l.meta.Name}, columns(l.prog.AnalyzeMatrix(table2Configs, 0))...)
	})
	return t
}

// Table3 regenerates "Comparison of most precise jump function with
// other propagation techniques".
func Table3(progs []*Loaded) *Table {
	t := &Table{
		Title: "Table 3: Comparison of the most precise jump function with other propagation techniques.",
		Headers: []string{"Program",
			"Poly w/o MOD", "Poly w/ MOD", "Complete", "Intraproc only"},
		Note: "Complete = polynomial propagation iterated with dead-code elimination.",
	}
	t.Rows = rows(progs, func(l *Loaded) []string {
		reps, intra := l.prog.AnalyzeMatrixWithBaseline(table3Configs, 0)
		return append(append([]string{l.meta.Name}, columns(reps)...),
			fmt.Sprintf("%d", intra.TotalSubstituted))
	})
	return t
}

// TableCloning is the extension exhibit: substitution counts before and
// after goal-directed procedure cloning (§1/§5; Metzger & Stroud), over
// the pass-through configuration.
func TableCloning(progs []*Loaded) *Table {
	t := &Table{
		Title:   "Extension: goal-directed procedure cloning (Metzger & Stroud).",
		Headers: []string{"Program", "Before", "After", "Clones", "Rounds"},
		Note:    "Pass-through jump functions, return JFs and MOD enabled; up to 8 versions per procedure.",
	}
	cfg := ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true}
	t.Rows = rows(progs, func(l *Loaded) []string {
		out := l.prog.AnalyzeWithCloning(cfg, ipcp.CloneOptions{MaxVersionsPerProc: 8, MaxRounds: 3})
		return []string{
			l.meta.Name,
			fmt.Sprintf("%d", out.Base.TotalSubstituted),
			fmt.Sprintf("%d", out.Final.TotalSubstituted),
			fmt.Sprintf("%d", out.TotalClones),
			fmt.Sprintf("%d", out.Rounds),
		}
	})
	return t
}

// TableIntegration is the §5 experiment the paper says lacked data:
// Wegman & Zadeck's procedure integration + intraprocedural propagation
// versus the jump-function framework.
func TableIntegration(progs []*Loaded) *Table {
	t := &Table{
		Title: "Extension: procedure integration + intraprocedural propagation (Wegman & Zadeck, §5).",
		Headers: []string{"Program",
			"IPCP (poly)", "Integration", "Plain intra", "Inlined sites"},
		Note: "Integration makes call paths explicit, so it can exceed the jump-function framework (which meets all paths into one CONSTANTS set).",
	}
	t.Rows = rows(progs, func(l *Loaded) []string {
		ipcpCount, wzCount, intraCount, sites := l.prog.IntegrationBaseline()
		return []string{
			l.meta.Name,
			fmt.Sprintf("%d", ipcpCount),
			fmt.Sprintf("%d", wzCount),
			fmt.Sprintf("%d", intraCount),
			fmt.Sprintf("%d", sites),
		}
	})
	return t
}

// All renders Figure 1 and the three tables.
func All() string {
	progs := Suite()
	var sb strings.Builder
	sb.WriteString(Figure1())
	sb.WriteString("\n")
	sb.WriteString(Table1(progs).Render())
	sb.WriteString("\n")
	sb.WriteString(Table2(progs).Render())
	sb.WriteString("\n")
	sb.WriteString(Table3(progs).Render())
	return sb.String()
}
