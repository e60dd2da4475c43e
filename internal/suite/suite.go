// Package suite generates the benchmark programs for the reproduction
// of the paper's evaluation (§4.2).
//
// The original study analyzed 12 programs from the SPEC and PERFECT
// club FORTRAN suites (adm, doduc, fpppp, linpackd, matrix300, mdg,
// ocean, qcd, simple, snasa7, spec77, trfd). Those sources are not
// available here, so each program is regenerated as a deterministic
// synthetic MiniFortran program whose *structural traits* — where
// literal constants appear, whether constants are computed locally or
// held in COMMON, how deep pass-through chains run, whether an
// initialization routine seeds globals, and how vulnerable references
// are to worst-case call assumptions — are chosen to reproduce the
// paper's qualitative results program by program:
//
//   - which jump-function flavors tie and which show gaps (Table 2),
//   - where return jump functions matter (ocean ~3×, doduc/mdg small,
//     elsewhere nothing),
//   - how much MOD information is worth (Table 3, columns 1–2),
//   - where complete propagation adds constants (ocean, spec77),
//   - the interprocedural vs intraprocedural gap (Table 3, column 4).
//
// Absolute counts are not calibrated to the paper's (the originals are
// 2k–18k-line production codes); the shape is what the integration
// tests in this package assert and what EXPERIMENTS.md records.
package suite

import (
	"fmt"
	"strings"
)

// Program is one generated benchmark program.
type Program struct {
	// Name matches the paper's program name.
	Name string

	// Source is the MiniFortran text.
	Source string

	// Traits is a one-line description of the structural traits the
	// generator models.
	Traits string
}

// generator builds one named program at a given scale.
type generator struct {
	name   string
	traits string
	build  func(w *writer, scale int)
}

var generators = []generator{
	{"adm", "literal actuals only, by-ref re-passes make references MOD-vulnerable, many local constants", genADM},
	{"doduc", "hundreds of literal actuals used immediately, almost nothing local or global", genDODUC},
	{"fpppp", "mixed literal/computed actuals, pass-through chains, one giant routine", genFPPPP},
	{"linpackd", "constant COMMON blocks read everywhere, computed actuals, no chains", genLINPACKD},
	{"matrix300", "dimension parameters passed down 3-level pass-through chains", genMATRIX300},
	{"mdg", "small; computed globals as actuals, one returned constant", genMDG},
	{"ocean", "initialization routine seeds COMMON; everything reads it (return-JF showcase)", genOCEAN},
	{"qcd", "lattice constants mostly local; literal actuals equal under all flavors", genQCD},
	{"simple", "one skewed routine; nearly every reference dies without MOD", genSIMPLE},
	{"snasa7", "computed local constants as actuals, used before any call", genSNASA7},
	{"spec77", "computed actuals plus a debug-guarded initialization (complete-propagation case)", genSPEC77},
	{"trfd", "tiny integral-transform driver, a handful of constants", genTRFD},
}

// DefaultScale is the generation scale used by Programs and the table
// benchmarks; it puts the substitution counts in the same order of
// magnitude as the paper's.
const DefaultScale = 4

// Names lists the 12 program names in the paper's (alphabetical) order.
func Names() []string {
	names := make([]string, len(generators))
	for i, g := range generators {
		names[i] = g.name
	}
	return names
}

// Programs generates the full 12-program suite at DefaultScale,
// fanning the generators out over the CPUs (see Run).
func Programs() []*Program {
	return Run(DefaultScale, 0, func(p *Program) *Program { return p })
}

// Generate builds one named program at the given scale (≥1). Generation
// is deterministic: the same name and scale always produce identical
// source.
func Generate(name string, scale int) *Program {
	if scale < 1 {
		scale = 1
	}
	for _, g := range generators {
		if g.name == name {
			w := newWriter()
			g.build(w, scale)
			return &Program{Name: g.name, Source: w.String(), Traits: g.traits}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Source writer

// writer accumulates MiniFortran source with light formatting.
type writer struct {
	sb     strings.Builder
	indent int
}

func newWriter() *writer { return &writer{} }

func (w *writer) String() string { return w.sb.String() }

// L writes one indented source line.
func (w *writer) L(format string, args ...any) {
	w.sb.WriteString(strings.Repeat("  ", w.indent))
	fmt.Fprintf(&w.sb, format, args...)
	w.sb.WriteByte('\n')
}

// Program opens the PROGRAM unit.
func (w *writer) Program(name string) {
	w.L("PROGRAM %s", name)
	w.indent++
}

// Subroutine opens a SUBROUTINE unit.
func (w *writer) Subroutine(name string, params ...string) {
	w.L("SUBROUTINE %s(%s)", name, strings.Join(params, ", "))
	w.indent++
}

// End closes the current unit.
func (w *writer) End() {
	w.indent--
	w.L("END")
	w.L("")
}

// Uses emits n distinct statements each containing exactly one textual
// reference to expr, assigning into fresh sink variables named
// <sink>0.. (integer names). Each statement is one countable reference.
func (w *writer) Uses(sink, expr string, n int) {
	for i := 0; i < n; i++ {
		w.L("%s%d = %s + %d", sink, i, expr, i)
	}
}

// FillerDecls declares the variables FillerBody uses; it must be called
// in the declaration section of the unit.
func (w *writer) FillerDecls(prefix string, n int) {
	if n <= 0 {
		return
	}
	names := make([]string, n+1)
	names[0] = prefix + "R"
	for i := 1; i <= n; i++ {
		names[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	w.L("INTEGER %s", joinWrapped(names))
}

// FillerBody emits n lines of analysis-neutral code (arithmetic over a
// runtime input, so nothing folds and nothing is countable). It inflates
// one routine's line count to model the skewed per-procedure
// distributions Table 1 reports for fpppp and simple.
func (w *writer) FillerBody(prefix string, n int) {
	if n <= 0 {
		return
	}
	w.L("READ %sR", prefix)
	prev := prefix + "R"
	for i := 1; i <= n; i++ {
		cur := fmt.Sprintf("%s%d", prefix, i)
		w.L("%s = %s + %d", cur, prev, i)
		prev = cur
	}
}

// joinWrapped joins names with commas, inserting continuations to keep
// declaration lines readable.
func joinWrapped(names []string) string {
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteString(", ")
			if i%12 == 0 {
				sb.WriteString("&\n    ")
			}
		}
		sb.WriteString(n)
	}
	return sb.String()
}

// DeclSinks declares the sink variables Uses writes.
func (w *writer) DeclSinks(sink string, n int) {
	if n == 0 {
		return
	}
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("%s%d", sink, i)
	}
	w.L("INTEGER %s", strings.Join(names, ", "))
}
