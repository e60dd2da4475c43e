package pass

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ipcp/internal/ir"
	"ipcp/internal/ir/irbuild"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
)

// fakePass is a configurable leaf pass for exercising the runner.
type fakePass struct {
	name string
	run  func(ctx *Context) (bool, error)
}

func (p *fakePass) Name() string { return p.name }
func (p *fakePass) Run(ctx *Context) (bool, error) {
	if p.run == nil {
		return false, nil
	}
	return p.run(ctx)
}

func buildIR(t *testing.T, src string) *ir.Program {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sema.Analyze(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	return irbuild.Build(sp)
}

const twoProcSrc = `
PROGRAM MAIN
  INTEGER I
  I = 1
  CALL SHOW(I)
END

SUBROUTINE SHOW(N)
  INTEGER N
  WRITE(*,*) N
END
`

func TestFixpointConverges(t *testing.T) {
	runs := 0
	body := &fakePass{name: "body", run: func(*Context) (bool, error) {
		runs++
		return runs <= 2, nil // rounds 1 and 2 change, round 3 converges
	}}
	fix := NewFixpoint("fx", body, 0)
	ctx := NewContext(nil)
	if _, err := ctx.Exec(fix); err != nil {
		t.Fatalf("converging fixpoint errored: %v", err)
	}
	if fix.Rounds() != 2 {
		t.Fatalf("Rounds() = %d, want 2", fix.Rounds())
	}
	if fix.MaxRounds() != DefaultMaxRounds {
		t.Fatalf("MaxRounds() = %d, want DefaultMaxRounds", fix.MaxRounds())
	}

	trace := ctx.PassStats()
	if len(trace) != 4 {
		t.Fatalf("trace has %d entries, want 3 body runs + 1 summary: %+v", len(trace), trace)
	}
	for i := 0; i < 3; i++ {
		st := trace[i]
		if st.Pass != "body" || st.Round != i+1 {
			t.Fatalf("trace[%d] = %+v, want body round %d", i, st, i+1)
		}
		if wantChanged := i < 2; st.Changed != wantChanged {
			t.Fatalf("trace[%d].Changed = %v, want %v", i, st.Changed, wantChanged)
		}
	}
	sum := trace[3]
	if !sum.Fixpoint || sum.Pass != "fx" || sum.Rounds != 2 || !sum.Changed {
		t.Fatalf("fixpoint summary = %+v, want Fixpoint fx with 2 changed rounds", sum)
	}
	if !sum.start.IsZero() {
		t.Fatal("Stat retained a live start time; traces must be DeepEqual-comparable")
	}
}

func TestFixpointCapError(t *testing.T) {
	body := &fakePass{name: "always", run: func(*Context) (bool, error) { return true, nil }}
	fix := NewFixpoint("cap", body, 3)
	_, err := NewContext(nil).Exec(fix)
	if !errors.Is(err, ErrNoFixpoint) {
		t.Fatalf("err = %v, want ErrNoFixpoint", err)
	}
	if !strings.Contains(err.Error(), `"always"`) || !strings.Contains(err.Error(), "3 rounds") {
		t.Fatalf("error does not name the misbehaving pass and cap: %v", err)
	}
	if fix.Rounds() != 3 {
		t.Fatalf("Rounds() = %d, want 3 (every round changed)", fix.Rounds())
	}
}

func TestBudgetedFixpointStopsSilently(t *testing.T) {
	body := &fakePass{name: "always", run: func(*Context) (bool, error) { return true, nil }}
	fix := NewBudgetedFixpoint("budget", body, 3)
	if _, err := NewContext(nil).Exec(fix); err != nil {
		t.Fatalf("budgeted fixpoint errored at its cap: %v", err)
	}
	if fix.Rounds() != 3 {
		t.Fatalf("Rounds() = %d, want 3", fix.Rounds())
	}
}

// TestRefreshRunsOnlyWhenStale runs a Fixpoint over Pipeline(Refresh,
// transform) the way complete propagation and cloning do: the analysis
// runs in the first round and again only after a round replaced the
// program, the Refresh adds no row of its own, and the rounds end on
// the transform's changed flag although the analysis always reports a
// change.
func TestRefreshRunsOnlyWhenStale(t *testing.T) {
	analysis := &fakePass{name: "analyze", run: func(*Context) (bool, error) { return true, nil }}
	rebuilds := 0
	transform := &fakePass{name: "rebuild", run: func(ctx *Context) (bool, error) {
		if rebuilds == 2 {
			return false, nil
		}
		rebuilds++
		ctx.SetProgram(buildIR(t, twoProcSrc))
		return true, nil
	}}
	refresh := NewRefresh(analysis, nil)
	fix := NewFixpoint("fx", NewPipeline("round", refresh, transform), 0)
	ctx := NewContext(buildIR(t, twoProcSrc))
	if _, err := ctx.Exec(fix); err != nil {
		t.Fatal(err)
	}
	if fix.Rounds() != 2 {
		t.Fatalf("Rounds() = %d, want 2", fix.Rounds())
	}
	// The program is the one the analysis saw last: no further run.
	if _, err := ctx.Exec(refresh); err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, st := range ctx.PassStats() {
		got = append(got, fmt.Sprintf("%s/%d", st.Pass, st.Round))
	}
	want := "analyze/1 rebuild/1 analyze/2 rebuild/2 analyze/3 rebuild/3 fx/0"
	if strings.Join(got, " ") != want {
		t.Fatalf("trace %v, want %s", got, want)
	}

	// Seeded with the current program, a Refresh does not run at all.
	ctx = NewContext(buildIR(t, twoProcSrc))
	if _, err := ctx.Exec(NewRefresh(analysis, ctx.Program())); err != nil || len(ctx.PassStats()) != 0 {
		t.Fatalf("refresh of a current analysis: err %v, trace %+v", err, ctx.PassStats())
	}
}

func TestSetProgramDropsCaches(t *testing.T) {
	prog := buildIR(t, twoProcSrc)
	ctx := NewContext(prog)
	g1 := ctx.CallGraph()

	ctx.SetProgram(prog) // same pointer: identity change is what matters
	if g2 := ctx.CallGraph(); g2 == g1 {
		t.Fatal("callgraph cache survived SetProgram")
	}
}

// TestDebugCatchesCorruptingPass is the seeded-fault proof of the debug
// verifier: a pass that breaks an IR invariant must abort the pipeline
// with an error naming that pass.
func TestDebugCatchesCorruptingPass(t *testing.T) {
	corrupt := &fakePass{name: "corrupt", run: func(ctx *Context) (bool, error) {
		ctx.Program().Procs[0].Entry = nil
		return true, nil
	}}

	// Without debug mode the corruption goes unnoticed by the runner.
	if _, err := NewContext(buildIR(t, twoProcSrc)).Exec(NewPipeline("p", corrupt)); err != nil {
		t.Fatalf("non-debug run errored: %v", err)
	}

	ctx := NewContext(buildIR(t, twoProcSrc))
	ctx.Debug = true
	_, err := ctx.Exec(NewPipeline("p", corrupt))
	if err == nil {
		t.Fatal("debug run did not catch the corrupting pass")
	}
	if !strings.Contains(err.Error(), `pass "corrupt" corrupted the IR`) {
		t.Fatalf("error does not name the corrupting pass: %v", err)
	}

	// And a well-behaved pass sails through with verification on.
	ctx = NewContext(buildIR(t, twoProcSrc))
	ctx.Debug = true
	honest := &fakePass{name: "honest", run: func(*Context) (bool, error) { return true, nil }}
	if _, err := ctx.Exec(NewPipeline("p", honest)); err != nil {
		t.Fatalf("debug verification rejected a well-formed program: %v", err)
	}
}

func TestDescribe(t *testing.T) {
	round := NewPipeline("round", NewRefresh(&fakePass{name: "prop"}, nil), &fakePass{name: "dce"})
	root := NewPipeline("all", &fakePass{name: "prop"}, NewFixpoint("loop", round, 4))
	want := "all(prop -> fixpoint loop[<=4 rounds]{round(prop if stale -> dce)})"
	if got := Describe(root); got != want {
		t.Fatalf("Describe = %q, want %q", got, want)
	}
}

func TestFormatStats(t *testing.T) {
	stats := []Stat{
		{Pass: "propagate", Round: 1, Changed: true, InstrsBefore: 10, Instrs: 14, BlocksBefore: 3, Blocks: 3, Nanos: 1500},
		{Pass: "dce", Round: 1, Changed: true, InstrsBefore: 14, Instrs: 9, BlocksBefore: 3, Blocks: 2, Nanos: 900},
		{Pass: "propagate", Round: 2, InstrsBefore: 9, Instrs: 9, BlocksBefore: 2, Blocks: 2, Nanos: 1100},
		{Pass: "complete", Fixpoint: true, Rounds: 1, Changed: true, InstrsBefore: 10, Instrs: 9, BlocksBefore: 3, Blocks: 2, Nanos: 4000},
	}
	out := FormatStats(stats)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header, rule, three aggregated rows
		t.Fatalf("table has %d lines, want 5:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "pass") || !strings.Contains(lines[0], "Δinstrs") {
		t.Fatalf("missing header: %q", lines[0])
	}
	var propRow string
	for _, l := range lines {
		if strings.HasPrefix(l, "propagate") {
			propRow = l
		}
	}
	if propRow == "" {
		t.Fatalf("no propagate row:\n%s", out)
	}
	fields := strings.Fields(propRow)
	// pass runs rounds changed Δinstrs Δblocks time
	if fields[1] != "2" || fields[3] != "1" || fields[4] != "+4" {
		t.Fatalf("propagate row %q: want 2 runs, 1 changed, +4 instrs", propRow)
	}
}
