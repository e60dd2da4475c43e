package ipcp_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ipcp"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
	"ipcp/internal/mf/token"
)

const apiTestSrc = `
PROGRAM MAIN
  INTEGER N
  N = 10
  CALL WORK(N, 5)
END
SUBROUTINE WORK(A, B)
  INTEGER A, B, X
  X = A + B
  CALL INNER(A)
  RETURN
END
SUBROUTINE INNER(V)
  INTEGER V, W
  W = V * 2
  RETURN
END
`

func TestLoadAndAnalyze(t *testing.T) {
	prog, err := ipcp.Load(apiTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	rep := prog.Analyze(ipcp.Config{
		Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true,
	})
	if v, ok := rep.ConstantValue("WORK", "A"); !ok || v != 10 {
		t.Errorf("WORK.A = %d,%v want 10", v, ok)
	}
	if v, ok := rep.ConstantValue("WORK", "B"); !ok || v != 5 {
		t.Errorf("WORK.B = %d,%v want 5", v, ok)
	}
	if v, ok := rep.ConstantValue("INNER", "V"); !ok || v != 10 {
		t.Errorf("INNER.V = %d,%v want 10 (pass-through)", v, ok)
	}
	if rep.TotalConstants != 3 {
		t.Errorf("TotalConstants = %d, want 3", rep.TotalConstants)
	}
	if rep.Procedure("NOSUCH") != nil {
		t.Error("Procedure of unknown name should be nil")
	}
	if _, ok := rep.ConstantValue("NOSUCH", "A"); ok {
		t.Error("ConstantValue on unknown procedure should fail")
	}
}

// TestFrontEndErrorBound pins the bound on each front-end phase's
// error list: 20000 bad lines give token.MaxErrors errors and one "too
// many errors" entry, so the message stays under 4 KB whatever the
// size of the source.
func TestFrontEndErrorBound(t *testing.T) {
	for _, tc := range []struct{ line, first string }{
		{"X = 1 #", "illegal character"},
		{"X = = 1", "expected expression"},
		{"CALL NOPE", "undefined subroutine"},
	} {
		src := "PROGRAM P\n" + strings.Repeat("  "+tc.line+"\n", 20000) + "END\n"
		_, err := ipcp.Load(src)
		var msgs []string
		var pl parser.ErrorList
		var sl sema.ErrorList
		switch {
		case errors.As(err, &pl):
			for _, e := range pl {
				msgs = append(msgs, e.Msg)
			}
		case errors.As(err, &sl):
			for _, e := range sl {
				msgs = append(msgs, e.Msg)
			}
		default:
			t.Fatalf("%q: err = %v, want an error list", tc.line, err)
		}
		if len(msgs) != token.MaxErrors+1 || !strings.Contains(msgs[0], tc.first) || msgs[token.MaxErrors] != token.TooManyErrors {
			t.Errorf("%q: %d errors %q, want %d starting with %q and ending in %q",
				tc.line, len(msgs), msgs, token.MaxErrors+1, tc.first, token.TooManyErrors)
		}
		if n := len(err.Error()); n >= 4096 {
			t.Errorf("%q: a %d-byte error message for a %d-byte source", tc.line, n, len(src))
		}
	}
}

// TestHugeExponentFolds pins the cost of folding a**b: 1**(2^63-1) in
// a PARAMETER (folded by the front end) and in an assignment (folded
// by value numbering and SCCP) loads and analyzes within 100 ms. A fold
// that multiplied b times would run for centuries on either.
func TestHugeExponentFolds(t *testing.T) {
	const src = `
PROGRAM MAIN
  INTEGER X
  PARAMETER (N = 1**9223372036854775807)
  X = 1**9223372036854775807
  CALL WORK(N, X)
END
SUBROUTINE WORK(A, B)
  INTEGER A, B
  WRITE(*,*) A, B
END
`
	start := time.Now()
	prog, err := ipcp.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	rep := prog.Analyze(ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true})
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("load and analyze took %v, want under 100ms", d)
	}
	if c := rep.Procedure("WORK").Constants; len(c) != 2 || c[0].Value != 1 || c[1].Value != 1 {
		t.Errorf("WORK constants = %+v, want A = 1 and B = 1", c)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := ipcp.Load("PROGRAM\n"); err == nil {
		t.Error("syntax error should surface")
	}
	if _, err := ipcp.Load("PROGRAM P\n  IMPLICIT NONE\n  X = 1\nEND\n"); err == nil {
		t.Error("semantic error should surface")
	}
	if _, err := ipcp.LoadFile("/nonexistent/path.f"); err == nil {
		t.Error("missing file should surface")
	}
}

func TestLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.f")
	if err := os.WriteFile(path, []byte(apiTestSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := ipcp.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Units()) != 3 {
		t.Errorf("units: %v", prog.Units())
	}
}

func TestMustLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLoad should panic on bad source")
		}
	}()
	ipcp.MustLoad("not fortran at all")
}

func TestStats(t *testing.T) {
	prog := ipcp.MustLoad(apiTestSrc)
	st := prog.Stats()
	if st.Procedures != 3 {
		t.Errorf("procedures = %d", st.Procedures)
	}
	if st.CallSites != 2 {
		t.Errorf("call sites = %d", st.CallSites)
	}
	if st.Lines <= 0 || st.MeanLinesPerProc <= 0 || st.MedianLinesPerProc <= 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestFormatRoundTrips(t *testing.T) {
	prog := ipcp.MustLoad(apiTestSrc)
	printed := prog.Format()
	if !strings.Contains(printed, "SUBROUTINE WORK(A, B)") {
		t.Errorf("format lost structure:\n%s", printed)
	}
	if _, err := ipcp.Load(printed); err != nil {
		t.Errorf("formatted source does not reload: %v", err)
	}
}

func TestIntraproceduralBaseline(t *testing.T) {
	prog := ipcp.MustLoad(`
PROGRAM MAIN
  INTEGER K, A, B
  K = 7
  A = K + 1
  B = K * 2
  CALL S(1)
END
SUBROUTINE S(N)
  INTEGER N, X
  X = N
  RETURN
END
`)
	intra := prog.AnalyzeIntraprocedural()
	// K is referenced twice; N's reference is interprocedural only.
	if intra.Substituted["MAIN"] != 2 {
		t.Errorf("MAIN local substitutions = %d, want 2", intra.Substituted["MAIN"])
	}
	if intra.Substituted["S"] != 0 {
		t.Errorf("S local substitutions = %d, want 0", intra.Substituted["S"])
	}
	inter := prog.Analyze(ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true})
	if inter.Procedure("S").Substituted != 1 {
		t.Errorf("S interprocedural substitutions = %d, want 1", inter.Procedure("S").Substituted)
	}
}

func TestJumpFunctionStrings(t *testing.T) {
	want := map[ipcp.JumpFunction]string{
		ipcp.Literal:         "literal",
		ipcp.Intraprocedural: "intraprocedural",
		ipcp.PassThrough:     "pass-through",
		ipcp.Polynomial:      "polynomial",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// TestControlFlowClassification checks the §4 motivation metric: which
// substituted references sit in loop bounds and branch conditions.
func TestControlFlowClassification(t *testing.T) {
	prog := ipcp.MustLoad(`
PROGRAM MAIN
  CALL WORK(50, 3)
END
SUBROUTINE WORK(N, MODE)
  INTEGER N, MODE, I, S, A, B
  S = 0
  DO I = 1, N
    S = S + I
  ENDDO
  IF (MODE .EQ. 3) THEN
    S = 0
  ENDIF
  A = N + 1
  B = MODE * 2
  RETURN
END
`)
	rep := prog.Analyze(ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true})
	w := rep.Procedure("WORK")
	// Four references total: N in the DO bound, MODE in the IF, and the
	// two plain arithmetic uses.
	if w.Substituted != 4 {
		t.Fatalf("substituted = %d, want 4", w.Substituted)
	}
	if w.ControlFlowSubstituted != 2 {
		t.Fatalf("control-flow substituted = %d, want 2 (DO bound + IF condition)", w.ControlFlowSubstituted)
	}
	if rep.TotalControlFlowSubstituted != 2 {
		t.Fatalf("total control-flow = %d", rep.TotalControlFlowSubstituted)
	}
}

// TestConcurrentAnalyze guards the documented immutability contract: one
// Program analyzed from many goroutines must produce identical results
// with no data races (run under -race in CI).
func TestConcurrentAnalyze(t *testing.T) {
	prog := ipcp.MustLoad(apiTestSrc)
	want := prog.Analyze(ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true})
	const workers = 8
	results := make([]*ipcp.Report, workers)
	done := make(chan int)
	for w := 0; w < workers; w++ {
		go func(w int) {
			cfg := ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true}
			if w%2 == 1 {
				cfg.Complete = true
			}
			results[w] = prog.Analyze(cfg)
			done <- w
		}(w)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	for w, r := range results {
		if r.TotalSubstituted != want.TotalSubstituted || r.TotalConstants != want.TotalConstants {
			t.Errorf("worker %d: %d/%d vs %d/%d",
				w, r.TotalSubstituted, r.TotalConstants, want.TotalSubstituted, want.TotalConstants)
		}
	}
}
