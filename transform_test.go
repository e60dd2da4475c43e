package ipcp_test

import (
	"fmt"
	"strings"
	"testing"

	"ipcp"
	"ipcp/internal/mf/parser"
)

func TestTransformedSourceSubstitutes(t *testing.T) {
	prog := ipcp.MustLoad(`
PROGRAM MAIN
  COMMON /C/ NG
  INTEGER NG
  NG = 12
  CALL WORK(100)
END
SUBROUTINE WORK(N)
  COMMON /C/ NG
  INTEGER NG, N, I, S
  S = 0
  DO I = 1, N
    S = S + NG
  ENDDO
  WRITE(*,*) S, N
  RETURN
END
`)
	rep := prog.Analyze(ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true})
	src, n, err := prog.TransformedSource(rep)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("no substitutions in:\n%s", src)
	}
	// The loop bound and the global read become literals inside WORK.
	workPart := src[strings.Index(src, "SUBROUTINE WORK"):]
	if !strings.Contains(workPart, "DO I = 1, 100") {
		t.Errorf("loop bound not substituted:\n%s", workPart)
	}
	if !strings.Contains(workPart, "S+12") {
		t.Errorf("global read not substituted:\n%s", workPart)
	}
	// The transformed program is still valid and analyzes.
	if _, err := ipcp.Load(src); err != nil {
		t.Fatalf("transformed source invalid: %v\n%s", err, src)
	}
}

func TestTransformedSourceSkipsModified(t *testing.T) {
	prog := ipcp.MustLoad(`
PROGRAM MAIN
  CALL WORK(5)
END
SUBROUTINE WORK(N)
  INTEGER N, X
  X = N
  N = N + 1
  X = N
  RETURN
END
`)
	rep := prog.Analyze(ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true})
	// N is constant 5 on entry, but WORK reassigns it: a blanket
	// textual substitution would corrupt `X = N` after the increment,
	// so the conservative transformer leaves every reference alone.
	src, n, err := prog.TransformedSource(rep)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("substituted %d references of a modified parameter:\n%s", n, src)
	}
}

func TestTransformedSourceNeverBreaksPrograms(t *testing.T) {
	// The transformed source of every suite program must reload and
	// report at least as many *local* constants as before (substituted
	// literals can only help the intraprocedural baseline).
	prog := ipcp.MustLoad(`
PROGRAM MAIN
  COMMON /K/ NK
  INTEGER NK
  NK = 3
  CALL A(7)
  CALL B
END
SUBROUTINE A(N)
  INTEGER N, W
  W = N * 2
  RETURN
END
SUBROUTINE B
  COMMON /K/ NK
  INTEGER NK, W
  W = NK + 1
  RETURN
END
`)
	rep := prog.Analyze(ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true})
	src, n, err := prog.TransformedSource(rep)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("expected ≥2 substitutions, got %d:\n%s", n, src)
	}
	after, err := ipcp.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	beforeIntra := prog.AnalyzeIntraprocedural().TotalSubstituted
	afterIntra := after.AnalyzeIntraprocedural().TotalSubstituted
	if afterIntra > beforeIntra {
		// Substituting literals removes variable references, so the
		// local count usually shrinks or stays; it must never make the
		// program unanalyzable. (No assertion on direction; just sanity.)
		t.Logf("local baseline moved %d -> %d", beforeIntra, afterIntra)
	}
}

// TestNestingAtTheBound: a program that nests every construct the
// parser bounds exactly parser.MaxNesting levels deep loads, analyzes
// and round-trips through TransformedSource, with the constant
// substituted at the bottom of each nest; one level deeper it is a
// syntax error.
func TestNestingAtTheBound(t *testing.T) {
	n := parser.MaxNesting
	var body strings.Builder
	line := func(s string) { body.WriteString("  " + s + "\n") }
	line("X = " + strings.Repeat("(", n) + "N" + strings.Repeat(")", n))
	line("X = " + strings.Repeat("A(", n) + "N" + strings.Repeat(")", n))
	line("X = N" + strings.Repeat("+N", n))
	line("X = N" + strings.Repeat("**N", n))
	line("L = " + strings.Repeat(".NOT. ", n) + "N .EQ. 1")
	body.WriteString(strings.Repeat("  IF (N .EQ. 1) THEN\n", n) + "  X = N\n" + strings.Repeat("  ENDIF\n", n))
	body.WriteString(strings.Repeat("  DO I = 1, N\n", n) + "  X = N\n" + strings.Repeat("  ENDDO\n", n))
	line("IF (N .EQ. 0) THEN")
	for k := 1; k < n; k++ {
		line(fmt.Sprintf("ELSE IF (X .EQ. %d) THEN", k))
		line("X = N")
	}
	line("ENDIF")
	src := fmt.Sprintf(`PROGRAM MAIN
  CALL WORK(1)
END
SUBROUTINE WORK(N)
  INTEGER N, X, I, A(2)
  LOGICAL L
  A(1) = 1
  A(2) = 1
%s  WRITE(*,*) X, L
END
`, body.String())

	prog, err := ipcp.Load(src)
	if err != nil {
		t.Fatalf("program nested at the bound does not load: %v", err)
	}
	rep := prog.Analyze(ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true})
	if c := rep.Procedure("WORK").Constants; len(c) != 1 || c[0].Name != "N" || c[0].Value != 1 {
		t.Fatalf("WORK constants = %+v, want N = 1", c)
	}
	out, subs, err := prog.TransformedSource(rep)
	if err != nil {
		t.Fatalf("TransformedSource at the bound: %v", err)
	}
	if subs < 5*n {
		t.Fatalf("substituted %d references, want at least %d", subs, 5*n)
	}
	if _, err := ipcp.Load(out); err != nil {
		t.Fatalf("transformed source does not reload: %v", err)
	}

	deeper := strings.Replace(src, "X = N"+strings.Repeat("+N", n), "X = N"+strings.Repeat("+N", n+1), 1)
	if _, err := ipcp.Load(deeper); err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
		t.Fatalf("one level past the bound: err = %v, want a nesting error", err)
	}
}
