package ipcp_test

import (
	"reflect"
	"strings"
	"testing"

	"ipcp"
)

// twoRoundSrc needs two rounds of complete propagation to finish:
// round one folds A's branch with the seeded K=1, which straightens X=2
// and makes B's argument constant; round two then folds B's branch. A
// third round finds nothing and converges the fixpoint.
const twoRoundSrc = `
PROGRAM MAIN
  INTEGER I
  I = 1
  CALL A(I)
END

SUBROUTINE A(K)
  INTEGER K, X
  IF (K .EQ. 1) THEN
    X = 2
  ELSE
    X = 3
  ENDIF
  CALL B(X)
END

SUBROUTINE B(M)
  INTEGER M, Y
  IF (M .EQ. 2) THEN
    Y = 1
  ELSE
    Y = 9
  ENDIF
  WRITE(*,*) Y
END
`

// TestCompletePropagationTrace pins the pass-manager execution schedule
// of complete propagation on a program that genuinely needs two DCE
// rounds: each round re-propagates the program the previous round
// rebuilt before DCE runs on it, so the trace must read propagate,dce
// three times and close with the fixpoint summary.
func TestCompletePropagationTrace(t *testing.T) {
	prog := ipcp.MustLoad(twoRoundSrc)
	rep := prog.Analyze(ipcp.Config{
		Jump:                ipcp.PassThrough,
		ReturnJumpFunctions: true,
		MOD:                 true,
		Complete:            true,
		Debug:               true, // and verify the IR between every pass
	})

	if rep.DCERounds != 2 {
		t.Fatalf("DCERounds = %d, want 2", rep.DCERounds)
	}

	type entry struct {
		pass    string
		round   int
		changed bool
	}
	var got []entry
	for _, st := range rep.Passes {
		got = append(got, entry{st.Pass, st.Round, st.Changed})
	}
	want := []entry{
		{"propagate", 1, true}, // includes the SSA build
		{"dce", 1, true},
		{"propagate", 2, true},
		{"dce", 2, true},
		{"propagate", 3, true},
		{"dce", 3, false},     // converged
		{"complete", 0, true}, // fixpoint summary closes last
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace schedule:\n got %+v\nwant %+v", got, want)
	}

	var sum ipcp.PassStat
	for _, st := range rep.Passes {
		if st.Fixpoint {
			sum = st
		}
	}
	if sum.Pass != "complete" || sum.Rounds != 2 {
		t.Fatalf("fixpoint summary = %+v, want complete with 2 rounds", sum)
	}
	if sum.Instrs >= sum.InstrsBefore || sum.Blocks >= sum.BlocksBefore {
		t.Fatalf("fixpoint summary shows no IR shrinkage: %+v", sum)
	}

	table := rep.PassTrace()
	for _, needle := range []string{"pass", "rounds", "propagate", "dce", "complete"} {
		if !strings.Contains(table, needle) {
			t.Fatalf("PassTrace missing %q:\n%s", needle, table)
		}
	}
}

// TestSimpleAnalysisTrace: without Complete the report still carries a
// trace — a single propagate execution outside any fixpoint.
func TestSimpleAnalysisTrace(t *testing.T) {
	prog := ipcp.MustLoad(twoRoundSrc)
	rep := prog.Analyze(ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true})
	if len(rep.Passes) != 1 {
		t.Fatalf("trace has %d entries, want 1: %+v", len(rep.Passes), rep.Passes)
	}
	st := rep.Passes[0]
	if st.Pass != "propagate" || st.Round != 0 || st.Fixpoint {
		t.Fatalf("trace entry = %+v, want a bare propagate run", st)
	}
}

func TestDescribePipeline(t *testing.T) {
	if simple := ipcp.DescribePipeline(ipcp.Config{Jump: ipcp.PassThrough}); simple != "propagate" {
		t.Fatalf("simple pipeline = %q", simple)
	}
	complete := ipcp.DescribePipeline(ipcp.Config{Jump: ipcp.PassThrough, Complete: true})
	want := "fixpoint complete[<=10 rounds]{dce-round(propagate if stale -> dce)}"
	if complete != want {
		t.Fatalf("complete pipeline = %q, want %q", complete, want)
	}
}

// TestTransformedSourceGolden locks down the exact output of the
// cached-context transformer on a fixed program — any drift in the
// substitution policy or the formatter shows up as a diff — and proves
// the output reanalyzes to the same CONSTANTS sets.
func TestTransformedSourceGolden(t *testing.T) {
	const input = `
PROGRAM MAIN
  COMMON /C/ NG
  INTEGER NG
  NG = 12
  CALL WORK(100)
END

SUBROUTINE WORK(N)
  COMMON /C/ NG
  INTEGER N, NG, S, I
  S = 0
  DO I = 1, N
    S = S + NG
  ENDDO
  WRITE(*,*) S, N
  RETURN
END
`
	const golden = `PROGRAM MAIN
  COMMON /C/ NG
  INTEGER NG
  NG = 12
  CALL WORK(100)
END

SUBROUTINE WORK(N)
  COMMON /C/ NG
  INTEGER N, NG, S, I
  S = 0
  DO I = 1, 100
    S = S+12
  ENDDO
  WRITE(*,*) S, 100
  RETURN
END
`
	cfg := ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true}
	prog := ipcp.MustLoad(input)
	rep := prog.Analyze(cfg)
	src, n, err := prog.TransformedSource(rep)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("substituted %d references, want 3 (N twice, NG once)", n)
	}
	if src != golden {
		t.Fatalf("transformed source drifted:\n--- got ---\n%s--- want ---\n%s", src, golden)
	}

	// The transformed program must reparse and reanalyze to the same
	// CONSTANTS sets (substituting a literal cannot change what is
	// constant, only where it is spelled).
	after, err := ipcp.Load(src)
	if err != nil {
		t.Fatalf("golden output does not reload: %v", err)
	}
	rep2 := after.Analyze(cfg)
	for _, p := range rep.Procedures {
		p2 := rep2.Procedure(p.Name)
		if p2 == nil {
			t.Fatalf("procedure %s vanished from the reanalyzed report", p.Name)
		}
		if !reflect.DeepEqual(p.Constants, p2.Constants) {
			t.Fatalf("%s: CONSTANTS drifted after transformation:\nbefore %+v\nafter  %+v",
				p.Name, p.Constants, p2.Constants)
		}
	}
}
