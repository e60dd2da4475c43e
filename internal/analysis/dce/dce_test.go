package dce

import (
	"strings"
	"testing"

	"ipcp/internal/analysis/sccp"
	"ipcp/internal/core/lattice"
	"ipcp/internal/ir"
	"ipcp/internal/ir/irbuild"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
)

func buildSSA(t *testing.T, src string) *ir.Program {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sema.Analyze(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	p := irbuild.Build(sp)
	for _, proc := range p.Procs {
		proc.BuildSSA(ir.WorstCase)
	}
	return p
}

func countOps(p *ir.Proc, op ir.Op) int {
	n := 0
	for _, b := range p.Blocks {
		for _, i := range b.Instrs {
			if i.Op == op {
				n++
			}
		}
	}
	return n
}

func TestRemovesConstantFalseArm(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER DBG, X
  DBG = 0
  IF (DBG .NE. 0) THEN
    X = 111
    WRITE(*,*) X
  ENDIF
  X = 1
  WRITE(*,*) X
END
`)
	res := sccp.Run(p.Main, nil, nil)
	np, stats := Transform(p.Main, res, nil)
	if !stats.Changed || stats.BranchesFolded != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if s := np.String(); strings.Contains(s, "111") {
		t.Fatalf("dead arm survived:\n%s", s)
	}
	if countOps(np, ir.OpBr) != 0 {
		t.Fatalf("branch not folded:\n%s", np)
	}
	// The clone is analyzable from scratch.
	np.BuildSSA(ir.WorstCase)
	res2 := sccp.Run(np, nil, nil)
	for _, b := range np.Blocks {
		if !res2.Reachable[b.ID] {
			t.Fatalf("clone has unreachable block:\n%s", np)
		}
	}
}

func TestKeepsLiveBranch(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER A, X
  READ A
  IF (A .GT. 0) THEN
    X = 1
  ELSE
    X = 2
  ENDIF
  WRITE(*,*) X
END
`)
	res := sccp.Run(p.Main, nil, nil)
	np, stats := Transform(p.Main, res, nil)
	if countOps(np, ir.OpBr) != 1 {
		t.Fatalf("live branch must survive:\n%s", np)
	}
	if stats.BranchesFolded != 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestUselessAssignmentsSwept(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER A, B, C
  A = 1
  B = A + 2
  C = B * 3
  WRITE(*,*) A
END
`)
	res := sccp.Run(p.Main, nil, nil)
	np, stats := Transform(p.Main, res, &Options{SweepUseless: true})
	// B and C are useless; A feeds the WRITE.
	if stats.InstrsRemoved < 2 {
		t.Fatalf("stats: %+v\n%s", stats, np)
	}
	s := np.String()
	if strings.Contains(s, "C =") || strings.Contains(s, "B =") {
		t.Fatalf("useless assignments survived:\n%s", s)
	}
	if !strings.Contains(s, "A = copy 1") {
		t.Fatalf("live assignment missing:\n%s", s)
	}
}

func TestStatementLevelDefaultKeepsNamedAssignments(t *testing.T) {
	// The default (complete-propagation) mode deletes only unreachable
	// statements: a reachable assignment to a named variable survives
	// even when nothing reads it, because the substitution metric counts
	// source references.
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER A, B
  A = 1
  B = A + 2
  WRITE(*,*) A
END
`)
	res := sccp.Run(p.Main, nil, nil)
	np, stats := Transform(p.Main, res, nil)
	if stats.Changed {
		t.Fatalf("statement-level mode should not change clean code: %+v", stats)
	}
	if !strings.Contains(np.String(), "B = ") {
		t.Fatalf("named assignment swept in statement-level mode:\n%s", np)
	}
}

func TestEscapingValuesStayLive(t *testing.T) {
	// An assignment to a formal is live (the value escapes via Ret) even
	// when the procedure never reads it afterwards.
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER X
  CALL S(X)
END
SUBROUTINE S(A)
  INTEGER A
  A = 7
  RETURN
END
`)
	s := p.ProcByName["S"]
	res := sccp.Run(s, nil, nil)
	np, _ := Transform(s, res, nil)
	if !strings.Contains(np.String(), "A = copy 7") {
		t.Fatalf("escaping store removed:\n%s", np)
	}
}

func TestSeededConstantsExposeDeadCode(t *testing.T) {
	// The paper's mechanism: an interprocedural constant (DBG = 0)
	// makes the guarded assignment dead; removing it lets a later
	// propagation see GV as constant on exit.
	p := buildSSA(t, `
PROGRAM MAIN
  COMMON /C/ GV
  INTEGER GV
  CALL INIT(0)
END
SUBROUTINE INIT(DBG)
  INTEGER DBG
  COMMON /C/ GV
  INTEGER GV
  GV = 5
  IF (DBG .NE. 0) THEN
    READ GV
  ENDIF
  RETURN
END
`)
	init := p.ProcByName["INIT"]
	seed := map[*ir.Value]lattice.Value{}
	for id, val := range init.EntryValues {
		if v := init.Vars[id]; val != nil && v.Kind == ir.FormalVar && v.Index == 0 {
			seed[val] = lattice.OfInt(0)
		}
	}
	res := sccp.Run(init, seed, nil)
	np, stats := Transform(init, res, nil)
	if !stats.Changed {
		t.Fatalf("expected change, got %+v", stats)
	}
	if strings.Contains(np.String(), "read") {
		t.Fatalf("guarded READ survived:\n%s", np)
	}
	// Without the seed nothing folds and the READ stays.
	res2 := sccp.Run(init, nil, nil)
	np2, _ := Transform(init, res2, nil)
	if !strings.Contains(np2.String(), "read") {
		t.Fatalf("unseeded DCE should keep the READ:\n%s", np2)
	}
}

func TestLoopSurvives(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER I, S
  S = 0
  DO I = 1, 10
    S = S + I
  ENDDO
  WRITE(*,*) S
END
`)
	res := sccp.Run(p.Main, nil, nil)
	np, _ := Transform(p.Main, res, nil)
	// Loop structure intact: a conditional branch remains.
	if countOps(np, ir.OpBr) != 1 {
		t.Fatalf("loop branch lost:\n%s", np)
	}
	np.BuildSSA(ir.WorstCase)
	res2 := sccp.Run(np, nil, nil)
	_ = res2
}

func TestIdempotentOnCleanCode(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER A
  READ A
  A = A + 1
  WRITE(*,*) A
END
`)
	res := sccp.Run(p.Main, nil, nil)
	np, stats := Transform(p.Main, res, nil)
	if stats.Changed {
		t.Fatalf("clean code should not change: %+v\n%s", stats, np)
	}
}
