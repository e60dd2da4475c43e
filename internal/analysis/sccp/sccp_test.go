package sccp

import (
	"testing"

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

// valueOfVarDef returns the SCCP value of the last definition of the
// named variable that appears in the procedure (program order).
func valueOfVarDef(res *Result, name string) lattice.Value {
	var last *ir.Value
	for _, b := range res.Proc.Blocks {
		for _, i := range b.Instrs {
			if i.Dst != nil && i.Var != nil && i.Var.Name == name {
				last = i.Dst
			}
		}
	}
	return res.ValueOf(last)
}

func TestStraightLineFolding(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER A, B, C
  A = 2
  B = A*3
  C = B - A + MOD(7, 4)
END
`)
	res := Run(p.Main, nil, nil)
	if v := valueOfVarDef(res, "C"); !v.Equal(lattice.OfInt(7)) {
		t.Fatalf("C = %v, want 7", v)
	}
}

func TestBranchPruning(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER A, B
  A = 1
  IF (A .GT. 0) THEN
    B = 10
  ELSE
    B = 20
  ENDIF
  A = B
END
`)
	res := Run(p.Main, nil, nil)
	// The else arm is unreachable, so B is the constant 10 at the join.
	if v := valueOfVarDef(res, "A"); !v.Equal(lattice.OfInt(10)) {
		t.Fatalf("A = %v, want 10 (dead arm should be pruned)", v)
	}
	unreachable := 0
	for _, b := range p.Main.Blocks {
		if !res.Reachable[b.ID] {
			unreachable++
		}
	}
	if unreachable == 0 {
		t.Fatal("expected an unreachable block")
	}
}

func TestMergeLosesDistinctConstants(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER A, B
  READ A
  IF (A .GT. 0) THEN
    B = 10
  ELSE
    B = 20
  ENDIF
  A = B
END
`)
	res := Run(p.Main, nil, nil)
	if v := valueOfVarDef(res, "A"); !v.IsBottom() {
		t.Fatalf("A = %v, want bottom (both arms live)", v)
	}
}

func TestLoopConstancy(t *testing.T) {
	// K stays 5 through the loop; the loop-carried S does not.
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER I, S, K, W
  K = 5
  S = 0
  DO I = 1, 10
    S = S + K
  ENDDO
  W = K
END
`)
	res := Run(p.Main, nil, nil)
	if v := valueOfVarDef(res, "W"); !v.Equal(lattice.OfInt(5)) {
		t.Fatalf("W = %v, want 5", v)
	}
	if v := valueOfVarDef(res, "S"); !v.IsBottom() {
		t.Fatalf("S = %v, want bottom", v)
	}
}

func TestSeededEntryValues(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  CALL S(1)
END
SUBROUTINE S(N)
  INTEGER N, A
  A = N + 1
  RETURN
END
`)
	s := p.ProcByName["S"]
	// Without seed: N is bottom.
	res := Run(s, nil, nil)
	if v := valueOfVarDef(res, "A"); !v.IsBottom() {
		t.Fatalf("unseeded A = %v", v)
	}
	// Seed N = 41 (as the interprocedural propagation would).
	seed := map[*ir.Value]lattice.Value{}
	for id, val := range s.EntryValues {
		if v := s.Vars[id]; val != nil && v.Kind == ir.FormalVar && v.Index == 0 {
			seed[val] = lattice.OfInt(41)
		}
	}
	res2 := Run(s, seed, nil)
	if v := valueOfVarDef(res2, "A"); !v.Equal(lattice.OfInt(42)) {
		t.Fatalf("seeded A = %v, want 42", v)
	}
}

func TestSeededBranchUnreachable(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  CALL S(0)
END
SUBROUTINE S(DBG)
  INTEGER DBG, X
  X = 1
  IF (DBG .NE. 0) THEN
    X = 2
  ENDIF
  X = X
  RETURN
END
`)
	s := p.ProcByName["S"]
	seed := map[*ir.Value]lattice.Value{}
	for id, val := range s.EntryValues {
		if v := s.Vars[id]; val != nil && v.Kind == ir.FormalVar {
			seed[val] = lattice.OfInt(0)
		}
	}
	res := Run(s, seed, nil)
	// The debug arm is unreachable and X is 1 at the end.
	if v := valueOfVarDef(res, "X"); !v.Equal(lattice.OfInt(1)) {
		t.Fatalf("X = %v, want 1", v)
	}
}

func TestCallDefsAreBottomByDefault(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER X, Y
  X = 1
  CALL TOUCH(X)
  Y = X
END
SUBROUTINE TOUCH(A)
  INTEGER A
  A = 2
  RETURN
END
`)
	res := Run(p.Main, nil, nil)
	if v := valueOfVarDef(res, "Y"); !v.IsBottom() {
		t.Fatalf("Y = %v, want bottom (call kills X)", v)
	}
}

func TestCallDefEvalHook(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER X, Y
  X = 1
  CALL TOUCH(X)
  Y = X
END
SUBROUTINE TOUCH(A)
  INTEGER A
  A = 2
  RETURN
END
`)
	cde := func(call *ir.Instr, def *ir.Value, argVal func(int) lattice.Value) lattice.Value {
		return lattice.OfInt(2) // pretend a return jump function knows
	}
	res := Run(p.Main, nil, cde)
	if v := valueOfVarDef(res, "Y"); !v.Equal(lattice.OfInt(2)) {
		t.Fatalf("Y = %v, want 2", v)
	}
}

func TestLogicalShortCircuitPrecision(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER A, B
  LOGICAL L
  READ A
  L = (A .GT. 0) .AND. .FALSE.
  IF (L) THEN
    B = 1
  ELSE
    B = 2
  ENDIF
  A = B
END
`)
	res := Run(p.Main, nil, nil)
	if v := valueOfVarDef(res, "A"); !v.Equal(lattice.OfInt(2)) {
		t.Fatalf("A = %v, want 2 (AND with constant false)", v)
	}
}

func TestRealsAreBottom(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  REAL X, Y
  X = 1.5
  Y = X * 2.0
END
`)
	res := Run(p.Main, nil, nil)
	if v := valueOfVarDef(res, "Y"); !v.IsBottom() {
		t.Fatalf("Y = %v, want bottom (reals untracked)", v)
	}
}

func TestDivisionByZeroIsBottom(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER A, B
  A = 0
  B = 7/A
END
`)
	res := Run(p.Main, nil, nil)
	if v := valueOfVarDef(res, "B"); !v.IsBottom() {
		t.Fatalf("B = %v, want bottom", v)
	}
}

func TestGotoLoopTermination(t *testing.T) {
	// An explicit GOTO loop with a read-controlled exit must converge.
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER A, B
  A = 0
10 A = A + 1
  READ B
  IF (B .GT. 0) GOTO 10
  B = A
END
`)
	res := Run(p.Main, nil, nil)
	if v := valueOfVarDef(res, "B"); !v.IsBottom() {
		t.Fatalf("B = %v, want bottom (loop-carried)", v)
	}
}

func TestBranchDecision(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER A, B
  A = 1
  IF (A .LT. 0) THEN
    B = 1
  ELSE
    B = 2
  ENDIF
  A = B
END
`)
	res := Run(p.Main, nil, nil)
	found := false
	for _, b := range p.Main.Blocks {
		if t2 := b.Terminator(); t2 != nil && t2.Op == ir.OpBr {
			taken, ok := res.BranchDecision(t2)
			if !ok {
				t.Fatal("branch should fold")
			}
			if taken != 1 {
				t.Fatalf("taken = %d, want 1 (false arm)", taken)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no branch found")
	}
}
