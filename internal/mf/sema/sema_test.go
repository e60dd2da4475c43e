package sema

import (
	"strings"
	"testing"

	"ipcp/internal/mf/ast"
	"ipcp/internal/mf/parser"
)

func analyze(t *testing.T, src string) *Program {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Analyze(f)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return p
}

func analyzeExpectError(t *testing.T, src, wantSubstr string) {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Analyze(f)
	if err == nil {
		t.Fatalf("expected semantic error containing %q, got none", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not contain %q", err, wantSubstr)
	}
}

func TestImplicitTyping(t *testing.T) {
	p := analyze(t, `
PROGRAM P
  N = 1
  X = 2.0
END
`)
	u := p.Main
	if u.Symbols["N"].Type != ast.Integer {
		t.Errorf("N should be INTEGER")
	}
	if u.Symbols["X"].Type != ast.Real {
		t.Errorf("X should be REAL")
	}
	for _, name := range "IJKLMN" {
		if implicitType(string(name)+"VAR") != ast.Integer {
			t.Errorf("%cVAR should be INTEGER", name)
		}
	}
	if implicitType("HVAR") != ast.Real || implicitType("OVAR") != ast.Real {
		t.Error("H/O prefixes should be REAL")
	}
}

func TestImplicitNone(t *testing.T) {
	analyzeExpectError(t, `
PROGRAM P
  IMPLICIT NONE
  N = 1
END
`, "IMPLICIT NONE")
}

func TestParamsAndResult(t *testing.T) {
	p := analyze(t, `
PROGRAM P
  INTEGER R
  R = F(3)
END
INTEGER FUNCTION F(X)
  INTEGER X
  F = X + 1
  RETURN
END
`)
	f := p.UnitByName["F"]
	if len(f.Params) != 1 || f.Params[0].Kind != ParamSym || f.Params[0].ParamIndex != 0 {
		t.Fatalf("params: %+v", f.Params)
	}
	if f.Result == nil || f.Result.Kind != ResultSym || f.Result.Type != ast.Integer {
		t.Fatalf("result: %+v", f.Result)
	}
}

func TestCommonBlocks(t *testing.T) {
	p := analyze(t, `
PROGRAM P
  COMMON /BLK/ N, X, ARR(10)
  INTEGER N, ARR
  N = 1
  CALL S
END
SUBROUTINE S
  COMMON /BLK/ M, Y, BUF(10)
  INTEGER M, BUF
  M = 2
  RETURN
END
`)
	if len(p.Globals) != 3 {
		t.Fatalf("globals: %d, want 3", len(p.Globals))
	}
	// Canonical names come from the first declaring unit.
	if p.Globals[0].Name != "N" || p.Globals[0].Block != "BLK" {
		t.Errorf("global 0: %+v", p.Globals[0])
	}
	// Both units' symbols map to the same Global.
	n := p.Main.Symbols["N"]
	m := p.UnitByName["S"].Symbols["M"]
	if n.Global == nil || n.Global != m.Global {
		t.Errorf("N and M should share a global: %v vs %v", n.Global, m.Global)
	}
	if !p.Main.Symbols["ARR"].IsArray() {
		t.Error("ARR should be an array")
	}
}

func TestCommonShapeMismatch(t *testing.T) {
	analyzeExpectError(t, `
PROGRAM P
  COMMON /BLK/ N
  N = 1
END
SUBROUTINE S
  COMMON /BLK/ BUF(10)
  RETURN
END
`, "COMMON /BLK/")
}

func TestParameterConstants(t *testing.T) {
	p := analyze(t, `
PROGRAM P
  PARAMETER (N = 100, M = N*2+1)
  INTEGER A(M)
  A(N) = N
END
`)
	m := p.Main.Symbols["M"]
	if m.Kind != ConstSym || m.ConstInt != 201 {
		t.Fatalf("M: %+v", m)
	}
	a := p.Main.Symbols["A"]
	if len(a.Dims) != 1 || a.Dims[0] != 201 {
		t.Fatalf("A dims: %v", a.Dims)
	}
}

func TestAssignToParameterRejected(t *testing.T) {
	analyzeExpectError(t, `
PROGRAM P
  PARAMETER (N = 1)
  N = 2
END
`, "PARAMETER")
}

func TestFunctionCallDisambiguation(t *testing.T) {
	p := analyze(t, `
PROGRAM P
  INTEGER A(10), R
  A(1) = 5
  R = A(1) + F(2) + MOD(7, 3)
END
INTEGER FUNCTION F(X)
  INTEGER X
  F = X
  RETURN
END
`)
	// Find the assignment R = ... and inspect its RHS shape.
	var asg *ast.AssignStmt
	for _, s := range p.Main.Unit.Body {
		if a, ok := s.(*ast.AssignStmt); ok && a.LHS.Name == "R" {
			asg = a
		}
	}
	if asg == nil {
		t.Fatal("assignment to R not found")
	}
	add := asg.RHS.(*ast.BinaryExpr)
	inner := add.X.(*ast.BinaryExpr)
	if _, ok := inner.X.(*ast.VarRef); !ok {
		t.Errorf("A(1) should stay a VarRef, got %T", inner.X)
	}
	if call, ok := inner.Y.(*ast.CallExpr); !ok || call.Name != "F" {
		t.Errorf("F(2) should become CallExpr, got %T", inner.Y)
	} else if p.CallTargets[call] == nil || p.CallTargets[call].Unit == nil {
		t.Error("F call target not recorded")
	}
	if call, ok := add.Y.(*ast.CallExpr); !ok || call.Name != "MOD" {
		t.Errorf("MOD should become CallExpr, got %T", add.Y)
	} else if tgt := p.CallTargets[call]; tgt == nil || tgt.Intrinsic == nil {
		t.Error("MOD target should be intrinsic")
	}
}

func TestTypeErrors(t *testing.T) {
	analyzeExpectError(t, `
PROGRAM P
  LOGICAL L
  INTEGER N
  N = L
END
`, "type mismatch")
	analyzeExpectError(t, `
PROGRAM P
  INTEGER N
  IF (N) THEN
    N = 1
  ENDIF
END
`, "must be LOGICAL")
	analyzeExpectError(t, `
PROGRAM P
  REAL X
  DO X = 1, 10
  ENDDO
END
`, "must be INTEGER")
	analyzeExpectError(t, `
PROGRAM P
  LOGICAL L
  L = 1 .AND. 2
END
`, ".AND.")
}

func TestCallErrors(t *testing.T) {
	analyzeExpectError(t, `
PROGRAM P
  CALL NOSUCH(1)
END
`, "undefined subroutine")
	analyzeExpectError(t, `
PROGRAM P
  CALL S(1, 2)
END
SUBROUTINE S(A)
  INTEGER A
  RETURN
END
`, "expects 1 arguments")
	analyzeExpectError(t, `
PROGRAM P
  INTEGER R
  R = S(1)
END
SUBROUTINE S(A)
  INTEGER A
  RETURN
END
`, "only FUNCTIONs")
}

func TestArrayArgumentBinding(t *testing.T) {
	analyze(t, `
PROGRAM P
  INTEGER A(10)
  CALL S(A, 10)
END
SUBROUTINE S(BUF, N)
  INTEGER BUF(10), N
  BUF(1) = N
  RETURN
END
`)
	analyzeExpectError(t, `
PROGRAM P
  INTEGER X
  CALL S(X)
END
SUBROUTINE S(BUF)
  INTEGER BUF(10)
  RETURN
END
`, "array formal bound to a scalar")
}

func TestGotoLabels(t *testing.T) {
	analyzeExpectError(t, `
PROGRAM P
  GOTO 99
END
`, "label not defined")
	analyzeExpectError(t, `
PROGRAM P
10 CONTINUE
10 CONTINUE
END
`, "already defined")
}

func TestDataOnlyInProgram(t *testing.T) {
	p := analyze(t, `
PROGRAM P
  INTEGER N
  DATA N /42/
  N = N + 1
END
`)
	sym := p.Main.Symbols["N"]
	if !sym.HasInit || sym.InitInt != 42 {
		t.Fatalf("DATA init lost: %+v", sym)
	}
	analyzeExpectError(t, `
PROGRAM P
END
SUBROUTINE S
  INTEGER N
  DATA N /1/
  RETURN
END
`, "only supported in the PROGRAM unit")
}

func TestNoProgramUnit(t *testing.T) {
	analyzeExpectError(t, `
SUBROUTINE S
  RETURN
END
`, "no PROGRAM unit")
}

func TestDuplicateUnits(t *testing.T) {
	analyzeExpectError(t, `
PROGRAM P
END
SUBROUTINE S
  RETURN
END
SUBROUTINE S
  RETURN
END
`, "duplicate program unit")
}

func TestFoldIntBinary(t *testing.T) {
	cases := []struct {
		op   ast.BinaryOp
		x, y int64
		want int64
		ok   bool
	}{
		{ast.Add, 2, 3, 5, true},
		{ast.Sub, 2, 3, -1, true},
		{ast.Mul, 4, 5, 20, true},
		{ast.Div, 7, 2, 3, true},
		{ast.Div, -7, 2, -3, true}, // Go and Fortran both truncate toward zero
		{ast.Div, 1, 0, 0, false},
		{ast.Pow, 2, 10, 1024, true},
		{ast.Pow, 3, 0, 1, true},
		{ast.Pow, 2, -1, 0, false},
	}
	for _, tc := range cases {
		got, ok := FoldIntBinary(tc.op, tc.x, tc.y)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("FoldIntBinary(%v, %d, %d) = %d,%v want %d,%v", tc.op, tc.x, tc.y, got, ok, tc.want, tc.ok)
		}
	}
}

// TestFoldIntBinaryPow checks the front end's power fold against
// multiplying 1 by the base exponent times, wrapped overflow included.
func TestFoldIntBinaryPow(t *testing.T) {
	for _, x := range []int64{-3, -2, -1, 0, 1, 2, 3, 7, 1<<31 + 1} {
		want := int64(1)
		for y := int64(0); y <= 70; y++ {
			if got, ok := FoldIntBinary(ast.Pow, x, y); !ok || got != want {
				t.Fatalf("FoldIntBinary(**, %d, %d) = %d,%v want %d,true", x, y, got, ok, want)
			}
			want *= x
		}
	}
}

func TestWholeArrayAssignmentRejected(t *testing.T) {
	analyzeExpectError(t, `
PROGRAM P
  INTEGER A(10)
  A = 1
END
`, "whole array")
}

func TestSubscriptCountChecked(t *testing.T) {
	analyzeExpectError(t, `
PROGRAM P
  INTEGER A(10, 10)
  A(1) = 5
END
`, "2 dimensions but 1 subscripts")
}
