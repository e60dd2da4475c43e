package valnum

import (
	"testing"

	"ipcp/internal/ir"
	"ipcp/internal/ir/irbuild"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
	"ipcp/internal/sym"
)

func buildSSA(t *testing.T, src string, oracle ir.ModOracle) *ir.Program {
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
		proc.BuildSSA(oracle)
	}
	return p
}

type noMod struct{}

func (noMod) ModifiesFormal(*ir.Proc, int) bool           { return false }
func (noMod) ModifiesGlobal(*ir.Proc, *ir.GlobalVar) bool { return false }

// findCall returns the first call instruction in proc.
func findCall(t *testing.T, proc *ir.Proc) *ir.Instr {
	t.Helper()
	for _, b := range proc.Blocks {
		for _, i := range b.Instrs {
			if i.Op == ir.OpCall {
				return i
			}
		}
	}
	t.Fatalf("no call in %s", proc.Name)
	return nil
}

func TestActualExpressions(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER N, M
  N = 10
  M = N*2 + 1
  CALL S(N, M, N, 42, M-N)
END
SUBROUTINE S(A, B, C, D, E)
  INTEGER A, B, C, D, E
  A = B
  RETURN
END
`, noMod{})
	main := p.ProcByName["MAIN"]
	vn := Analyze(main, nil)
	call := findCall(t, main)

	// N = 10 intraprocedurally.
	if e, ok := vn.OperandExpr(call.Args[0]).(*sym.Const); !ok || e.Val != 10 {
		t.Errorf("arg0 expr = %v, want 10", vn.OperandExpr(call.Args[0]))
	}
	// M = 21.
	if e, ok := vn.OperandExpr(call.Args[1]).(*sym.Const); !ok || e.Val != 21 {
		t.Errorf("arg1 expr = %v, want 21", vn.OperandExpr(call.Args[1]))
	}
	// Congruence: args 0 and 2 are the same value.
	if !sym.Equal(vn.OperandExpr(call.Args[0]), vn.OperandExpr(call.Args[2])) {
		t.Error("args 0 and 2 should be congruent")
	}
	// Literal.
	if e, ok := vn.OperandExpr(call.Args[3]).(*sym.Const); !ok || e.Val != 42 {
		t.Errorf("arg3 expr = %v", vn.OperandExpr(call.Args[3]))
	}
	// M-N = 11 folds through the expression temp.
	if e, ok := vn.OperandExpr(call.Args[4]).(*sym.Const); !ok || e.Val != 11 {
		t.Errorf("arg4 expr = %v, want 11", vn.OperandExpr(call.Args[4]))
	}
}

func TestPassThroughAndPolynomial(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  CALL MID(4, 5)
END
SUBROUTINE MID(X, Y)
  INTEGER X, Y
  CALL LEAF(X, 2*X + Y, X*Y)
  RETURN
END
SUBROUTINE LEAF(A, B, C)
  INTEGER A, B, C
  A = B + C
  RETURN
END
`, noMod{})
	mid := p.ProcByName["MID"]
	vn := Analyze(mid, nil)
	call := findCall(t, mid)

	// X passes through unmodified: expression is exactly Formal(0).
	if f, ok := vn.OperandExpr(call.Args[0]).(*sym.Formal); !ok || f.Index != 0 {
		t.Errorf("arg0 = %v, want formal 0", vn.OperandExpr(call.Args[0]))
	}
	// 2*X+Y is a closed polynomial over formals 0 and 1.
	e1 := vn.OperandExpr(call.Args[1])
	leaves, closed := sym.Support(e1)
	if !closed || len(leaves) != 2 {
		t.Errorf("arg1 = %v (closed=%v leaves=%v)", e1, closed, leaves)
	}
	// X*Y likewise.
	if !sym.IsClosed(vn.OperandExpr(call.Args[2])) {
		t.Errorf("arg2 = %v", vn.OperandExpr(call.Args[2]))
	}
}

func TestGlobalEntryExpressions(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  COMMON /B/ G
  INTEGER G
  G = 7
  CALL S
END
SUBROUTINE S
  COMMON /B/ G
  INTEGER G, L
  L = G + 1
  CALL LEAF
  RETURN
END
SUBROUTINE LEAF
  COMMON /B/ G
  INTEGER G
  G = G
  RETURN
END
`, noMod{})
	s := p.ProcByName["S"]
	vn := Analyze(s, nil)
	call := findCall(t, s)
	// The implicit global use at the call site: G unmodified since
	// entry, so the expression is GlobalEntry(G).
	gArg := call.Args[call.NumActuals]
	if ge, ok := vn.OperandExpr(gArg).(*sym.GlobalEntry); !ok || ge.G != p.Globals[0] {
		t.Errorf("global arg = %v", vn.OperandExpr(gArg))
	}
	// In MAIN, G = 7 at the call site.
	main := p.ProcByName["MAIN"]
	vnm := Analyze(main, nil)
	mcall := findCall(t, main)
	if c, ok := vnm.OperandExpr(mcall.Args[0]).(*sym.Const); !ok || c.Val != 7 {
		t.Errorf("main global arg = %v, want 7", vnm.OperandExpr(mcall.Args[0]))
	}
}

func TestPhiMergesEqualValues(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER A, B
  B = 0
  IF (B .GT. 0) THEN
    A = 5
  ELSE
    A = 5
  ENDIF
  CALL S(A)
END
SUBROUTINE S(X)
  INTEGER X
  X = X
  RETURN
END
`, noMod{})
	main := p.ProcByName["MAIN"]
	vn := Analyze(main, nil)
	call := findCall(t, main)
	if c, ok := vn.OperandExpr(call.Args[0]).(*sym.Const); !ok || c.Val != 5 {
		t.Errorf("phi(5,5) should fold to 5, got %v", vn.OperandExpr(call.Args[0]))
	}
}

func TestPhiDistinctValuesUnknown(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER A, B
  B = 0
  IF (B .GT. 0) THEN
    A = 5
  ELSE
    A = 6
  ENDIF
  CALL S(A)
END
SUBROUTINE S(X)
  INTEGER X
  X = X
  RETURN
END
`, noMod{})
	main := p.ProcByName["MAIN"]
	vn := Analyze(main, nil)
	call := findCall(t, main)
	if _, ok := vn.OperandExpr(call.Args[0]).(*sym.Unknown); !ok {
		t.Errorf("phi(5,6) should be unknown, got %v", vn.OperandExpr(call.Args[0]))
	}
}

func TestLoopCarriedIsUnknown(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  INTEGER I, S
  S = 0
  DO I = 1, 10
    S = S + 1
  ENDDO
  CALL SINK(S)
END
SUBROUTINE SINK(X)
  INTEGER X
  X = X
  RETURN
END
`, noMod{})
	main := p.ProcByName["MAIN"]
	vn := Analyze(main, nil)
	call := findCall(t, main)
	if sym.IsClosed(vn.OperandExpr(call.Args[0])) {
		t.Errorf("loop-carried S should be unknown, got %v", vn.OperandExpr(call.Args[0]))
	}
}

func TestWorstCaseCallKillsValues(t *testing.T) {
	src := `
PROGRAM MAIN
  COMMON /B/ G
  INTEGER G, N
  G = 3
  N = 4
  CALL NOP
  CALL SINK(G, N)
END
SUBROUTINE NOP
  RETURN
END
SUBROUTINE SINK(A, B)
  INTEGER A, B
  A = B
  RETURN
END
`
	// Worst case: the NOP call clobbers G (but N is a local not passed
	// by reference, so it survives).
	p := buildSSA(t, src, ir.WorstCase)
	main := p.ProcByName["MAIN"]
	vn := Analyze(main, nil)
	var sink *ir.Instr
	for _, b := range main.Blocks {
		for _, i := range b.Instrs {
			if i.Op == ir.OpCall && i.Callee.Name == "SINK" {
				sink = i
			}
		}
	}
	if sym.IsClosed(vn.OperandExpr(sink.Args[0])) {
		t.Errorf("worst case: G after call should be unknown, got %v", vn.OperandExpr(sink.Args[0]))
	}
	if c, ok := vn.OperandExpr(sink.Args[1]).(*sym.Const); !ok || c.Val != 4 {
		t.Errorf("local N should survive the call: %v", vn.OperandExpr(sink.Args[1]))
	}

	// No-mod oracle: G survives too.
	p2 := buildSSA(t, src, noMod{})
	main2 := p2.ProcByName["MAIN"]
	vn2 := Analyze(main2, nil)
	var sink2 *ir.Instr
	for _, b := range main2.Blocks {
		for _, i := range b.Instrs {
			if i.Op == ir.OpCall && i.Callee.Name == "SINK" {
				sink2 = i
			}
		}
	}
	if c, ok := vn2.OperandExpr(sink2.Args[0]).(*sym.Const); !ok || c.Val != 3 {
		t.Errorf("precise MOD: G should be 3 at the call, got %v", vn2.OperandExpr(sink2.Args[0]))
	}
}

// fixedReturnEval reports constant 99 for every call-modified binding.
type fixedReturnEval struct{}

func (fixedReturnEval) CallDefExpr(*sym.Table, *ir.Instr, *ir.Value, func(int) sym.Expr) sym.Expr {
	return sym.NewConst(99)
}

func TestReturnEvalFeedsCallDefs(t *testing.T) {
	src := `
PROGRAM MAIN
  INTEGER X
  X = 1
  CALL SETTER(X)
  CALL SINK(X)
END
SUBROUTINE SETTER(A)
  INTEGER A
  A = 99
  RETURN
END
SUBROUTINE SINK(B)
  INTEGER B
  B = B
  RETURN
END
`
	p := buildSSA(t, src, ir.WorstCase)
	main := p.ProcByName["MAIN"]
	vn := Analyze(main, fixedReturnEval{})
	var sink *ir.Instr
	for _, b := range main.Blocks {
		for _, i := range b.Instrs {
			if i.Op == ir.OpCall && i.Callee.Name == "SINK" {
				sink = i
			}
		}
	}
	if c, ok := vn.OperandExpr(sink.Args[0]).(*sym.Const); !ok || c.Val != 99 {
		t.Errorf("return JF should make X=99 after SETTER: %v", vn.OperandExpr(sink.Args[0]))
	}
}

func TestRealValuesAreUnknown(t *testing.T) {
	p := buildSSA(t, `
PROGRAM MAIN
  REAL X
  X = 1.5
  CALL S(X)
END
SUBROUTINE S(A)
  REAL A
  A = A
  RETURN
END
`, noMod{})
	main := p.ProcByName["MAIN"]
	vn := Analyze(main, nil)
	call := findCall(t, main)
	if vn.OperandExpr(call.Args[0]) != nil && sym.IsClosed(vn.OperandExpr(call.Args[0])) {
		t.Errorf("real actual should be unknown: %v", vn.OperandExpr(call.Args[0]))
	}
}
