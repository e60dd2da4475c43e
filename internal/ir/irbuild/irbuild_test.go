package irbuild

import (
	"strings"
	"testing"

	"ipcp/internal/ir"
	"ipcp/internal/mf/ast"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
	"ipcp/internal/mf/token"
)

// build parses, analyzes, and lowers src.
func build(t *testing.T, src string) *ir.Program {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sema.Analyze(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	return Build(sp)
}

// buildSSA additionally converts every procedure to SSA with the given
// oracle.
func buildSSA(t *testing.T, src string, oracle ir.ModOracle) *ir.Program {
	t.Helper()
	p := build(t, src)
	for _, proc := range p.Procs {
		proc.BuildSSA(oracle)
	}
	return p
}

func findProc(t *testing.T, p *ir.Program, name string) *ir.Proc {
	t.Helper()
	proc := p.ProcByName[name]
	if proc == nil {
		t.Fatalf("no proc %s", name)
	}
	return proc
}

// countOps counts instructions with the given opcode in a procedure.
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

func TestLowerStraightLine(t *testing.T) {
	p := build(t, `
PROGRAM P
  INTEGER A, B
  A = 1
  B = A + 2
END
`)
	main := findProc(t, p, "P")
	if len(main.Blocks) != 1 {
		t.Fatalf("blocks: %d\n%s", len(main.Blocks), main)
	}
	if countOps(main, ir.OpCopy) != 1 || countOps(main, ir.OpAdd) != 1 {
		t.Fatalf("ops wrong:\n%s", main)
	}
	term := main.Blocks[0].Terminator()
	if term == nil || term.Op != ir.OpRet {
		t.Fatalf("missing implicit return:\n%s", main)
	}
}

func TestLowerIfCFG(t *testing.T) {
	p := build(t, `
PROGRAM P
  INTEGER A
  A = 0
  IF (A .GT. 0) THEN
    A = 1
  ELSE
    A = 2
  ENDIF
  A = 3
END
`)
	main := findProc(t, p, "P")
	// entry, then, else, join = 4 blocks.
	if len(main.Blocks) != 4 {
		t.Fatalf("blocks: %d\n%s", len(main.Blocks), main)
	}
	entry := main.Entry
	if entry.Terminator().Op != ir.OpBr || len(entry.Succs) != 2 {
		t.Fatalf("entry terminator:\n%s", main)
	}
}

func TestLowerDoLoop(t *testing.T) {
	p := build(t, `
PROGRAM P
  INTEGER I, S, N
  N = 10
  S = 0
  DO I = 1, N
    S = S + I
  ENDDO
END
`)
	main := findProc(t, p, "P")
	// entry, header, body, join.
	if len(main.Blocks) != 4 {
		t.Fatalf("blocks: %d\n%s", len(main.Blocks), main)
	}
	var header *ir.Block
	for _, b := range main.Blocks {
		if len(b.Preds) == 2 { // preheader + latch
			header = b
		}
	}
	if header == nil {
		t.Fatalf("no loop header:\n%s", main)
	}
	if header.Terminator().Op != ir.OpBr {
		t.Fatalf("header should end in branch:\n%s", main)
	}
	if countOps(main, ir.OpLe) != 1 {
		t.Fatalf("positive-step loop should compare with <=:\n%s", main)
	}
}

func TestLowerNegativeConstStep(t *testing.T) {
	p := build(t, `
PROGRAM P
  INTEGER I, S
  DO I = 10, 1, -1
    S = S + I
  ENDDO
END
`)
	main := findProc(t, p, "P")
	if countOps(main, ir.OpGe) != 1 {
		t.Fatalf("negative-step loop should compare with >=:\n%s", main)
	}
}

func TestLowerGotoAndLabels(t *testing.T) {
	p := build(t, `
PROGRAM P
  INTEGER A
  A = 0
  GOTO 20
  A = 1
20 A = 2
END
`)
	main := findProc(t, p, "P")
	// The `A = 1` statement is unreachable and pruned with its block.
	src := main.String()
	if strings.Contains(src, "A = 1") {
		t.Fatalf("unreachable code survived:\n%s", src)
	}
}

func TestLowerArrays(t *testing.T) {
	p := build(t, `
PROGRAM P
  INTEGER A(10), X
  A(1) = 5
  X = A(1) + A(2)
END
`)
	main := findProc(t, p, "P")
	if countOps(main, ir.OpAStore) != 1 || countOps(main, ir.OpALoad) != 2 {
		t.Fatalf("array ops:\n%s", main)
	}
}

func TestLowerCallArgsAndGlobals(t *testing.T) {
	p := build(t, `
PROGRAM P
  COMMON /G/ GA, GB
  INTEGER GA, GB, X
  X = 1
  CALL S(X, 5, X+1)
END
SUBROUTINE S(A, B, C)
  INTEGER A, B, C
  A = B + C
  RETURN
END
`)
	main := findProc(t, p, "P")
	var call *ir.Instr
	for _, b := range main.Blocks {
		for _, i := range b.Instrs {
			if i.Op == ir.OpCall {
				call = i
			}
		}
	}
	if call == nil {
		t.Fatalf("no call:\n%s", main)
	}
	if call.NumActuals != 3 {
		t.Fatalf("NumActuals = %d", call.NumActuals)
	}
	// 3 actuals + 2 implicit global uses.
	if len(call.Args) != 5 {
		t.Fatalf("args = %d, want 5", len(call.Args))
	}
	// Arg 0 is a bare variable (by-ref), arg 1 a literal, arg 2 a temp.
	if call.Args[0].Var == nil || call.Args[0].Var.Name != "X" {
		t.Errorf("arg0: %v", call.Args[0])
	}
	if call.Args[1].Const == nil || !call.Args[1].Literal {
		t.Errorf("arg1: %v", call.Args[1])
	}
	if call.Args[2].Var == nil || call.Args[2].Var.Kind != ir.TempVar {
		t.Errorf("arg2: %v", call.Args[2])
	}
	if !call.Args[3].Synthetic || !call.Args[4].Synthetic {
		t.Error("global uses should be synthetic")
	}
}

func TestLowerFunctionCallAndReturn(t *testing.T) {
	p := build(t, `
PROGRAM P
  INTEGER X
  X = F(3) + 1
END
INTEGER FUNCTION F(N)
  INTEGER N
  F = N*2
  RETURN
END
`)
	f := findProc(t, p, "F")
	if f.Result == nil || f.Result.Kind != ir.ResultVar {
		t.Fatalf("result var: %+v", f.Result)
	}
	// Ret should use [result, formal N] (no globals declared).
	var ret *ir.Instr
	for _, b := range f.Blocks {
		if tm := b.Terminator(); tm != nil && tm.Op == ir.OpRet {
			ret = tm
		}
	}
	if ret == nil || len(ret.Args) != 2 {
		t.Fatalf("ret: %v", ret)
	}
	main := findProc(t, p, "P")
	if countOps(main, ir.OpCall) != 1 {
		t.Fatalf("main should contain the function call:\n%s", main)
	}
}

func TestLowerParameterFoldsToLiteral(t *testing.T) {
	p := build(t, `
PROGRAM P
  PARAMETER (N = 100)
  INTEGER X
  X = N
  CALL S(N)
END
SUBROUTINE S(A)
  INTEGER A
  A = A + 1
  RETURN
END
`)
	main := findProc(t, p, "P")
	var call *ir.Instr
	for _, b := range main.Blocks {
		for _, i := range b.Instrs {
			if i.Op == ir.OpCall {
				call = i
			}
		}
	}
	if call.Args[0].Const == nil || call.Args[0].Const.Int != 100 || !call.Args[0].Literal {
		t.Fatalf("PARAMETER actual should be a literal 100: %v", call.Args[0])
	}
}

func TestLowerDataInit(t *testing.T) {
	p := build(t, `
PROGRAM P
  INTEGER N
  DATA N /42/
  N = N + 1
END
`)
	main := findProc(t, p, "P")
	first := main.Entry.Instrs[0]
	if first.Op != ir.OpCopy || first.Args[0].Const == nil || first.Args[0].Const.Int != 42 {
		t.Fatalf("DATA init not lowered first: %v", first)
	}
}

func TestLowerTypeConversion(t *testing.T) {
	p := build(t, `
PROGRAM P
  INTEGER N
  REAL X
  X = N
  N = X
END
`)
	main := findProc(t, p, "P")
	if countOps(main, ir.OpI2R) != 1 || countOps(main, ir.OpR2I) != 1 {
		t.Fatalf("conversions:\n%s", main)
	}
}

// --- SSA tests ------------------------------------------------------------

func TestSSAPhiAtJoin(t *testing.T) {
	p := buildSSA(t, `
PROGRAM P
  INTEGER A, B
  B = 0
  IF (B .GT. 0) THEN
    A = 1
  ELSE
    A = 2
  ENDIF
  B = A
END
`, ir.WorstCase)
	main := findProc(t, p, "P")
	phis := countOps(main, ir.OpPhi)
	if phis == 0 {
		t.Fatalf("expected a phi for A at the join:\n%s", main)
	}
	// The phi for A must merge two distinct values.
	for _, b := range main.Blocks {
		for _, i := range b.Instrs {
			if i.Op == ir.OpPhi && i.Var.Name == "A" {
				if len(i.Args) != 2 || i.Args[0].Val == nil || i.Args[1].Val == nil {
					t.Fatalf("phi args: %v", i.Args)
				}
				if i.Args[0].Val == i.Args[1].Val {
					t.Fatalf("phi should merge distinct defs")
				}
			}
		}
	}
}

func TestSSALoopPhi(t *testing.T) {
	p := buildSSA(t, `
PROGRAM P
  INTEGER I, S
  S = 0
  DO I = 1, 10
    S = S + 1
  ENDDO
  I = S
END
`, ir.WorstCase)
	main := findProc(t, p, "P")
	// S and I both need phis in the loop header.
	var headerPhis int
	for _, b := range main.Blocks {
		if len(b.Preds) != 2 {
			continue
		}
		for _, i := range b.Instrs {
			if i.Op == ir.OpPhi && (i.Var.Name == "S" || i.Var.Name == "I") {
				headerPhis++
			}
		}
	}
	if headerPhis < 2 {
		t.Fatalf("expected phis for I and S in header, got %d:\n%s", headerPhis, main)
	}
}

func TestSSAEntryValues(t *testing.T) {
	p := buildSSA(t, `
PROGRAM P
  COMMON /G/ GV
  INTEGER GV
  CALL S(1)
END
SUBROUTINE S(A)
  INTEGER A, L
  COMMON /G/ GV
  INTEGER GV
  L = A + GV
  RETURN
END
`, ir.WorstCase)
	s := findProc(t, p, "S")
	if len(s.EntryValues) == 0 {
		t.Fatal("no entry values")
	}
	for _, f := range s.Formals {
		v := s.EntryValues[f.ID]
		if v == nil || v.Kind != ir.EntryDef {
			t.Fatalf("formal %s entry value: %v", f.Name, v)
		}
	}
	for _, gv := range s.GlobalVars {
		v := s.EntryValues[gv.ID]
		if v == nil || v.Kind != ir.EntryDef {
			t.Fatalf("global %s entry value: %v", gv.Name, v)
		}
	}
	// Locals start undefined.
	for _, v := range s.Vars {
		if v.Kind == ir.LocalVar {
			if ev := s.EntryValues[v.ID]; ev == nil || ev.Kind != ir.UndefDef {
				t.Fatalf("local %s entry value: %v", v.Name, ev)
			}
		}
	}
}

func TestSSACallDefsWorstCaseVsNone(t *testing.T) {
	src := `
PROGRAM P
  COMMON /G/ GV
  INTEGER GV, X
  X = 1
  CALL S(X)
  X = X + GV
END
SUBROUTINE S(A)
  INTEGER A
  COMMON /G/ GV
  INTEGER GV
  GV = A
  RETURN
END
`
	// Worst case: the call kills both X (by-ref actual) and GV.
	p := buildSSA(t, src, ir.WorstCase)
	main := findProc(t, p, "P")
	var call *ir.Instr
	for _, b := range main.Blocks {
		for _, i := range b.Instrs {
			if i.Op == ir.OpCall {
				call = i
			}
		}
	}
	defs := 0
	for _, d := range call.CallDefs {
		if d != nil {
			defs++
		}
	}
	if defs != 2 {
		t.Fatalf("worst case: %d call defs, want 2 (X and GV)\n%s", defs, main)
	}
	// A "nothing modified" oracle: no call defs; uses of X after the
	// call see the pre-call value.
	p2 := buildSSA(t, src, noModOracle{})
	main2 := findProc(t, p2, "P")
	var call2, add *ir.Instr
	for _, b := range main2.Blocks {
		for _, i := range b.Instrs {
			if i.Op == ir.OpCall {
				call2 = i
			}
			if i.Op == ir.OpAdd {
				add = i
			}
		}
	}
	for _, d := range call2.CallDefs {
		if d != nil {
			t.Fatalf("noMod: unexpected call def %v", d)
		}
	}
	if add.Args[0].Val == nil || add.Args[0].Val.Kind != ir.InstrDef {
		t.Fatalf("X use after call should see the original def: %v", add.Args[0].Val)
	}
}

type noModOracle struct{}

func (noModOracle) ModifiesFormal(*ir.Proc, int) bool           { return false }
func (noModOracle) ModifiesGlobal(*ir.Proc, *ir.GlobalVar) bool { return false }

func TestSSAUsesRecorded(t *testing.T) {
	p := buildSSA(t, `
PROGRAM P
  INTEGER A, B
  A = 1
  B = A + A
END
`, ir.WorstCase)
	main := findProc(t, p, "P")
	var def *ir.Value
	for _, b := range main.Blocks {
		for _, i := range b.Instrs {
			if i.Op == ir.OpCopy && i.Var.Name == "A" {
				def = i.Dst
			}
		}
	}
	if def == nil {
		t.Fatal("no def of A")
	}
	// A is used twice by the add and once by Ret (A outlives nothing,
	// actually locals are not in RetVars) — so exactly 2 uses.
	if len(def.Uses) != 2 {
		t.Fatalf("uses of A: %d, want 2", len(def.Uses))
	}
}

func TestBranchToSameTargetBothArms(t *testing.T) {
	// IF (cond) GOTO 10 directly followed by 10 CONTINUE produces a
	// branch whose arms meet immediately; SSA must fill both phi slots.
	p := buildSSA(t, `
PROGRAM P
  INTEGER A
  A = 1
  IF (A .GT. 0) GOTO 10
10 A = A + 1
END
`, ir.WorstCase)
	main := findProc(t, p, "P")
	for _, b := range main.Blocks {
		for _, i := range b.Instrs {
			if i.Op != ir.OpPhi {
				continue
			}
			for j, a := range i.Args {
				if a.Val == nil {
					t.Fatalf("phi arg %d unfilled: %v\n%s", j, i, main)
				}
			}
		}
	}
}

func TestSrcLinesCounted(t *testing.T) {
	p := build(t, `
PROGRAM P
  INTEGER A
  A = 1
  IF (A .GT. 0) THEN
    A = 2
  ENDIF
END
`)
	main := findProc(t, p, "P")
	// header + END + 1 decl + (assign, if, assign, endif) = 7.
	if main.SrcLines != 7 {
		t.Fatalf("SrcLines = %d, want 7", main.SrcLines)
	}
}

// countingLit is an integer literal that counts the calls to its Pos.
type countingLit struct {
	*ast.IntLit
	calls *int
}

func (c countingLit) Pos() token.Pos {
	*c.calls++
	return c.IntLit.Pos()
}

// TestBinaryChainPosOnce lowers `K = 1 + 2 + … + 2` for k = 100 and
// 400 terms with the leftmost literal swapped, after sema, for one
// that counts the calls to its Pos. Every operator of the chain starts
// at that literal, so every add carries its position; lowering must
// ask for it once per chain, not once per operator, which made a
// k-term sum cost O(k²).
func TestBinaryChainPosOnce(t *testing.T) {
	var calls [2]int
	for i, k := range []int{100, 400} {
		f, err := parser.Parse("PROGRAM P\n  INTEGER K\n  K = 1" + strings.Repeat(" + 2", k-1) + "\nEND\n")
		if err != nil {
			t.Fatal(err)
		}
		sp, err := sema.Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		e := f.Units[0].Body[0].(*ast.AssignStmt).RHS.(*ast.BinaryExpr)
		for {
			l, ok := e.X.(*ast.BinaryExpr)
			if !ok {
				break
			}
			e = l
		}
		lit := e.X.(*ast.IntLit)
		e.X = countingLit{IntLit: lit, calls: &calls[i]}
		proc := findProc(t, Build(sp), "P")
		if n := countOps(proc, ir.OpAdd); n != k-1 {
			t.Fatalf("k = %d: %d adds, want %d", k, n, k-1)
		}
		for _, b := range proc.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpAdd && in.Pos != lit.LitPos {
					t.Fatalf("k = %d: add at %v, want the chain's start %v", k, in.Pos, lit.LitPos)
				}
			}
		}
	}
	if calls[0] != calls[1] || calls[0] > 1 {
		t.Fatalf("lowering asked the chain's first literal for its position %d times at k = 100 and %d at k = 400, want once each", calls[0], calls[1])
	}
}
