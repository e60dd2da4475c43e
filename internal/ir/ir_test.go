package ir

import (
	"strings"
	"testing"
)

// buildCounterProc constructs, by hand:
//
//	sub COUNT(n)
//	  b0: i = copy 0 ; jmp b1
//	  b1: t = lt i, n ; br t, b2, b3
//	  b2: i = add i, 1 ; jmp b1
//	  b3: ret [n]
func buildCounterProc() (*Proc, *Var, *Var) {
	prog := NewProgram()
	p := &Proc{Name: "COUNT", Kind: SubProc}
	prog.AddProc(p)
	n := p.NewVar("N", FormalVar, Int)
	n.Index = 0
	p.Formals = []*Var{n}
	i := p.NewVar("I", LocalVar, Int)
	t := p.NewVar("T", TempVar, Bool)
	p.RetVars = []*Var{n}

	b0, b1, b2, b3 := p.NewBlock(), p.NewBlock(), p.NewBlock(), p.NewBlock()
	p.Entry = b0
	b0.Append(&Instr{Op: OpCopy, Var: i, Args: []Operand{ConstOperand(IntConst(0))}})
	b0.Append(&Instr{Op: OpJmp})
	AddEdge(b0, b1)

	b1.Append(&Instr{Op: OpLt, Var: t, Args: []Operand{VarOperand(i), VarOperand(n)}})
	b1.Append(&Instr{Op: OpBr, Args: []Operand{VarOperand(t)}})
	AddEdge(b1, b2)
	AddEdge(b1, b3)

	b2.Append(&Instr{Op: OpAdd, Var: i, Args: []Operand{VarOperand(i), ConstOperand(IntConst(1))}})
	b2.Append(&Instr{Op: OpJmp})
	AddEdge(b2, b1)

	ret := Operand{Var: n, Synthetic: true}
	b3.Append(&Instr{Op: OpRet, Args: []Operand{ret}})
	return p, n, i
}

func TestBuildSSAByHand(t *testing.T) {
	p, n, i := buildCounterProc()
	p.BuildSSA(WorstCase)

	// The loop header needs a phi for I.
	phis := 0
	for _, instr := range p.Blocks[1].Instrs {
		if instr.Op == OpPhi {
			phis++
			if instr.Var != i {
				t.Errorf("phi for %v, want I", instr.Var)
			}
			if len(instr.Args) != 2 || instr.Args[0].Val == nil || instr.Args[1].Val == nil {
				t.Errorf("phi args unfilled: %v", instr.Args)
			}
		}
	}
	if phis != 1 {
		t.Fatalf("header phis = %d, want 1 (only I merges)\n%s", phis, p)
	}
	if p.EntryValues[n.ID] == nil || p.EntryValues[n.ID].Kind != EntryDef {
		t.Error("formal entry value missing")
	}
	// Building twice must panic (the IR is consumed).
	defer func() {
		if recover() == nil {
			t.Error("second BuildSSA should panic")
		}
	}()
	p.BuildSSA(WorstCase)
}

func TestPrintForms(t *testing.T) {
	p, _, _ := buildCounterProc()
	p.BuildSSA(WorstCase)
	out := p.String()
	for _, want := range []string{"subroutine COUNT(int N)", "phi(", "br ", "jmp ", "ret ["} {
		if !strings.Contains(out, want) {
			t.Errorf("print missing %q:\n%s", want, out)
		}
	}
}

func TestPrintArrayOps(t *testing.T) {
	prog := NewProgram()
	p := &Proc{Name: "A", Kind: SubProc}
	prog.AddProc(p)
	arr := p.NewVar("BUF", LocalVar, IntArray)
	tmp := p.NewVar("t0", TempVar, Int)
	b := p.NewBlock()
	p.Entry = b
	b.Append(&Instr{Op: OpALoad, Var: tmp, Args: []Operand{VarOperand(arr), ConstOperand(IntConst(1))}})
	b.Append(&Instr{Op: OpAStore, Var: arr, Args: []Operand{VarOperand(tmp), ConstOperand(IntConst(2))}})
	b.Append(&Instr{Op: OpStop})
	out := p.String()
	if !strings.Contains(out, "t0 = BUF(1)") {
		t.Errorf("aload print:\n%s", out)
	}
	if !strings.Contains(out, "BUF(2) = t0") {
		t.Errorf("astore print:\n%s", out)
	}
}

func TestCloneStripSSA(t *testing.T) {
	p, _, _ := buildCounterProc()
	p.BuildSSA(WorstCase)
	np := p.CloneStripSSA(nil)

	// No phis, no SSA values; same block structure.
	if len(np.Blocks) != len(p.Blocks) {
		t.Fatalf("blocks: %d vs %d", len(np.Blocks), len(p.Blocks))
	}
	for _, b := range np.Blocks {
		for _, i := range b.Instrs {
			if i.Op == OpPhi {
				t.Fatal("phi survived clone")
			}
			if i.Dst != nil {
				t.Fatal("SSA value survived clone")
			}
			for _, a := range i.Args {
				if a.Val != nil {
					t.Fatal("SSA use survived clone")
				}
			}
		}
	}
	// Vars are fresh objects with the same names.
	if np.Formals[0] == p.Formals[0] || np.Formals[0].Name != "N" {
		t.Error("formals not deep-copied")
	}
	// The clone is analyzable from scratch.
	np.BuildSSA(WorstCase)
}

func TestCloneKeepFilter(t *testing.T) {
	p, _, _ := buildCounterProc()
	p.BuildSSA(WorstCase)
	np := p.CloneStripSSA(func(i *Instr) bool { return i.Op != OpAdd })
	if strings.Contains(np.String(), "add") {
		t.Errorf("filtered instruction survived:\n%s", np)
	}
	// Terminators are always kept.
	if np.Blocks[1].Terminator() == nil {
		t.Error("terminator dropped")
	}
}

func TestMergeTrivialJumps(t *testing.T) {
	prog := NewProgram()
	p := &Proc{Name: "M", Kind: SubProc}
	prog.AddProc(p)
	v := p.NewVar("I", LocalVar, Int)
	b0, b1, b2 := p.NewBlock(), p.NewBlock(), p.NewBlock()
	p.Entry = b0
	b0.Append(&Instr{Op: OpCopy, Var: v, Args: []Operand{ConstOperand(IntConst(1))}})
	b0.Append(&Instr{Op: OpJmp})
	AddEdge(b0, b1)
	b1.Append(&Instr{Op: OpCopy, Var: v, Args: []Operand{ConstOperand(IntConst(2))}})
	b1.Append(&Instr{Op: OpJmp})
	AddEdge(b1, b2)
	b2.Append(&Instr{Op: OpRet})

	p.MergeTrivialJumps()
	if len(p.Blocks) != 1 {
		t.Fatalf("blocks after merge: %d\n%s", len(p.Blocks), p)
	}
	if got := len(p.Blocks[0].Instrs); got != 3 { // two copies + ret
		t.Fatalf("instrs: %d\n%s", got, p)
	}
}

func TestMergeKeepsLoops(t *testing.T) {
	prog := NewProgram()
	p := &Proc{Name: "L", Kind: SubProc}
	prog.AddProc(p)
	b0, b1 := p.NewBlock(), p.NewBlock()
	p.Entry = b0
	b0.Append(&Instr{Op: OpJmp})
	AddEdge(b0, b1)
	b1.Append(&Instr{Op: OpJmp})
	AddEdge(b1, b1) // self loop: b1 has 2 preds, cannot merge
	p.MergeTrivialJumps()
	if len(p.Blocks) != 2 {
		t.Fatalf("self-loop merged away:\n%s", p)
	}
}

func TestConstHelpers(t *testing.T) {
	if !IntConst(3).Equal(IntConst(3)) || IntConst(3).Equal(IntConst(4)) {
		t.Error("int equality")
	}
	if IntConst(1).Equal(BoolConst(true)) {
		t.Error("cross-type equality")
	}
	if !RealConst(1.5).Equal(RealConst(1.5)) {
		t.Error("real equality")
	}
	if IntConst(1).Equal(nil) {
		t.Error("nil equality")
	}
	if IntConst(7).String() != "7" || BoolConst(true).String() != "true" {
		t.Error("const strings")
	}
}

func TestTypeMethods(t *testing.T) {
	if !IntArray.IsArray() || Int.IsArray() {
		t.Error("IsArray")
	}
	if IntArray.Elem() != Int || RealArray.Elem() != Real || Bool.Elem() != Bool {
		t.Error("Elem")
	}
	for _, typ := range []Type{Int, Real, Bool, IntArray, RealArray} {
		if typ.String() == "?" {
			t.Errorf("missing name for %d", typ)
		}
	}
}

func TestVarTracked(t *testing.T) {
	p := &Proc{Name: "T"}
	if !p.NewVar("A", FormalVar, Int).Tracked() {
		t.Error("formal should be tracked")
	}
	if p.NewVar("t0", TempVar, Int).Tracked() {
		t.Error("temp should not be tracked")
	}
	if p.NewVar("ARR", LocalVar, IntArray).Tracked() {
		t.Error("array should not be tracked")
	}
}

func TestOperandStrings(t *testing.T) {
	v := &Var{Name: "X"}
	if VarOperand(v).String() != "X" {
		t.Error("var operand string")
	}
	if ConstOperand(IntConst(5)).String() != "5" {
		t.Error("const operand string")
	}
	var empty Operand
	if empty.String() != "<empty>" {
		t.Error("empty operand string")
	}
}

func TestWorstCaseOracle(t *testing.T) {
	if !WorstCase.ModifiesFormal(nil, 0) || !WorstCase.ModifiesGlobal(nil, nil) {
		t.Error("worst case must say yes")
	}
}

func TestCloneProgramRepointsCallees(t *testing.T) {
	prog := NewProgram()
	callee := &Proc{Name: "LEAF", Kind: SubProc}
	prog.AddProc(callee)
	cb := callee.NewBlock()
	callee.Entry = cb
	cb.Append(&Instr{Op: OpRet})

	caller := &Proc{Name: "TOP", Kind: MainProc}
	prog.AddProc(caller)
	b := caller.NewBlock()
	caller.Entry = b
	b.Append(&Instr{Op: OpCall, Callee: callee, NumActuals: 0})
	b.Append(&Instr{Op: OpRet})

	np := CloneProgram(prog)
	if np.Main == nil || np.Main.Name != "TOP" {
		t.Fatal("main lost")
	}
	call := np.Main.Entry.Instrs[0]
	if call.Callee != np.ProcByName["LEAF"] {
		t.Error("callee not repointed into the clone")
	}
	if call.Callee == callee {
		t.Error("callee still points at the original program")
	}
}
