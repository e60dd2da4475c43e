package ir

import (
	"strings"
	"testing"
)

func TestVerifyAcceptsWellFormed(t *testing.T) {
	p, _, _ := buildCounterProc()
	if err := p.Verify(); err != nil {
		t.Fatalf("pre-SSA: %v", err)
	}
	p.BuildSSA(WorstCase)
	if err := p.Verify(); err != nil {
		t.Fatalf("post-SSA: %v", err)
	}
}

func expectVerifyError(t *testing.T, p *Proc, want string) {
	t.Helper()
	err := p.Verify()
	if err == nil {
		t.Fatalf("expected error containing %q, got nil", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

func TestVerifyCatchesAsymmetricEdges(t *testing.T) {
	p, _, _ := buildCounterProc()
	// Drop one pred entry without touching succs.
	b1 := p.Blocks[1]
	b1.Preds = b1.Preds[:1]
	expectVerifyError(t, p, "asymmetric")
}

func TestVerifyCatchesMidBlockTerminator(t *testing.T) {
	p, _, _ := buildCounterProc()
	b0 := p.Blocks[0]
	// Insert a jump before the real terminator.
	b0.Instrs = append([]*Instr{{Op: OpJmp, Block: b0}}, b0.Instrs...)
	expectVerifyError(t, p, "mid-block")
}

func TestVerifyCatchesBranchArity(t *testing.T) {
	p, _, _ := buildCounterProc()
	b1 := p.Blocks[1]
	b1.Succs = b1.Succs[:1] // branch with one successor
	// Also fix the other side to keep symmetry and isolate the arity check.
	p.Blocks[3].Preds = nil
	expectVerifyError(t, p, "has 1 successors")
}

func TestVerifyCatchesMissingEntry(t *testing.T) {
	p := &Proc{Name: "X"}
	expectVerifyError(t, p, "no entry")
}

func TestVerifyCatchesPhiAfterNonPhi(t *testing.T) {
	p, _, i := buildCounterProc()
	p.BuildSSA(WorstCase)
	b1 := p.Blocks[1]
	// Move the phi after the compare.
	if b1.Instrs[0].Op != OpPhi {
		t.Fatal("expected phi at head")
	}
	b1.Instrs[0], b1.Instrs[1] = b1.Instrs[1], b1.Instrs[0]
	_ = i
	expectVerifyError(t, p, "phi after non-phi")
}

func TestVerifyCatchesUndefinedValue(t *testing.T) {
	p, _, _ := buildCounterProc()
	p.BuildSSA(WorstCase)
	// Fabricate a use of a value from nowhere.
	rogue := &Value{ID: 999, Var: p.Vars[0]}
	b3 := p.Blocks[3]
	b3.Instrs[0].Args[0].Val = rogue
	expectVerifyError(t, p, "undefined value")
}

func TestVerifyCatchesEmptyOperand(t *testing.T) {
	p, _, _ := buildCounterProc()
	b0 := p.Blocks[0]
	b0.Instrs[0].Args[0] = Operand{}
	expectVerifyError(t, p, "empty operand")
}

func TestVerifyCatchesCallWithoutCallee(t *testing.T) {
	prog := NewProgram()
	p := &Proc{Name: "C", Kind: SubProc}
	prog.AddProc(p)
	b := p.NewBlock()
	p.Entry = b
	b.Append(&Instr{Op: OpCall, NumActuals: 0})
	b.Append(&Instr{Op: OpRet})
	expectVerifyError(t, p, "without callee")
}

// The dense-ID invariant: per-block, per-variable and per-value state is
// indexed by ID, so an ID that disagrees with its slot must fail Verify,
// naming the procedure and the block or variable.
func TestVerifyCatchesSwappedBlockIDs(t *testing.T) {
	p, _, _ := buildCounterProc()
	p.Blocks[1].ID, p.Blocks[2].ID = 2, 1
	expectVerifyError(t, p, "COUNT: block b2 is Blocks[1]")
}

func TestVerifyCatchesStaleVarID(t *testing.T) {
	p, _, _ := buildCounterProc()
	p.Vars = append(p.Vars, &Var{ID: 1, Name: "STALE", Kind: LocalVar, Type: Int})
	expectVerifyError(t, p, "COUNT: variable STALE has ID 1 but is Vars[3]")
}

func TestVerifyCatchesEntryValueCount(t *testing.T) {
	p, _, _ := buildCounterProc()
	p.BuildSSA(WorstCase)
	p.EntryValues = p.EntryValues[:1]
	expectVerifyError(t, p, "COUNT: 1 entry values for 3 variables")
}

func TestVerifyCatchesValueIDBeyondNumValues(t *testing.T) {
	p, _, _ := buildCounterProc()
	p.BuildSSA(WorstCase)
	def := p.Blocks[0].Instrs[0]
	def.Dst = &Value{ID: p.NumValues(), Var: def.Var, Def: def}
	expectVerifyError(t, p, "want below NumValues")
}
