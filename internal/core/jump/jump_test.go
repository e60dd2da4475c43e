package jump

import (
	"testing"

	"ipcp/internal/ir"
	"ipcp/internal/sym"
)

// tab builds the tests' operator nodes.
var tab = new(sym.Table)

func litOperand(v int64) ir.Operand {
	return ir.ConstOperand(ir.IntConst(v))
}

func varOperand() ir.Operand {
	return ir.VarOperand(&ir.Var{Name: "X", Type: ir.Int})
}

func TestFilterLiteral(t *testing.T) {
	// Accepts only source literals.
	if e := Filter(Literal, litOperand(5), sym.NewConst(5)); e == nil {
		t.Error("literal operand rejected")
	}
	// A constant-valued variable is not a literal.
	if e := Filter(Literal, varOperand(), sym.NewConst(5)); e != nil {
		t.Errorf("non-literal operand accepted: %v", e)
	}
	// Real literals are not integer constants.
	realOp := ir.ConstOperand(ir.RealConst(1.5))
	if e := Filter(Literal, realOp, nil); e != nil {
		t.Errorf("real literal accepted: %v", e)
	}
}

func TestFilterIntraprocedural(t *testing.T) {
	if e := Filter(Intraprocedural, varOperand(), sym.NewConst(9)); e == nil {
		t.Error("constant expression rejected")
	}
	f := &sym.Formal{Index: 0}
	if e := Filter(Intraprocedural, varOperand(), f); e != nil {
		t.Errorf("formal accepted by intraprocedural flavor: %v", e)
	}
}

func TestFilterPassThrough(t *testing.T) {
	f := &sym.Formal{Index: 1}
	g := &sym.GlobalEntry{G: &ir.GlobalVar{ID: 0, Block: "B", Name: "G"}}
	if e := Filter(PassThrough, varOperand(), f); e == nil {
		t.Error("pass-through formal rejected")
	}
	if e := Filter(PassThrough, varOperand(), g); e == nil {
		t.Error("pass-through global rejected")
	}
	if e := Filter(PassThrough, varOperand(), sym.NewConst(3)); e == nil {
		t.Error("constant rejected")
	}
	// 2*f is polynomial, not pass-through.
	poly := tab.MakeOp(ir.OpMul, sym.NewConst(2), f)
	if e := Filter(PassThrough, varOperand(), poly); e != nil {
		t.Errorf("polynomial accepted by pass-through flavor: %v", e)
	}
}

func TestFilterPolynomial(t *testing.T) {
	f := &sym.Formal{Index: 0}
	poly := tab.MakeOp(ir.OpAdd, tab.MakeOp(ir.OpMul, sym.NewConst(2), f), sym.NewConst(1))
	if e := Filter(Polynomial, varOperand(), poly); e == nil {
		t.Error("closed polynomial rejected")
	}
	open := tab.MakeOp(ir.OpAdd, f, &sym.Unknown{ID: 3})
	if e := Filter(Polynomial, varOperand(), open); e != nil {
		t.Errorf("open expression accepted: %v", e)
	}
	if e := Filter(Polynomial, varOperand(), nil); e != nil {
		t.Errorf("nil expression accepted: %v", e)
	}
}

// Containment: anything a simpler flavor accepts, the stronger flavors
// accept too (with an equivalent result).
func TestFilterContainment(t *testing.T) {
	f := &sym.Formal{Index: 0}
	cases := []struct {
		op ir.Operand
		e  sym.Expr
	}{
		{litOperand(5), sym.NewConst(5)},
		{varOperand(), sym.NewConst(7)},
		{varOperand(), f},
		{varOperand(), tab.MakeOp(ir.OpMul, f, sym.NewConst(3))},
		{varOperand(), &sym.Unknown{ID: 1}},
	}
	order := []Kind{Literal, Intraprocedural, PassThrough, Polynomial}
	for ci, c := range cases {
		accepted := false
		for _, k := range order {
			got := Filter(k, c.op, c.e)
			if accepted && got == nil {
				t.Errorf("case %d: %v rejects what a simpler flavor accepted", ci, k)
			}
			if got != nil {
				accepted = true
			}
		}
	}
}

func buildStoreProg() (*ir.Program, *ir.Proc, *ir.GlobalVar) {
	prog := ir.NewProgram()
	g := &ir.GlobalVar{ID: 0, Block: "B", Name: "G", Type: ir.Int, Size: 1}
	prog.Globals = []*ir.GlobalVar{g}
	prog.ScalarGlobals = []*ir.GlobalVar{g}
	callee := &ir.Proc{Name: "CALLEE"}
	prog.AddProc(callee)
	callee.Formals = []*ir.Var{{Name: "A", Kind: ir.FormalVar, Type: ir.Int, Index: 0}}
	return prog, callee, g
}

func TestStoreEvaluatesConstantReturns(t *testing.T) {
	prog, callee, g := buildStoreProg()
	s := NewStore(prog)
	s.Set(callee, &Returns{
		Formal: []sym.Expr{sym.NewConst(7)},
		Global: map[*ir.GlobalVar]sym.Expr{g: sym.NewConst(9)},
	})

	call := &ir.Instr{Op: ir.OpCall, Callee: callee, NumActuals: 1}
	def := &ir.Value{CalleeFormal: 0}
	argExpr := func(i int) sym.Expr { return sym.NewConst(0) }

	if e, ok := s.CallDefExpr(tab, call, def, argExpr).(*sym.Const); !ok || e.Val != 7 {
		t.Errorf("formal return JF: %v", e)
	}
	gdef := &ir.Value{CalleeFormal: -1, CalleeGlobal: g}
	if e, ok := s.CallDefExpr(tab, call, gdef, argExpr).(*sym.Const); !ok || e.Val != 9 {
		t.Errorf("global return JF: %v", e)
	}
}

func TestStoreSubstitutesActuals(t *testing.T) {
	prog, callee, _ := buildStoreProg()
	s := NewStore(prog)
	// R(A) = A + 1 — constant only when the actual folds.
	s.Set(callee, &Returns{
		Formal: []sym.Expr{tab.MakeOp(ir.OpAdd, &sym.Formal{Index: 0}, sym.NewConst(1))},
	})
	call := &ir.Instr{Op: ir.OpCall, Callee: callee, NumActuals: 1}
	def := &ir.Value{CalleeFormal: 0}

	constArg := func(i int) sym.Expr { return sym.NewConst(41) }
	if e, ok := s.CallDefExpr(tab, call, def, constArg).(*sym.Const); !ok || e.Val != 42 {
		t.Errorf("constant actual: %v", e)
	}

	// §3.2's limitation: an actual that is a caller formal never
	// evaluates to a constant.
	formalArg := func(i int) sym.Expr { return &sym.Formal{Index: 2} }
	if e := s.CallDefExpr(tab, call, def, formalArg); e != nil {
		t.Errorf("caller-parameter actual should be nil, got %v", e)
	}

	// Unknown actual likewise.
	nilArg := func(i int) sym.Expr { return nil }
	if e := s.CallDefExpr(tab, call, def, nilArg); e != nil {
		t.Errorf("unknown actual should be nil, got %v", e)
	}
}

func TestStoreMissingProcedure(t *testing.T) {
	prog, callee, _ := buildStoreProg()
	s := NewStore(prog)
	call := &ir.Instr{Op: ir.OpCall, Callee: callee, NumActuals: 1}
	def := &ir.Value{CalleeFormal: 0}
	if e := s.CallDefExpr(tab, call, def, func(int) sym.Expr { return nil }); e != nil {
		t.Errorf("no return JFs recorded: want nil, got %v", e)
	}
	if s.Get(callee) != nil {
		t.Error("Get should be nil before Set")
	}
}

func TestKindStrings(t *testing.T) {
	names := map[Kind]string{
		Literal: "literal", Intraprocedural: "intraprocedural",
		PassThrough: "pass-through", Polynomial: "polynomial",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d: %q", int(k), k.String())
		}
	}
}
