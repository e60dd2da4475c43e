package sym

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ipcp/internal/core/lattice"
	"ipcp/internal/ir"
)

func TestConstFolding(t *testing.T) {
	e := MakeOp(ir.OpAdd, NewConst(2), NewConst(3))
	c, ok := e.(*Const)
	if !ok || c.Val != 5 {
		t.Fatalf("2+3 = %v", e)
	}
	if e := MakeOp(ir.OpDiv, NewConst(1), NewConst(0)); e != nil {
		t.Fatalf("1/0 should fail to fold, got %v", e)
	}
	if e := MakeOp(ir.OpPow, NewConst(2), NewConst(-1)); e != nil {
		t.Fatalf("2**-1 should fail to fold, got %v", e)
	}
	if e := MakeOp(ir.OpMod, NewConst(7), NewConst(3)).(*Const); e.Val != 1 {
		t.Fatalf("mod(7,3) = %v", e)
	}
	if e := MakeOp(ir.OpMin, NewConst(4), NewConst(-2), NewConst(9)).(*Const); e.Val != -2 {
		t.Fatalf("min = %v", e)
	}
}

// TestPowMatchesRepeatedMultiplication checks the square-and-multiply
// fold against multiplying 1 by the base exponent times, the fold it
// replaced, wrapped overflow included.
func TestPowMatchesRepeatedMultiplication(t *testing.T) {
	for _, x := range []int64{-3, -2, -1, 0, 1, 2, 3, 7, 1<<31 + 1} {
		want := int64(1)
		for y := int64(0); y <= 70; y++ {
			if got, ok := FoldInt(ir.OpPow, []int64{x, y}); !ok || got != want {
				t.Fatalf("FoldInt(pow, %d, %d) = %d,%v want %d,true", x, y, got, ok, want)
			}
			want *= x
		}
	}
}

// TestKeySpellings pins the canonical key of every expression kind,
// including the operand order of commutative operators, which MakeOp
// sorts by key and Equal relies on. No key is persisted, so a spelling
// may change as long as equal expressions keep equal keys.
func TestKeySpellings(t *testing.T) {
	g := &ir.GlobalVar{ID: 7, Block: "C", Name: "N"}
	f0 := &Formal{Index: 0, Name: "A"}
	f12 := &Formal{Index: 12, Name: "B"}
	for _, tc := range []struct {
		e    Expr
		want string
	}{
		{NewConst(42), "#42"},
		{NewConst(-5), "#-5"},
		{NewConst(math.MinInt64), "#-9223372036854775808"},
		{f0, "f0"},
		{f12, "f12"},
		{&GlobalEntry{G: g}, "g7"},
		{&Unknown{ID: 3}, "u3"},
		{&Unknown{ID: -1}, "u-1"},
		{MakeOp(ir.OpNeg, f0), "(neg f0)"},
		{MakeOp(ir.OpSub, f12, NewConst(-2)), "(sub f12 #-2)"},
		{MakeOp(ir.OpAdd, f12, f0), "(add f0 f12)"},
		{MakeOp(ir.OpMul, MakeOp(ir.OpAdd, &GlobalEntry{G: g}, f0), NewConst(-3)), "(mul #-3 (add f0 g7))"},
		{MakeOp(ir.OpMax, f12, &Unknown{ID: 2}, MakeOp(ir.OpMin, f0, NewConst(9))), "(max (min #9 f0) f12 u2)"},
	} {
		if got := tc.e.Key(); got != tc.want {
			t.Errorf("%s: Key() = %q, want %q", tc.e, got, tc.want)
		}
	}
}

func TestCommutativeCanonicalization(t *testing.T) {
	f := &Formal{Index: 0, Name: "A"}
	g := &Formal{Index: 1, Name: "B"}
	ab := MakeOp(ir.OpAdd, f, g)
	ba := MakeOp(ir.OpAdd, g, f)
	if !Equal(ab, ba) {
		t.Fatalf("a+b and b+a should be congruent: %q vs %q", ab.Key(), ba.Key())
	}
	// Subtraction is not commutative.
	if Equal(MakeOp(ir.OpSub, f, g), MakeOp(ir.OpSub, g, f)) {
		t.Fatal("a-b and b-a must differ")
	}
}

func TestIdentities(t *testing.T) {
	f := &Formal{Index: 0, Name: "A"}
	if e := MakeOp(ir.OpAdd, f, NewConst(0)); !Equal(e, f) {
		t.Errorf("a+0 = %v", e)
	}
	if e := MakeOp(ir.OpMul, NewConst(1), f); !Equal(e, f) {
		t.Errorf("1*a = %v", e)
	}
	if e := MakeOp(ir.OpMul, f, NewConst(0)); !Equal(e, NewConst(0)) {
		t.Errorf("a*0 = %v", e)
	}
	if e := MakeOp(ir.OpSub, f, NewConst(0)); !Equal(e, f) {
		t.Errorf("a-0 = %v", e)
	}
}

func TestUnknownCongruence(t *testing.T) {
	u1, u2 := &Unknown{ID: 10}, &Unknown{ID: 10}
	u3 := &Unknown{ID: 11}
	if !Equal(u1, u2) || Equal(u1, u3) {
		t.Fatal("unknown identity by ID broken")
	}
	// phi(x, x) congruence: the same unknown through two ops.
	a := MakeOp(ir.OpAdd, u1, NewConst(1))
	b := MakeOp(ir.OpAdd, u2, NewConst(1))
	if !Equal(a, b) {
		t.Fatal("u+1 twice should be congruent")
	}
}

func TestSupport(t *testing.T) {
	g := &ir.GlobalVar{ID: 3, Block: "BLK", Name: "G"}
	e := MakeOp(ir.OpAdd,
		MakeOp(ir.OpMul, &Formal{Index: 0}, NewConst(2)),
		&GlobalEntry{G: g})
	leaves, closed := Support(e)
	if !closed {
		t.Fatal("expression should be closed")
	}
	if len(leaves) != 2 {
		t.Fatalf("support: %v", leaves)
	}
	// Unknown poisons closure.
	e2 := MakeOp(ir.OpAdd, e, &Unknown{ID: 1})
	if IsClosed(e2) {
		t.Fatal("expression with unknown should not be closed")
	}
	// Duplicate leaves are reported once.
	e3 := MakeOp(ir.OpAdd, &Formal{Index: 0}, &Formal{Index: 0})
	leaves3, _ := Support(e3)
	if len(leaves3) != 1 {
		t.Fatalf("dedup: %v", leaves3)
	}
	if _, closed := Support(nil); closed {
		t.Fatal("nil expression is not closed")
	}
}

// mapEnv is a test Env.
type mapEnv struct {
	formals map[int]lattice.Value
	globals map[int]lattice.Value
}

func (m mapEnv) FormalValue(i int) lattice.Value {
	if v, ok := m.formals[i]; ok {
		return v
	}
	return lattice.Bottom
}
func (m mapEnv) GlobalValue(g *ir.GlobalVar) lattice.Value {
	if v, ok := m.globals[g.ID]; ok {
		return v
	}
	return lattice.Bottom
}

func TestEval(t *testing.T) {
	g := &ir.GlobalVar{ID: 0, Block: "B", Name: "G"}
	// e = 2*f0 + g
	e := MakeOp(ir.OpAdd, MakeOp(ir.OpMul, NewConst(2), &Formal{Index: 0}), &GlobalEntry{G: g})

	env := mapEnv{
		formals: map[int]lattice.Value{0: lattice.OfInt(10)},
		globals: map[int]lattice.Value{0: lattice.OfInt(1)},
	}
	if v := Eval(e, env); !v.Equal(lattice.OfInt(21)) {
		t.Fatalf("eval: %v", v)
	}

	// A ⊥ leaf forces ⊥.
	env.globals[0] = lattice.Bottom
	if v := Eval(e, env); !v.IsBottom() {
		t.Fatalf("bottom leaf: %v", v)
	}

	// A ⊤ leaf (with no ⊥) keeps the optimistic ⊤.
	env.globals[0] = lattice.Top
	if v := Eval(e, env); !v.IsTop() {
		t.Fatalf("top leaf: %v", v)
	}

	// ⊥ beats ⊤.
	env.formals[0] = lattice.Bottom
	if v := Eval(e, env); !v.IsBottom() {
		t.Fatalf("bottom beats top: %v", v)
	}

	// Unknowns are ⊥.
	if v := Eval(&Unknown{ID: 1}, env); !v.IsBottom() {
		t.Fatalf("unknown: %v", v)
	}
	// nil is ⊥.
	if v := Eval(nil, env); !v.IsBottom() {
		t.Fatalf("nil: %v", v)
	}
	// Division by zero during evaluation is ⊥.
	d := MakeOp(ir.OpDiv, NewConst(1), &Formal{Index: 1})
	env.formals[1] = lattice.OfInt(0)
	if v := Eval(d, env); !v.IsBottom() {
		t.Fatalf("div by zero: %v", v)
	}
	// A logical constant flowing into arithmetic is ⊥ (integers only).
	env.formals[1] = lattice.OfBool(true)
	if v := Eval(d, env); !v.IsBottom() {
		t.Fatalf("bool leaf: %v", v)
	}
}

func TestSubstitute(t *testing.T) {
	g := &ir.GlobalVar{ID: 0, Block: "B", Name: "G"}
	e := MakeOp(ir.OpAdd, &Formal{Index: 0}, &GlobalEntry{G: g})
	// f0 := 3, g stays.
	r := Substitute(e, func(i int) Expr {
		if i == 0 {
			return NewConst(3)
		}
		return nil
	}, nil)
	leaves, closed := Support(r)
	if !closed || len(leaves) != 1 || leaves[0].Global != g {
		t.Fatalf("substitute: %v (leaves %v)", r, leaves)
	}
	// Full substitution folds.
	r2 := Substitute(e, func(int) Expr { return NewConst(3) },
		func(*ir.GlobalVar) Expr { return NewConst(4) })
	if c, ok := r2.(*Const); !ok || c.Val != 7 {
		t.Fatalf("folded substitute: %v", r2)
	}
	// Substitution that triggers a failed fold returns nil.
	d := MakeOp(ir.OpDiv, NewConst(1), &Formal{Index: 0})
	if r := Substitute(d, func(int) Expr { return NewConst(0) }, nil); r != nil {
		t.Fatalf("div-by-zero substitute: %v", r)
	}
}

// genExpr builds a random well-formed expression for property tests.
func genExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			return NewConst(int64(r.Intn(7) - 3))
		case 1:
			return &Formal{Index: r.Intn(3)}
		default:
			return &Unknown{ID: r.Intn(3)}
		}
	}
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpMin, ir.OpMax}
	op := ops[r.Intn(len(ops))]
	e := MakeOp(op, genExpr(r, depth-1), genExpr(r, depth-1))
	if e == nil {
		return NewConst(1)
	}
	return e
}

type exprBox struct{ E Expr }

func (exprBox) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(exprBox{E: genExpr(r, 3)})
}

// Property: Key equality is a congruence for MakeOp.
func TestKeyCongruenceProperty(t *testing.T) {
	f := func(a, b exprBox) bool {
		e1 := MakeOp(ir.OpAdd, a.E, b.E)
		e2 := MakeOp(ir.OpAdd, a.E, b.E)
		return Equal(e1, e2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: evaluation under a total constant environment never yields ⊤.
func TestEvalTotalEnvProperty(t *testing.T) {
	env := mapEnv{formals: map[int]lattice.Value{
		0: lattice.OfInt(2), 1: lattice.OfInt(-1), 2: lattice.OfInt(5),
	}}
	f := func(b exprBox) bool {
		v := Eval(b.E, env)
		return !v.IsTop()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Substitute with identity mappings preserves the key.
func TestSubstituteIdentityProperty(t *testing.T) {
	f := func(b exprBox) bool {
		r := Substitute(b.E, nil, nil)
		return Equal(r, b.E)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
