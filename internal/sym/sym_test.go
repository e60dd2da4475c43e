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
	tab := new(Table)
	e := tab.MakeOp(ir.OpAdd, NewConst(2), NewConst(3))
	c, ok := e.(*Const)
	if !ok || c.Val != 5 {
		t.Fatalf("2+3 = %v", e)
	}
	if e := tab.MakeOp(ir.OpDiv, NewConst(1), NewConst(0)); e != nil {
		t.Fatalf("1/0 should fail to fold, got %v", e)
	}
	if e := tab.MakeOp(ir.OpPow, NewConst(2), NewConst(-1)); e != nil {
		t.Fatalf("2**-1 should fail to fold, got %v", e)
	}
	if e := tab.MakeOp(ir.OpMod, NewConst(7), NewConst(3)).(*Const); e.Val != 1 {
		t.Fatalf("mod(7,3) = %v", e)
	}
	if e := tab.MakeOp(ir.OpMin, NewConst(4), NewConst(-2), NewConst(9)).(*Const); e.Val != -2 {
		t.Fatalf("min = %v", e)
	}
	// Wrong arities are refused, never folded out of range.
	if e := tab.MakeOp(ir.OpAdd, NewConst(1)); e != nil {
		t.Fatalf("one-argument add = %v", e)
	}
	if e := tab.MakeOp(ir.OpMax); e != nil {
		t.Fatalf("empty max = %v", e)
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

// TestCanonicalStructure pins the canonical shape of every expression
// kind: the operand order of commutative operators (constants, then
// formals, globals and unknowns, each by value, then operator nodes),
// which neither the order the operands are given in nor the table nor
// the order nodes were built in may change, and the printed form,
// whose shared nodes print once.
func TestCanonicalStructure(t *testing.T) {
	g := &ir.GlobalVar{ID: 7, Block: "C", Name: "N"}
	f0 := &Formal{Index: 0, Name: "A"}
	f12 := &Formal{Index: 12, Name: "B"}
	ge := &GlobalEntry{G: g}
	build := func(tab *Table, flip bool) []Expr {
		pair := func(x, y Expr) (Expr, Expr) {
			if flip {
				return y, x
			}
			return x, y
		}
		x, y := pair(f12, f0)
		add := tab.MakeOp(ir.OpAdd, x, y)
		x, y = pair(ge, f0)
		inner := tab.MakeOp(ir.OpAdd, x, y)
		x, y = pair(inner, NewConst(-3))
		mul := tab.MakeOp(ir.OpMul, x, y)
		x, y = pair(f0, NewConst(9))
		max := tab.MakeOp(ir.OpMax, f12, &Unknown{ID: 2}, tab.MakeOp(ir.OpMin, x, y))
		if flip {
			max = tab.MakeOp(ir.OpMax, tab.MakeOp(ir.OpMin, x, y), &Unknown{ID: 2}, f12)
		}
		d1 := tab.MakeOp(ir.OpAdd, f0, f0)
		d2 := tab.MakeOp(ir.OpAdd, d1, d1)
		d3 := tab.MakeOp(ir.OpAdd, d2, d2)
		return []Expr{
			NewConst(42), NewConst(math.MinInt64), f0, ge, &Unknown{ID: -1},
			tab.MakeOp(ir.OpNeg, f0),
			tab.MakeOp(ir.OpSub, f12, NewConst(-2)),
			add, mul, max, d3,
		}
	}
	want := []string{
		"42", "-9223372036854775808", "A", "C.N", "?-1",
		"neg(A)",
		"sub(B, -2)",
		"add(A, B)",
		"mul(-3, add(A, C.N))",
		"max(B, ?2, min(9, A))",
		"add(%2, %2) where %1 = add(A, A), %2 = add(%1, %1)",
	}
	a := build(new(Table), false)
	b := build(new(Table), true)
	for i := range a {
		if got := a[i].String(); got != want[i] {
			t.Errorf("expression %d prints %q, want %q", i, got, want[i])
		}
		if got := b[i].String(); got != want[i] {
			t.Errorf("expression %d, operands flipped in another table, prints %q, want %q", i, got, want[i])
		}
		if Compare(a[i], b[i]) != 0 || hashOf(a[i]) != hashOf(b[i]) {
			t.Errorf("expression %d: the two tables built different structures", i)
		}
		for j := range a {
			if (i == j) != (Compare(a[i], a[j]) == 0) {
				t.Errorf("Compare(%v, %v) = %d", a[i], a[j], Compare(a[i], a[j]))
			}
		}
	}
	// Kinds order constants < formals < globals < unknowns < operators,
	// and leaves of one kind by value.
	order := []Expr{NewConst(-5), NewConst(3), f0, f12, ge, &Unknown{ID: 0}, &Unknown{ID: 4}, a[5]}
	for i := 1; i < len(order); i++ {
		if Compare(order[i-1], order[i]) >= 0 || Compare(order[i], order[i-1]) <= 0 {
			t.Errorf("Compare does not order %v before %v", order[i-1], order[i])
		}
	}
	// The doubling chain's tree has 15 nodes; its DAG has three
	// operators.
	if op := a[10].(*Op); op.size != 15 || op.open {
		t.Errorf("chain of three: size %d, open %v", op.size, op.open)
	}
}

func TestCommutativeCanonicalization(t *testing.T) {
	tab := new(Table)
	f := &Formal{Index: 0, Name: "A"}
	g := &Formal{Index: 1, Name: "B"}
	ab := tab.MakeOp(ir.OpAdd, f, g)
	ba := tab.MakeOp(ir.OpAdd, g, f)
	if !Equal(ab, ba) || ab != ba {
		t.Fatalf("a+b and b+a should be one node: %v vs %v", ab, ba)
	}
	// Subtraction is not commutative.
	if Equal(tab.MakeOp(ir.OpSub, f, g), tab.MakeOp(ir.OpSub, g, f)) {
		t.Fatal("a-b and b-a must differ")
	}
}

func TestIdentities(t *testing.T) {
	tab := new(Table)
	f := &Formal{Index: 0, Name: "A"}
	if e := tab.MakeOp(ir.OpAdd, f, NewConst(0)); !Equal(e, f) {
		t.Errorf("a+0 = %v", e)
	}
	if e := tab.MakeOp(ir.OpMul, NewConst(1), f); !Equal(e, f) {
		t.Errorf("1*a = %v", e)
	}
	if e := tab.MakeOp(ir.OpMul, f, NewConst(0)); !Equal(e, NewConst(0)) {
		t.Errorf("a*0 = %v", e)
	}
	if e := tab.MakeOp(ir.OpSub, f, NewConst(0)); !Equal(e, f) {
		t.Errorf("a-0 = %v", e)
	}
}

func TestUnknownCongruence(t *testing.T) {
	tab := new(Table)
	u1, u2 := &Unknown{ID: 10}, &Unknown{ID: 10}
	u3 := &Unknown{ID: 11}
	if !Equal(u1, u2) || Equal(u1, u3) {
		t.Fatal("unknown identity by ID broken")
	}
	// phi(x, x) congruence: the same unknown through two ops.
	a := tab.MakeOp(ir.OpAdd, u1, NewConst(1))
	b := tab.MakeOp(ir.OpAdd, u2, NewConst(1))
	if !Equal(a, b) {
		t.Fatal("u+1 twice should be congruent")
	}
}

func TestSupport(t *testing.T) {
	tab := new(Table)
	g := &ir.GlobalVar{ID: 3, Block: "BLK", Name: "G"}
	e := tab.MakeOp(ir.OpAdd,
		tab.MakeOp(ir.OpMul, &Formal{Index: 0}, NewConst(2)),
		&GlobalEntry{G: g})
	leaves, closed := Support(e)
	if !closed {
		t.Fatal("expression should be closed")
	}
	if len(leaves) != 2 {
		t.Fatalf("support: %v", leaves)
	}
	// Unknown poisons closure.
	e2 := tab.MakeOp(ir.OpAdd, e, &Unknown{ID: 1})
	if IsClosed(e2) {
		t.Fatal("expression with unknown should not be closed")
	}
	// Duplicate leaves are reported once.
	e3 := tab.MakeOp(ir.OpAdd, &Formal{Index: 0}, &Formal{Index: 0})
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
	tab := new(Table)
	g := &ir.GlobalVar{ID: 0, Block: "B", Name: "G"}
	// e = 2*f0 + g
	e := tab.MakeOp(ir.OpAdd, tab.MakeOp(ir.OpMul, NewConst(2), &Formal{Index: 0}), &GlobalEntry{G: g})

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
	d := tab.MakeOp(ir.OpDiv, NewConst(1), &Formal{Index: 1})
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
	tab := new(Table)
	g := &ir.GlobalVar{ID: 0, Block: "B", Name: "G"}
	e := tab.MakeOp(ir.OpAdd, &Formal{Index: 0}, &GlobalEntry{G: g})
	// f0 := 3, g stays.
	r := tab.Substitute(e, func(i int) Expr {
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
	r2 := tab.Substitute(e, func(int) Expr { return NewConst(3) },
		func(*ir.GlobalVar) Expr { return NewConst(4) })
	if c, ok := r2.(*Const); !ok || c.Val != 7 {
		t.Fatalf("folded substitute: %v", r2)
	}
	// Substitution that triggers a failed fold returns nil.
	d := tab.MakeOp(ir.OpDiv, NewConst(1), &Formal{Index: 0})
	if r := tab.Substitute(d, func(int) Expr { return NewConst(0) }, nil); r != nil {
		t.Fatalf("div-by-zero substitute: %v", r)
	}
	// Substituting into another table rebuilds the expression there.
	other := new(Table)
	if r := other.Substitute(e, nil, nil); r == e || Compare(r, e) != 0 {
		t.Fatalf("substitute into another table: %v", r)
	}
}

// TestDoublingChainIsLinear builds x_d = x_{d-1} + x_{d-1} to d = 62,
// a tree of 2^63 - 1 nodes: every walk must cost what the 62-node DAG
// costs.
func TestDoublingChainIsLinear(t *testing.T) {
	tab := new(Table)
	var e Expr = &Formal{Index: 0, Name: "K0"}
	for i := 0; i < 62; i++ {
		e = tab.MakeOp(ir.OpAdd, e, e)
	}
	if op := e.(*Op); op.size != math.MaxUint32 {
		t.Fatalf("tree size %d, want saturated", op.size)
	}
	env := mapEnv{formals: map[int]lattice.Value{0: lattice.OfInt(1)}}
	if v := Eval(e, env); !v.Equal(lattice.OfInt(1 << 62)) {
		t.Fatalf("eval: %v", v)
	}
	if leaves, closed := Support(e); !closed || len(leaves) != 1 {
		t.Fatalf("support: %v %v", leaves, closed)
	}
	r := tab.Substitute(e, func(int) Expr { return NewConst(1) }, nil)
	if c, ok := r.(*Const); !ok || c.Val != 1<<62 {
		t.Fatalf("substitute: %v", r)
	}
	if s := e.String(); len(s) > 62*40 {
		t.Fatalf("String printed %d bytes", len(s))
	}
}

// genExpr builds a random well-formed expression in tab for property
// tests.
func genExpr(r *rand.Rand, tab *Table, depth int) Expr {
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
	e := tab.MakeOp(op, genExpr(r, tab, depth-1), genExpr(r, tab, depth-1))
	if e == nil {
		return NewConst(1)
	}
	return e
}

// propTable holds the quick-checked expressions: Equal compares within
// one table.
var propTable = new(Table)

type exprBox struct{ E Expr }

func (exprBox) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(exprBox{E: genExpr(r, propTable, 3)})
}

// Property: Equal is a congruence for MakeOp.
func TestKeyCongruenceProperty(t *testing.T) {
	f := func(a, b exprBox) bool {
		e1 := propTable.MakeOp(ir.OpAdd, a.E, b.E)
		e2 := propTable.MakeOp(ir.OpAdd, a.E, b.E)
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

// Property: Substitute with identity mappings into the expression's own
// table returns the expression.
func TestSubstituteIdentityProperty(t *testing.T) {
	f := func(b exprBox) bool {
		r := propTable.Substitute(b.E, nil, nil)
		return Equal(r, b.E)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
