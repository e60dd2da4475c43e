package sym

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"ipcp/internal/core/lattice"
	"ipcp/internal/ir"
)

// This file checks the DAG against a reference: a plain recursive
// expression tree with no interning, no memo and no operand order,
// whose canonical spelling sorts commutative operands by spelling, the
// way expression keys once did.

// tree is a reference expression: a leaf (rank and value, or global)
// or an operator over subtrees.
type tree struct {
	rank int
	val  int64
	g    *ir.GlobalVar
	op   ir.Op
	args []*tree
}

// toTree expands e into a reference tree.
func toTree(e Expr) *tree {
	switch e := e.(type) {
	case *Op:
		t := &tree{rank: rankOp, op: e.Op}
		for _, a := range e.Args {
			t.args = append(t.args, toTree(a))
		}
		return t
	case *GlobalEntry:
		return &tree{rank: rankGlobal, val: int64(e.G.ID), g: e.G}
	}
	r, v := rank(e)
	return &tree{rank: r, val: v}
}

// canon spells t, commutative operands sorted by their spellings.
func canon(t *tree) string {
	if t.rank != rankOp {
		return fmt.Sprintf("%d:%d", t.rank, t.val)
	}
	parts := make([]string, len(t.args))
	for i, a := range t.args {
		parts[i] = canon(a)
	}
	if commutative(t.op) {
		sort.Strings(parts)
	}
	return "(" + t.op.String() + " " + strings.Join(parts, " ") + ")"
}

func treeSize(t *tree) int {
	n := 1
	for _, a := range t.args {
		n += treeSize(a)
	}
	return n
}

// refMake is MakeOp over trees: folding and the same identities, no
// interning and no operand order. nil is a failed fold.
func refMake(op ir.Op, args ...*tree) *tree {
	vals := make([]int64, len(args))
	allConst := true
	for i, a := range args {
		if a.rank != rankConst {
			allConst = false
			break
		}
		vals[i] = a.val
	}
	if allConst {
		if v, ok := FoldInt(op, vals); ok {
			return &tree{rank: rankConst, val: v}
		}
		return nil
	}
	isConst := func(t *tree, v int64) bool { return t.rank == rankConst && t.val == v }
	if len(args) == 2 {
		x, y := args[0], args[1]
		switch {
		case op == ir.OpAdd && isConst(y, 0), op == ir.OpSub && isConst(y, 0),
			op == ir.OpMul && isConst(y, 1), op == ir.OpDiv && isConst(y, 1):
			return x
		case op == ir.OpMul && isConst(y, 0):
			return &tree{rank: rankConst}
		case op == ir.OpAdd && isConst(x, 0), op == ir.OpMul && isConst(x, 1):
			return y
		case op == ir.OpMul && isConst(x, 0):
			return &tree{rank: rankConst}
		}
	}
	return &tree{rank: rankOp, op: op, args: args}
}

// refEval evaluates a tree with the CCKT rules, recursively.
func refEval(t *tree, env Env) (lattice.Value, bool) {
	switch t.rank {
	case rankConst:
		return lattice.OfInt(t.val), true
	case rankFormal:
		return liftLeaf(env.FormalValue(int(t.val)))
	case rankGlobal:
		return liftLeaf(env.GlobalValue(t.g))
	case rankUnknown:
		return lattice.Bottom, false
	}
	vals := make([]int64, len(t.args))
	sawTop := false
	for i, a := range t.args {
		v, ok := refEval(a, env)
		if !ok {
			return lattice.Bottom, false
		}
		if v.IsTop() {
			sawTop = true
			continue
		}
		c, isInt := v.IntConst()
		if !isInt {
			return lattice.Bottom, false
		}
		vals[i] = c
	}
	if sawTop {
		return lattice.Top, true
	}
	r, ok := FoldInt(t.op, vals)
	if !ok {
		return lattice.Bottom, false
	}
	return lattice.OfInt(r), true
}

// refSupport lists a tree's formal and global leaves in depth-first
// order of first occurrence, and whether no leaf is an Unknown.
func refSupport(t *tree) (leaves []Leaf, closed bool) {
	closed = true
	var walk func(*tree)
	walk = func(t *tree) {
		var l Leaf
		switch t.rank {
		case rankFormal:
			l = Leaf{FormalIndex: int(t.val)}
		case rankGlobal:
			l = Leaf{FormalIndex: -1, Global: t.g}
		case rankUnknown:
			closed = false
			return
		case rankOp:
			for _, a := range t.args {
				walk(a)
			}
			return
		default:
			return
		}
		if !slices.Contains(leaves, l) {
			leaves = append(leaves, l)
		}
	}
	walk(t)
	return leaves, closed
}

// refSubst replaces formal and global leaves and rebuilds with refMake.
func refSubst(t *tree, formal map[int]*tree, global map[int]*tree) *tree {
	switch t.rank {
	case rankFormal:
		if r := formal[int(t.val)]; r != nil {
			return r
		}
		return t
	case rankGlobal:
		if r := global[int(t.val)]; r != nil {
			return r
		}
		return t
	case rankOp:
		args := make([]*tree, len(t.args))
		for i, a := range t.args {
			if args[i] = refSubst(a, formal, global); args[i] == nil {
				return nil
			}
		}
		return refMake(t.op, args...)
	}
	return t
}

// twin is one generated expression: built in table a, built again in
// table b (commutative operands given the other way round, after
// unrelated nodes, so allocation order differs), and as a reference
// tree.
type twin struct {
	a, b Expr
	ref  *tree
}

// genTwins builds n random expressions over a pool that starts with
// leaves and grows by operators over earlier pool members, so later
// expressions share earlier ones; one step in eight doubles a recent
// member, so some trees outgrow memoSize.
func genTwins(r *rand.Rand, n int, ta, tb *Table, globals []*ir.GlobalVar) []twin {
	leaf := func(e Expr) twin { return twin{a: e, b: e, ref: toTree(e)} }
	pool := []twin{
		leaf(NewConst(0)), leaf(NewConst(1)), leaf(NewConst(-3)), leaf(NewConst(7)), leaf(NewConst(1 << 40)),
		leaf(&Formal{Index: 0, Name: "A"}), leaf(&Formal{Index: 1, Name: "B"}), leaf(&Formal{Index: 2, Name: "C"}),
		leaf(&GlobalEntry{G: globals[0]}), leaf(&GlobalEntry{G: globals[1]}),
		leaf(&Unknown{ID: 0}), leaf(&Unknown{ID: 5}),
	}
	tb.MakeOp(ir.OpSub, &Unknown{ID: 99}, NewConst(1000)) // shifts b's allocation order
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod, ir.OpPow,
		ir.OpMin, ir.OpMax, ir.OpNeg, ir.OpAbs}
	pick := func() twin {
		if r.Intn(2) == 0 && len(pool) > 12 {
			return pool[len(pool)-1-r.Intn(min(8, len(pool)-12))]
		}
		return pool[r.Intn(len(pool))]
	}
	for len(pool) < n {
		op := ops[r.Intn(len(ops))]
		var args []twin
		switch {
		case r.Intn(8) == 0:
			x := pool[len(pool)-1]
			op, args = ir.OpAdd, []twin{x, x}
		case op == ir.OpNeg || op == ir.OpAbs:
			args = []twin{pick()}
		case (op == ir.OpMin || op == ir.OpMax) && r.Intn(3) == 0:
			args = []twin{pick(), pick(), pick()}
		default:
			args = []twin{pick(), pick()}
		}
		var as, bs []Expr
		var refs []*tree
		for _, x := range args {
			as = append(as, x.a)
			bs = append(bs, x.b)
			refs = append(refs, x.ref)
		}
		if commutative(op) {
			slices.Reverse(bs)
		}
		t := twin{a: ta.MakeOp(op, as...), b: tb.MakeOp(op, bs...), ref: refMake(op, refs...)}
		if (t.a == nil) != (t.ref == nil) || (t.b == nil) != (t.ref == nil) {
			panic(fmt.Sprintf("%v over %v: table a %v, table b %v, reference %v", op, as, t.a, t.b, t.ref))
		}
		if t.ref != nil && treeSize(t.ref) <= 4096 {
			pool = append(pool, t)
		}
	}
	return pool
}

// envs returns environments mixing constants, ⊤ and ⊥ over the
// generator's formals and globals.
func envs(r *rand.Rand) []mapEnv {
	vals := []lattice.Value{lattice.OfInt(0), lattice.OfInt(2), lattice.OfInt(-5),
		lattice.OfInt(1 << 33), lattice.Top, lattice.Bottom, lattice.OfBool(true)}
	var out []mapEnv
	for i := 0; i < 6; i++ {
		env := mapEnv{formals: map[int]lattice.Value{}, globals: map[int]lattice.Value{}}
		for f := 0; f < 3; f++ {
			env.formals[f] = vals[r.Intn(len(vals))]
		}
		for g := 0; g < 2; g++ {
			env.globals[g] = vals[r.Intn(len(vals))]
		}
		if i < 2 { // a total constant environment
			env = mapEnv{formals: map[int]lattice.Value{0: vals[1], 1: vals[2], 2: vals[3]},
				globals: map[int]lattice.Value{0: vals[0], 1: vals[1]}}
		}
		out = append(out, env)
	}
	return out
}

// TestTreeReferenceProperty builds random expressions with shared
// subterms in two tables and checks Equal, Compare, Eval, Support,
// IsClosed and Substitute against the tree reference.
func TestTreeReferenceProperty(t *testing.T) {
	globals := []*ir.GlobalVar{{ID: 0, Block: "C", Name: "G"}, {ID: 1, Block: "C", Name: "H"}}
	big := 0
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		ta, tb := new(Table), new(Table)
		pool := genTwins(r, 60, ta, tb, globals)
		spell := make([]string, len(pool))
		for i, x := range pool {
			spell[i] = canon(x.ref)
			if got := canon(toTree(x.a)); got != spell[i] {
				t.Fatalf("seed %d: %v spells %s, reference %s", seed, x.a, got, spell[i])
			}
			if Compare(x.a, x.b) != 0 || x.a.String() != x.b.String() || hashOf(x.a) != hashOf(x.b) {
				t.Fatalf("seed %d: %v and %v: one expression, two structures", seed, x.a, x.b)
			}
			if memoized(x.a) {
				big++
			}
		}
		for i, x := range pool {
			for j, y := range pool {
				same := spell[i] == spell[j]
				if Equal(x.a, y.a) != same || Equal(x.b, y.b) != same {
					t.Fatalf("seed %d: Equal(%v, %v) disagrees with the reference (%v)", seed, x.a, y.a, same)
				}
				if (Compare(x.a, y.b) == 0) != same {
					t.Fatalf("seed %d: Compare across tables (%v, %v) disagrees with the reference", seed, x.a, y.b)
				}
				if c, d := Compare(x.a, y.a), Compare(y.a, x.a); c != -d {
					t.Fatalf("seed %d: Compare(%v, %v) = %d but reversed %d", seed, x.a, y.a, c, d)
				}
			}
		}
		for _, env := range envs(r) {
			for _, x := range pool {
				want, ok := refEval(x.ref, env)
				if !ok {
					want = lattice.Bottom
				}
				if got := Eval(x.a, env); !got.Equal(want) {
					t.Fatalf("seed %d: Eval(%v) = %v, reference %v", seed, x.a, got, want)
				}
			}
		}
		for _, x := range pool {
			leaves, closed := Support(x.a)
			wantLeaves, wantClosed := refSupport(toTree(x.a))
			if !slices.Equal(leaves, wantLeaves) || closed != wantClosed || IsClosed(x.a) != wantClosed {
				t.Fatalf("seed %d: Support(%v) = %v %v, reference %v %v", seed, x.a, leaves, closed, wantLeaves, wantClosed)
			}
			refLeaves, _ := refSupport(x.ref)
			if len(refLeaves) != len(leaves) {
				t.Fatalf("seed %d: Support(%v) has %d leaves, reference %d", seed, x.a, len(leaves), len(refLeaves))
			}
		}
		for k := 0; k < 20; k++ {
			x := pool[r.Intn(len(pool))]
			sub := map[int]twin{}
			for f := 0; f < 3; f++ {
				if r.Intn(2) == 0 {
					sub[f] = pool[r.Intn(len(pool))]
				}
			}
			gsub := map[int]twin{}
			if r.Intn(2) == 0 {
				gsub[1] = pool[r.Intn(5)]
			}
			refF, refG := map[int]*tree{}, map[int]*tree{}
			for f, y := range sub {
				refF[f] = y.ref
			}
			for g, y := range gsub {
				refG[g] = y.ref
			}
			want := refSubst(x.ref, refF, refG)
			got := ta.Substitute(x.a, func(i int) Expr {
				if y, ok := sub[i]; ok {
					return y.a
				}
				return nil
			}, func(g *ir.GlobalVar) Expr {
				if y, ok := gsub[g.ID]; ok {
					return y.a
				}
				return nil
			})
			if (got == nil) != (want == nil) || (got != nil && canon(toTree(got)) != canon(want)) {
				t.Fatalf("seed %d: Substitute(%v) = %v, reference %v", seed, x.a, got, want)
			}
			// Substituting a table-a expression into table b builds the
			// same structure there.
			other := tb.Substitute(x.a, func(int) Expr { return NewConst(3) }, nil)
			again := ta.Substitute(x.a, func(int) Expr { return NewConst(3) }, nil)
			if (other == nil) != (again == nil) || (other != nil && Compare(other, again) != 0) {
				t.Fatalf("seed %d: Substitute(%v) into two tables: %v and %v", seed, x.a, other, again)
			}
		}
	}
	if big == 0 {
		t.Fatal("no generated expression was large enough for the memoized walks")
	}
}
