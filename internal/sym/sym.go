// Package sym implements the symbolic integer expressions jump functions
// are made of: polynomial-style expressions whose leaves are compile-time
// constants, the entry values of the enclosing procedure's formal
// parameters, the entry values of global variables (the paper extends
// "parameter" to include globals), and opaque unknowns.
//
// Expressions are constant-folded on construction and lightly
// normalized: each Op carries a canonical key built from its
// arguments' keys, with commutative operands sorted by key, and Equal
// compares keys. Two occurrences of the same computation therefore
// compare equal — this is the "value numbering" part of the SSA-based
// value-number graph the paper builds jump functions on. Nothing is
// interned: equal expressions are distinct trees, and keys live only
// in memory.
package sym

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ipcp/internal/core/lattice"
	"ipcp/internal/ir"
)

// Expr is a symbolic expression. Expressions are immutable; compare them
// with Key().
type Expr interface {
	// Key returns the canonical spelling used for equality and hashing.
	Key() string
	String() string
	isExpr()
}

// Const is an integer constant leaf.
type Const struct{ Val int64 }

// Formal is the entry value of the enclosing procedure's Index-th formal.
type Formal struct {
	Index int
	Name  string
}

// GlobalEntry is the entry value of a global variable.
type GlobalEntry struct{ G *ir.GlobalVar }

// Unknown is an opaque value; two Unknowns are equal iff their IDs are.
// IDs are SSA value IDs, so congruent uses share an Unknown.
type Unknown struct{ ID int }

// Op is an operator application over subexpressions.
type Op struct {
	Op   ir.Op
	Args []Expr
	key  string
}

func (*Const) isExpr()       {}
func (*Formal) isExpr()      {}
func (*GlobalEntry) isExpr() {}
func (*Unknown) isExpr()     {}
func (*Op) isExpr()          {}

// Key implementations. Nothing persists the spellings: the summary
// codec stores expressions by structure, and binding rebuilds them
// through MakeOp.
func (e *Const) Key() string       { return "#" + strconv.FormatInt(e.Val, 10) }
func (e *Formal) Key() string      { return "f" + strconv.Itoa(e.Index) }
func (e *GlobalEntry) Key() string { return "g" + strconv.Itoa(e.G.ID) }
func (e *Unknown) Key() string     { return "u" + strconv.Itoa(e.ID) }
func (e *Op) Key() string          { return e.key }

func (e *Const) String() string { return fmt.Sprintf("%d", e.Val) }
func (e *Formal) String() string {
	if e.Name != "" {
		return e.Name
	}
	return fmt.Sprintf("formal(%d)", e.Index)
}
func (e *GlobalEntry) String() string { return e.G.String() }
func (e *Unknown) String() string     { return fmt.Sprintf("?%d", e.ID) }
func (e *Op) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Op, strings.Join(parts, ", "))
}

// NewConst returns the constant expression for v.
func NewConst(v int64) *Const { return &Const{Val: v} }

// foldable ops and their arities; MakeOp refuses anything else.
func arithOK(op ir.Op) bool {
	switch op {
	case ir.OpNeg, ir.OpAbs, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv,
		ir.OpPow, ir.OpMod, ir.OpMin, ir.OpMax:
		return true
	}
	return false
}

func commutative(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpMul, ir.OpMin, ir.OpMax:
		return true
	}
	return false
}

// FoldInt evaluates op over integer operands with the analyzer's
// arithmetic: truncating division, failure on division by zero and on
// negative exponents. All analysis stages share this function, so they
// agree about every fold.
func FoldInt(op ir.Op, args []int64) (int64, bool) {
	switch op {
	case ir.OpNeg:
		return -args[0], true
	case ir.OpAbs:
		if args[0] < 0 {
			return -args[0], true
		}
		return args[0], true
	case ir.OpAdd:
		return args[0] + args[1], true
	case ir.OpSub:
		return args[0] - args[1], true
	case ir.OpMul:
		return args[0] * args[1], true
	case ir.OpDiv:
		if args[1] == 0 {
			return 0, false
		}
		return args[0] / args[1], true
	case ir.OpMod:
		if args[1] == 0 {
			return 0, false
		}
		return args[0] % args[1], true
	case ir.OpPow:
		return Pow(args[0], args[1])
	case ir.OpMin:
		m := args[0]
		for _, a := range args[1:] {
			if a < m {
				m = a
			}
		}
		return m, true
	case ir.OpMax:
		m := args[0]
		for _, a := range args[1:] {
			if a > m {
				m = a
			}
		}
		return m, true
	}
	return 0, false
}

// Pow folds x**y with the analyzer's wrapping int64 arithmetic, failing
// on a negative exponent. It squares and multiplies, so an exponent
// near 2^63 costs 63 steps; int64 multiplication is associative modulo
// 2^64, so every result is bit-identical to multiplying 1 by x y times.
// The front end folds PARAMETER constants with it too.
func Pow(x, y int64) (int64, bool) {
	if y < 0 {
		return 0, false
	}
	r := int64(1)
	for ; y > 0; y >>= 1 {
		if y&1 != 0 {
			r *= x
		}
		x *= x
	}
	return r, true
}

// MakeOp builds op(args...), constant-folding when every argument is a
// constant and sorting the operands of commutative operators so that
// congruent expressions share a key. Unsupported operators and failed
// folds (division by zero) yield nil, which callers treat as unknown.
func MakeOp(op ir.Op, args ...Expr) Expr {
	if !arithOK(op) {
		return nil
	}
	for _, a := range args {
		if a == nil {
			return nil
		}
	}
	allConst := true
	vals := make([]int64, len(args))
	for i, a := range args {
		if c, ok := a.(*Const); ok {
			vals[i] = c.Val
		} else {
			allConst = false
			break
		}
	}
	if allConst {
		if v, ok := FoldInt(op, vals); ok {
			return NewConst(v)
		}
		return nil
	}

	// Light algebraic identities keep pass-through chains recognizable
	// (x+0, x*1, x-0 arise from lowering and generator boilerplate).
	if len(args) == 2 {
		x, y := args[0], args[1]
		if c, ok := y.(*Const); ok {
			switch {
			case op == ir.OpAdd && c.Val == 0,
				op == ir.OpSub && c.Val == 0,
				op == ir.OpMul && c.Val == 1,
				op == ir.OpDiv && c.Val == 1:
				return x
			case op == ir.OpMul && c.Val == 0:
				return NewConst(0)
			}
		}
		if c, ok := x.(*Const); ok {
			switch {
			case op == ir.OpAdd && c.Val == 0:
				return y
			case op == ir.OpMul && c.Val == 1:
				return y
			case op == ir.OpMul && c.Val == 0:
				return NewConst(0)
			}
		}
	}

	keys := make([]string, len(args))
	for i, a := range args {
		keys[i] = a.Key()
	}
	sorted := args
	if commutative(op) {
		sorted = append([]Expr(nil), args...)
		sort.Sort(byKey{sorted, keys})
	}
	return &Op{
		Op:   op,
		Args: sorted,
		key:  "(" + op.String() + " " + strings.Join(keys, " ") + ")",
	}
}

// byKey sorts expressions by their keys, computed once up front.
type byKey struct {
	exprs []Expr
	keys  []string
}

func (b byKey) Len() int           { return len(b.exprs) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.exprs[i], b.exprs[j] = b.exprs[j], b.exprs[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// Equal reports whether two expressions are structurally identical.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Key() == b.Key()
}

// ---------------------------------------------------------------------------
// Queries

// Leaf is a support-set member: a formal or a global entry.
type Leaf struct {
	FormalIndex int           // -1 when the leaf is a global
	Global      *ir.GlobalVar // nil when the leaf is a formal
}

// Support returns the expression's support set (the formals and globals
// whose entry values it reads), and whether the expression is "closed" —
// free of Unknown leaves. A jump function is a valid polynomial exactly
// when its expression is closed (support may be empty: a constant).
func Support(e Expr) (leaves []Leaf, closed bool) {
	seen := map[string]bool{}
	closed = true
	var walk func(Expr)
	walk = func(e Expr) {
		switch e := e.(type) {
		case *Const:
		case *Formal:
			if !seen[e.Key()] {
				seen[e.Key()] = true
				leaves = append(leaves, Leaf{FormalIndex: e.Index})
			}
		case *GlobalEntry:
			if !seen[e.Key()] {
				seen[e.Key()] = true
				leaves = append(leaves, Leaf{FormalIndex: -1, Global: e.G})
			}
		case *Unknown:
			closed = false
		case *Op:
			for _, a := range e.Args {
				walk(a)
			}
		}
	}
	if e == nil {
		return nil, false
	}
	walk(e)
	return leaves, closed
}

// IsClosed reports whether e contains no Unknown leaves.
func IsClosed(e Expr) bool {
	_, closed := Support(e)
	return closed
}

// ---------------------------------------------------------------------------
// Evaluation

// Env supplies lattice values for the leaves of an expression during
// interprocedural propagation.
type Env interface {
	FormalValue(index int) lattice.Value
	GlobalValue(g *ir.GlobalVar) lattice.Value
}

// Eval evaluates e under env with the optimistic rules of the CCKT
// framework: if any leaf is ⊥ the result is ⊥; otherwise if any leaf is
// ⊤ the result is ⊤ (the caller has never been reached yet); otherwise
// the expression folds to a constant. A nil expression is ⊥.
func Eval(e Expr, env Env) lattice.Value {
	if e == nil {
		return lattice.Bottom
	}
	v, ok := eval(e, env)
	if !ok {
		return lattice.Bottom
	}
	return v
}

// eval returns (value, ok); !ok means ⊥ (including fold failure).
func eval(e Expr, env Env) (lattice.Value, bool) {
	switch e := e.(type) {
	case *Const:
		return lattice.OfInt(e.Val), true
	case *Formal:
		return liftLeaf(env.FormalValue(e.Index))
	case *GlobalEntry:
		return liftLeaf(env.GlobalValue(e.G))
	case *Unknown:
		return lattice.Bottom, false
	case *Op:
		sawTop := false
		vals := make([]int64, len(e.Args))
		for i, a := range e.Args {
			v, ok := eval(a, env)
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
		r, ok := FoldInt(e.Op, vals)
		if !ok {
			return lattice.Bottom, false
		}
		return lattice.OfInt(r), true
	}
	return lattice.Bottom, false
}

func liftLeaf(v lattice.Value) (lattice.Value, bool) {
	if v.IsBottom() {
		return lattice.Bottom, false
	}
	if v.IsTop() {
		return lattice.Top, true
	}
	if _, ok := v.IntConst(); !ok {
		return lattice.Bottom, false
	}
	return v, true
}

// Substitute replaces each Formal and GlobalEntry leaf of e using the
// given mappings (a nil result from a mapping leaves the leaf in place)
// and rebuilds the expression with folding. It returns nil when a
// subexpression fails to fold (division by zero).
func Substitute(e Expr, formal func(int) Expr, global func(*ir.GlobalVar) Expr) Expr {
	switch e := e.(type) {
	case nil:
		return nil
	case *Const, *Unknown:
		return e
	case *Formal:
		if formal != nil {
			if r := formal(e.Index); r != nil {
				return r
			}
		}
		return e
	case *GlobalEntry:
		if global != nil {
			if r := global(e.G); r != nil {
				return r
			}
		}
		return e
	case *Op:
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = Substitute(a, formal, global)
			if args[i] == nil {
				return nil
			}
		}
		return MakeOp(e.Op, args...)
	}
	return nil
}
