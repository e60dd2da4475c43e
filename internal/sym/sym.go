// Package sym implements the symbolic integer expressions jump functions
// are made of: polynomial-style expressions whose leaves are compile-time
// constants, the entry values of the enclosing procedure's formal
// parameters, the entry values of global variables (the paper extends
// "parameter" to include globals), and opaque unknowns.
//
// Expressions form a hash-consed DAG, the value-number graph the paper
// builds jump functions on (§3). A Table interns each operator node by
// its operator and its arguments' identities, the way global value
// numbering names an expression by its operands' value numbers: within
// one table two congruent computations are one node, so Equal compares
// operator nodes by pointer. Leaves have no identity of their own and
// compare by value. A table serves one value-numbering run or one
// summary bind and is never shared between goroutines, so nothing locks
// it. Substitute rebuilds an expression into a given table.
//
// Expressions are constant-folded on construction and lightly
// normalized. Each operator node records, when it is built, a
// structural hash, its size as a tree and whether it reaches an
// Unknown leaf. Commutative operands are ordered by Compare, a
// structural order that depends on neither spelling, allocation order,
// worker count nor table, so a computation has the same shape in every
// table. The walks (Support, Eval, Substitute, String) visit a shared
// node once, so they cost what the DAG costs, not what its tree would:
// x1 = x0+x0, x2 = x1+x1, … is a DAG of d nodes and a tree of 2^d.
package sym

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"ipcp/internal/core/lattice"
	"ipcp/internal/ir"
)

// Expr is a symbolic expression. Expressions are immutable; compare them
// with Equal.
type Expr interface {
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

// Op is an operator application over subexpressions. Only Table.MakeOp
// builds one: it sets the fields below Args.
type Op struct {
	Op   ir.Op
	Args []Expr

	hash uint64 // structural hash (see hashOf)
	size uint32 // node count of the expression as a tree, saturated
	open bool   // some leaf below is an Unknown
}

func (*Const) isExpr()       {}
func (*Formal) isExpr()      {}
func (*GlobalEntry) isExpr() {}
func (*Unknown) isExpr()     {}
func (*Op) isExpr()          {}

func (e *Const) String() string { return strconv.FormatInt(e.Val, 10) }
func (e *Formal) String() string {
	if e.Name != "" {
		return e.Name
	}
	return fmt.Sprintf("formal(%d)", e.Index)
}
func (e *GlobalEntry) String() string { return e.G.String() }
func (e *Unknown) String() string     { return fmt.Sprintf("?%d", e.ID) }

// String prints the expression with each operator node it reaches more
// than once printed once, as a numbered definition after "where":
// add(%2, %2) where %1 = add(A, A), %2 = add(%1, %1). A tree prints
// without definitions.
func (e *Op) String() string {
	p := printer{refs: make(map[*Op]int), names: make(map[*Op]int)}
	p.count(e)
	var b strings.Builder
	p.body(&b, e)
	if len(p.defs) > 0 {
		b.WriteString(" where ")
		b.WriteString(strings.Join(p.defs, ", "))
	}
	return b.String()
}

// printer is one String call's state: how many parent edges reach each
// operator node, the names given to the shared ones, and their
// definitions in the order they were named (arguments first).
type printer struct {
	refs  map[*Op]int
	names map[*Op]int
	defs  []string
}

// count tallies the parent edges of every operator node below e,
// descending into each node once.
func (p *printer) count(e *Op) {
	for _, a := range e.Args {
		if a, ok := a.(*Op); ok {
			p.refs[a]++
			if p.refs[a] == 1 {
				p.count(a)
			}
		}
	}
}

func (p *printer) body(b *strings.Builder, e *Op) {
	b.WriteString(e.Op.String())
	b.WriteByte('(')
	for i, a := range e.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		p.arg(b, a)
	}
	b.WriteByte(')')
}

func (p *printer) arg(b *strings.Builder, a Expr) {
	op, ok := a.(*Op)
	if !ok {
		b.WriteString(a.String())
		return
	}
	if p.refs[op] < 2 {
		p.body(b, op)
		return
	}
	name, ok := p.names[op]
	if !ok {
		var def strings.Builder
		p.body(&def, op)
		name = len(p.defs) + 1
		p.names[op] = name
		p.defs = append(p.defs, "%"+strconv.Itoa(name)+" = "+def.String())
	}
	b.WriteString("%" + strconv.Itoa(name))
}

// smallConsts backs NewConst for the constants programs use most, so
// value numbering allocates nothing for them. Consts are immutable, so
// sharing them is invisible.
var smallConsts = func() (cs [smallConstMax - smallConstMin + 1]Const) {
	for i := range cs {
		cs[i].Val = int64(i) + smallConstMin
	}
	return cs
}()

const smallConstMin, smallConstMax = -16, 255

// NewConst returns the constant expression for v.
func NewConst(v int64) *Const {
	if v >= smallConstMin && v <= smallConstMax {
		return &smallConsts[v-smallConstMin]
	}
	return &Const{Val: v}
}

// arityOK reports whether op is a foldable operator over n arguments;
// MakeOp refuses anything else.
func arityOK(op ir.Op, n int) bool {
	switch op {
	case ir.OpNeg, ir.OpAbs:
		return n == 1
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpPow, ir.OpMod:
		return n == 2
	case ir.OpMin, ir.OpMax:
		return n >= 1
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

// ---------------------------------------------------------------------------
// Interning

// Table interns operator nodes: MakeOp returns the node it built before
// for the same operator over the same arguments. The zero Table is
// ready to use. A Table is not safe for concurrent use; each
// value-numbering run and each summary bind has its own.
type Table struct {
	// slots is an open-addressed hash set of nodes, probed linearly
	// from each node's structural hash; its length is 0 or a power of
	// two, and it is at most three quarters full.
	slots []*Op
	n     int
}

// MakeOp builds op(args...) in t, constant-folding when every argument
// is a constant and ordering the operands of commutative operators by
// Compare, so that congruent expressions are one node. Operator
// arguments must come from t. Unsupported operators and failed folds
// (division by zero) yield nil, which callers treat as unknown. MakeOp
// keeps no reference to args.
func (t *Table) MakeOp(op ir.Op, args ...Expr) Expr {
	if !arityOK(op, len(args)) {
		return nil
	}
	var vbuf [4]int64
	vals := vbuf[:0]
	allConst := true
	for _, a := range args {
		if a == nil {
			return nil
		}
		if c, ok := a.(*Const); ok && allConst {
			vals = append(vals, c.Val)
		} else {
			allConst = false
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

	var abuf [4]Expr
	if commutative(op) {
		args = append(abuf[:0], args...)
		slices.SortFunc(args, Compare)
	}
	return t.intern(op, args)
}

// intern returns t's node for op over args, adding one when t has none.
func (t *Table) intern(op ir.Op, args []Expr) *Op {
	h := uint64(op)*0x9e3779b97f4a7c15 + rankOp
	for _, a := range args {
		h = h*0xff51afd7ed558ccd + hashOf(a)
	}
	h = fmix64(h)
	if len(t.slots) == 0 {
		t.slots = make([]*Op, 16)
	}
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for n := t.slots[i]; n != nil; n = t.slots[i] {
		if n.hash == h && n.Op == op && sameArgs(n.Args, args) {
			return n
		}
		i = (i + 1) & mask
	}
	n := &Op{Op: op, Args: append([]Expr(nil), args...), hash: h, size: 1}
	for _, a := range args {
		size, open := uint32(1), false // a leaf
		switch a := a.(type) {
		case *Op:
			size, open = a.size, a.open
		case *Unknown:
			open = true
		}
		n.size = satAdd(n.size, size)
		n.open = n.open || open
	}
	t.slots[i] = n
	t.n++
	if 4*t.n > 3*len(t.slots) {
		t.grow()
	}
	return n
}

// grow doubles the slot array and reinserts every node.
func (t *Table) grow() {
	old := t.slots
	t.slots = make([]*Op, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, n := range old {
		if n == nil {
			continue
		}
		i := n.hash & mask
		for t.slots[i] != nil {
			i = (i + 1) & mask
		}
		t.slots[i] = n
	}
}

func satAdd(a, b uint32) uint32 {
	if a > math.MaxUint32-b {
		return math.MaxUint32
	}
	return a + b
}

// sameArgs reports whether two argument lists are the same expressions:
// the same operator nodes and equal leaves.
func sameArgs(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// fmix64 is MurmurHash3's 64-bit finalizer.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Ranks order the expression kinds in Compare and seed their hashes.
const (
	rankConst = iota
	rankFormal
	rankGlobal
	rankUnknown
	rankOp
)

// rank returns e's kind rank and, for a leaf, the value it compares by.
func rank(e Expr) (int, int64) {
	switch e := e.(type) {
	case *Const:
		return rankConst, e.Val
	case *Formal:
		return rankFormal, int64(e.Index)
	case *GlobalEntry:
		return rankGlobal, int64(e.G.ID)
	case *Unknown:
		return rankUnknown, int64(e.ID)
	}
	return rankOp, 0
}

// hashOf returns e's structural hash, a function of its shape alone:
// the same in every table and every run.
func hashOf(e Expr) uint64 {
	if op, ok := e.(*Op); ok {
		return op.hash
	}
	r, v := rank(e)
	return fmix64(uint64(v)*0x9e3779b97f4a7c15 + uint64(r))
}

// Compare orders expressions structurally: by kind (constants, formals,
// globals, unknowns, operators), leaves by value, and operator nodes by
// structural hash, then operator, then arguments in order. It returns
// 0 exactly for structurally identical expressions, whatever tables
// built them. Within one table, two distinct operator nodes differ in
// structure, so unless their hashes collide Compare decides them in
// constant time. Across tables it walks identical subexpressions as
// trees, so there it suits small expressions.
func Compare(a, b Expr) int {
	if a == b {
		return 0
	}
	ra, va := rank(a)
	rb, vb := rank(b)
	if ra != rb {
		return cmp.Compare(ra, rb)
	}
	if ra != rankOp {
		return cmp.Compare(va, vb)
	}
	x, y := a.(*Op), b.(*Op)
	if c := cmp.Compare(x.hash, y.hash); c != 0 {
		return c
	}
	if c := cmp.Compare(x.Op, y.Op); c != 0 {
		return c
	}
	if c := cmp.Compare(len(x.Args), len(y.Args)); c != 0 {
		return c
	}
	for i := range x.Args {
		if c := Compare(x.Args[i], y.Args[i]); c != 0 {
			return c
		}
	}
	return 0
}

// Equal reports whether two expressions of one table are the same:
// the same operator node, or leaves of equal value.
func Equal(a, b Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	ra, va := rank(a)
	rb, vb := rank(b)
	return ra == rb && ra != rankOp && va == vb
}

// memoSize is the tree size above which a walk memoizes per operator
// node. Below it a plain recursion costs at most memoSize visits, less
// than any memo.
const memoSize = 64

// memoized reports whether a walk of e should memoize.
func memoized(e Expr) bool {
	op, ok := e.(*Op)
	return ok && op.size > memoSize
}

// ---------------------------------------------------------------------------
// Queries

// Leaf is a support-set member: a formal or a global entry.
type Leaf struct {
	FormalIndex int           // -1 when the leaf is a global
	Global      *ir.GlobalVar // nil when the leaf is a formal
}

// Support returns the expression's support set (the formals and globals
// whose entry values it reads, in order of first occurrence), and
// whether the expression is "closed" — free of Unknown leaves. A jump
// function is a valid polynomial exactly when its expression is closed
// (support may be empty: a constant).
func Support(e Expr) (leaves []Leaf, closed bool) {
	if e == nil {
		return nil, false
	}
	s := supportWalk{}
	if memoized(e) {
		s.seen = make(map[*Op]bool)
		s.have = make(map[Leaf]bool)
	}
	s.walk(e)
	return s.leaves, IsClosed(e)
}

// supportWalk collects leaves, each once; seen and have, the visited
// nodes and collected leaves, exist only for large expressions.
type supportWalk struct {
	leaves []Leaf
	seen   map[*Op]bool
	have   map[Leaf]bool
}

func (s *supportWalk) walk(e Expr) {
	switch e := e.(type) {
	case *Formal:
		s.add(Leaf{FormalIndex: e.Index})
	case *GlobalEntry:
		s.add(Leaf{FormalIndex: -1, Global: e.G})
	case *Op:
		if s.seen != nil {
			if s.seen[e] {
				return
			}
			s.seen[e] = true
		}
		for _, a := range e.Args {
			s.walk(a)
		}
	}
}

func (s *supportWalk) add(l Leaf) {
	if s.have != nil {
		if s.have[l] {
			return
		}
		s.have[l] = true
	} else if slices.Contains(s.leaves, l) {
		return
	}
	s.leaves = append(s.leaves, l)
}

// IsClosed reports whether e contains no Unknown leaves.
func IsClosed(e Expr) bool {
	switch e := e.(type) {
	case nil, *Unknown:
		return false
	case *Op:
		return !e.open
	}
	return true
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
	ev := evaluator{env: env}
	if memoized(e) {
		ev.memo = make(map[*Op]evalResult)
	}
	v, ok := ev.eval(e)
	if !ok {
		return lattice.Bottom
	}
	return v
}

// evaluator is one Eval call; memo exists only for large expressions.
type evaluator struct {
	env  Env
	memo map[*Op]evalResult
}

type evalResult struct {
	v  lattice.Value
	ok bool
}

// eval returns (value, ok); !ok means ⊥ (including fold failure).
func (ev *evaluator) eval(e Expr) (lattice.Value, bool) {
	switch e := e.(type) {
	case *Const:
		return lattice.OfInt(e.Val), true
	case *Formal:
		return liftLeaf(ev.env.FormalValue(e.Index))
	case *GlobalEntry:
		return liftLeaf(ev.env.GlobalValue(e.G))
	case *Op:
		if ev.memo == nil {
			return ev.evalOp(e)
		}
		if r, ok := ev.memo[e]; ok {
			return r.v, r.ok
		}
		v, ok := ev.evalOp(e)
		ev.memo[e] = evalResult{v, ok}
		return v, ok
	}
	return lattice.Bottom, false // *Unknown
}

func (ev *evaluator) evalOp(e *Op) (lattice.Value, bool) {
	var buf [4]int64
	vals := buf[:0]
	sawTop := false
	for _, a := range e.Args {
		v, ok := ev.eval(a)
		if !ok {
			return lattice.Bottom, false
		}
		if v.IsTop() {
			sawTop = true
			vals = append(vals, 0)
			continue
		}
		c, isInt := v.IntConst()
		if !isInt {
			return lattice.Bottom, false
		}
		vals = append(vals, c)
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
// and rebuilds the expression with folding in t, whatever table built
// e. It returns nil when a subexpression fails to fold (division by
// zero).
func (t *Table) Substitute(e Expr, formal func(int) Expr, global func(*ir.GlobalVar) Expr) Expr {
	s := substitution{t: t, formal: formal, global: global}
	if memoized(e) {
		s.memo = make(map[*Op]Expr)
	}
	return s.subst(e)
}

// substitution is one Substitute call; memo exists only for large
// expressions.
type substitution struct {
	t      *Table
	formal func(int) Expr
	global func(*ir.GlobalVar) Expr
	memo   map[*Op]Expr
}

func (s *substitution) subst(e Expr) Expr {
	switch e := e.(type) {
	case *Formal:
		if s.formal != nil {
			if r := s.formal(e.Index); r != nil {
				return r
			}
		}
	case *GlobalEntry:
		if s.global != nil {
			if r := s.global(e.G); r != nil {
				return r
			}
		}
	case *Op:
		if r, ok := s.memo[e]; ok {
			return r
		}
		var buf [4]Expr
		args := buf[:0]
		for _, a := range e.Args {
			r := s.subst(a)
			if r == nil {
				return nil
			}
			args = append(args, r)
		}
		r := s.t.MakeOp(e.Op, args...)
		if s.memo != nil && r != nil {
			s.memo[e] = r
		}
		return r
	}
	return e
}
