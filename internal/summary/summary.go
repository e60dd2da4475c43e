// Package summary is the analyzer's persistent program database, after
// the one Grove & Torczon's analyzer lived in inside ParaScope: a
// versioned codec and a content-addressed store for per-procedure
// interprocedural summaries. A procedure's record captures everything
// stage 1 and stage 2 of the propagation compute for it — its return
// jump functions, the forward jump functions of every call site in its
// body, its MOD/REF sets, and its outgoing call edges — as one
// ProcSummary, in a portable form with no pointers into any particular
// IR instance, so a summary written by one run can be bound into the
// freshly lowered program of a later run (internal/incr does the
// binding and decides validity).
package summary

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"ipcp/internal/ir"
	"ipcp/internal/sym"
)

// Key addresses one stored value: a SHA-256 over everything the value
// depends on (internal/incr computes cone keys; see its documentation
// for the scheme).
type Key [sha256.Size]byte

// KeyOf hashes a list of byte strings into a Key. Each part is
// length-prefixed so the framing is unambiguous.
func KeyOf(parts ...string) Key {
	h := sha256.New()
	var frame [20]byte
	for _, p := range parts {
		b := strconv.AppendInt(frame[:0], int64(len(p)), 10)
		b = append(b, ':')
		h.Write(b)
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ---------------------------------------------------------------------------
// Portable expressions

// Expr is a jump-function expression with every IR pointer replaced by
// a stable coordinate: formals by index, globals by dense ID (guarded
// by the program's globals-schema hash), operators by name. A nil Expr
// is ⊥, exactly like a nil sym.Expr. Stored expressions are always
// closed — the propagation only keeps closed jump functions — so there
// is no Unknown variant.
type Expr interface{ isExpr() }

// Const is an integer constant leaf.
type Const struct{ Val int64 }

// Formal is the entry value of the enclosing procedure's Index-th
// formal parameter.
type Formal struct {
	Index int
	Name  string
}

// Global is the entry value of the global with the given dense ID; Ref
// is its "BLOCK.NAME" spelling, cross-checked when binding.
type Global struct {
	ID  int
	Ref string
}

// Op applies a named operator to argument expressions.
type Op struct {
	Name string
	Args []Expr
}

func (*Const) isExpr()  {}
func (*Formal) isExpr() {}
func (*Global) isExpr() {}
func (*Op) isExpr()     {}

// opByName maps operator spellings back to IR operators — exactly the
// arithmetic set sym.Table.MakeOp accepts.
var opByName = map[string]ir.Op{}

func init() {
	for _, op := range []ir.Op{
		ir.OpNeg, ir.OpAbs, ir.OpAdd, ir.OpSub, ir.OpMul,
		ir.OpDiv, ir.OpPow, ir.OpMod, ir.OpMin, ir.OpMax,
	} {
		opByName[op.String()] = op
	}
}

// Exporter converts the symbolic jump functions of one record to
// portable form. An operator node reached more than once, from one
// expression or several, is converted once, so the portable
// expressions share it as the symbolic ones do and the codec writes it
// once. The zero Exporter is ready to use.
type Exporter struct {
	memo map[*sym.Op]exported
}

// exported is one converted operator and its nesting depth.
type exported struct {
	op    *Op
	depth int
}

// FromSym converts a symbolic jump function to portable form. It
// returns an error on any leaf that has no portable coordinate (an
// Unknown, or an operator outside the arithmetic set) and on any
// expression nested deeper than the decoder accepts (maxExprDepth) —
// callers treat that summary as unstorable and simply skip caching
// it, rather than store a record every read would reject.
func (x *Exporter) FromSym(e sym.Expr) (Expr, error) {
	out, _, err := x.fromSym(e)
	return out, err
}

// fromSym is FromSym plus the result's depth, counted as the decoder
// counts it: 0 for a leaf, one more than its deepest argument for an
// operator.
func (x *Exporter) fromSym(e sym.Expr) (Expr, int, error) {
	switch e := e.(type) {
	case nil:
		return nil, 0, nil
	case *sym.Const:
		return &Const{Val: e.Val}, 0, nil
	case *sym.Formal:
		return &Formal{Index: e.Index, Name: e.Name}, 0, nil
	case *sym.GlobalEntry:
		return &Global{ID: e.G.ID, Ref: e.G.String()}, 0, nil
	case *sym.Op:
		if m, ok := x.memo[e]; ok {
			return m.op, m.depth, nil
		}
		name := e.Op.String()
		if _, ok := opByName[name]; !ok {
			return nil, 0, fmt.Errorf("summary: operator %q is not portable", name)
		}
		out := &Op{Name: name, Args: make([]Expr, len(e.Args))}
		depth := 0
		for i, a := range e.Args {
			pa, d, err := x.fromSym(a)
			if err != nil {
				return nil, 0, err
			}
			out.Args[i] = pa
			depth = max(depth, d+1)
		}
		if depth > maxExprDepth {
			return nil, 0, fmt.Errorf("summary: expression nesting exceeds %d", maxExprDepth)
		}
		if x.memo == nil {
			x.memo = make(map[*sym.Op]exported)
		}
		x.memo[e] = exported{out, depth}
		return out, depth, nil
	}
	return nil, 0, fmt.Errorf("summary: expression %v is not portable", e)
}

// Binder binds the portable expressions of one record into a program.
// It rebuilds every operator in a sym.Table of its own, once per
// portable node, so a node the stored expressions share is rebuilt
// once and stays shared.
type Binder struct {
	prog     *ir.Program
	nformals int
	table    sym.Table
	memo     map[*Op]sym.Expr
}

// NewBinder returns a binder for the expressions of a record over the
// entry values of a procedure with nformals formals in prog.
func NewBinder(prog *ir.Program, nformals int) Binder {
	return Binder{prog: prog, nformals: nformals}
}

// ToSym binds a portable expression: formals become sym.Formal leaves
// (validated against the binder's arity), globals resolve by ID against
// prog.Globals with the Ref spelling cross-checked, and operators
// rebuild through Table.MakeOp. The propagation stores normalized
// expressions and MakeOp orders operands by structure alone, so the
// bound expression is structurally identical to the one encoded.
func (b *Binder) ToSym(e Expr) (sym.Expr, error) {
	switch e := e.(type) {
	case nil:
		return nil, nil
	case *Const:
		return sym.NewConst(e.Val), nil
	case *Formal:
		if e.Index < 0 || e.Index >= b.nformals {
			return nil, fmt.Errorf("summary: formal index %d out of range [0,%d)", e.Index, b.nformals)
		}
		return &sym.Formal{Index: e.Index, Name: e.Name}, nil
	case *Global:
		if e.ID < 0 || e.ID >= len(b.prog.Globals) {
			return nil, fmt.Errorf("summary: global id %d out of range", e.ID)
		}
		g := b.prog.Globals[e.ID]
		if g.String() != e.Ref {
			return nil, fmt.Errorf("summary: global id %d is %s, summary says %s", e.ID, g, e.Ref)
		}
		return &sym.GlobalEntry{G: g}, nil
	case *Op:
		if out, ok := b.memo[e]; ok {
			return out, nil
		}
		op, ok := opByName[e.Name]
		if !ok {
			return nil, fmt.Errorf("summary: unknown operator %q", e.Name)
		}
		var buf [4]sym.Expr
		args := buf[:0]
		for _, a := range e.Args {
			sa, err := b.ToSym(a)
			if err != nil {
				return nil, err
			}
			if sa == nil {
				return nil, fmt.Errorf("summary: ⊥ argument inside %q", e.Name)
			}
			args = append(args, sa)
		}
		out := b.table.MakeOp(op, args...)
		if out == nil {
			return nil, fmt.Errorf("summary: %q failed to rebuild", e.Name)
		}
		if b.memo == nil {
			b.memo = make(map[*Op]sym.Expr)
		}
		b.memo[e] = out
		return out, nil
	}
	return nil, fmt.Errorf("summary: unknown expression variant %T", e)
}

// ---------------------------------------------------------------------------
// Procedure summaries

// GlobalExpr pairs a global coordinate with an expression (return jump
// functions for globals; the map form of jump.Returns, flattened and
// sorted by ID for determinism).
type GlobalExpr struct {
	ID  int
	Ref string
	E   Expr
}

// ReturnSummary is the portable form of jump.Returns: the return jump
// functions of one procedure, over its own entry values.
type ReturnSummary struct {
	// Result is the function-result jump function (functions only).
	Result Expr

	// Formal[i] is the return jump function of the i-th formal.
	Formal []Expr

	// Globals holds the return jump functions of globals, sorted by ID.
	Globals []GlobalExpr
}

// SiteSummary is the portable form of jump.Site: the forward jump
// functions of one call site in the summarized procedure's body, over
// the *caller's* entry values. Sites are stored in the callgraph's
// deterministic body order, so the i-th SiteSummary binds to the i-th
// callgraph site on reuse.
type SiteSummary struct {
	// Callee is the called procedure's name, cross-checked on binding.
	Callee string

	// Formal[i] is the jump function of the callee's i-th formal
	// (nil = ⊥; array formals stay nil).
	Formal []Expr

	// Global[k] is the jump function of the program's k-th scalar
	// global.
	Global []Expr
}

// ProcSummary is one procedure's stored record: everything stage 1
// computes for it, the stage-2 forward jump functions of its call
// sites, and the substitution-use vectors and SSA phi count that let a
// reusing run count without re-deriving.
type ProcSummary struct {
	// Name is the procedure name; SourceHash the normalized-source
	// fingerprint of the unit the summary was computed from.
	Name       string
	SourceHash string

	// Callees lists the distinct procedures this one calls, sorted.
	Callees []string

	// Returns holds the return jump functions, nil when none were built
	// (recursive procedures, or a configuration without return JFs).
	Returns *ReturnSummary

	// ModFormals/RefFormals flag the formals the procedure (transitively)
	// may modify / reference; ModGlobals/RefGlobals list the IDs of such
	// globals, sorted. Binding cross-checks these against a freshly
	// computed MOD/REF summary, so a stale summary can never smuggle in
	// wrong side-effect information.
	ModFormals []bool
	RefFormals []bool
	ModGlobals []int
	RefGlobals []int

	// FormalUses[i] / GlobalUses[k] count the textual references the
	// i-th formal's / k-th scalar global's constant entry value would
	// substitute (GlobalUses is parallel to the program's scalar-global
	// list, guarded by the globals-schema hash). With these cached, a
	// run that reuses the summary counts substitutions without ever
	// converting the procedure to SSA form.
	FormalUses []UseCount
	GlobalUses []UseCount

	// SSAPhis is the number of phi instructions the procedure's SSA
	// conversion inserts; a run that skips the conversion replays it so
	// IR-size traces stay identical to a from-scratch run.
	SSAPhis int

	// Sites holds one entry per call site in body order.
	Sites []*SiteSummary
}

// UseCount is one variable's substitutable-reference tally: Subs total
// references, Control of them in control-flow roles (loop bounds,
// strides, branch conditions).
type UseCount struct {
	Subs    int
	Control int
}

// SortGlobalExprs orders a GlobalExpr slice by ID (encoding requires
// deterministic order).
func SortGlobalExprs(gs []GlobalExpr) {
	sort.Slice(gs, func(i, j int) bool { return gs[i].ID < gs[j].ID })
}

// ---------------------------------------------------------------------------
// Snapshots

// ProcStamp is what a snapshot remembers about one procedure: enough to
// decide reuse (SourceHash) and to locate the stored record (Key).
type ProcStamp struct {
	SourceHash string
	Key        Key
}

// Snapshot is the per-run index of the program database: which
// configuration and globals schema it was taken under, and the stamp of
// every procedure. A snapshot plus the store it indexes is sufficient
// to re-analyze an edited program incrementally.
type Snapshot struct {
	// ConfigKey fingerprints the analysis configuration bits summaries
	// depend on (jump-function flavor, return JFs, MOD) plus the codec
	// version; GlobalsHash fingerprints the COMMON-block layout.
	ConfigKey   string
	GlobalsHash string

	// Procs maps procedure names to their stamps.
	Procs map[string]ProcStamp
}
