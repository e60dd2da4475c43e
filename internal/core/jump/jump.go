// Package jump implements the jump functions of Grove & Torczon (PLDI
// 1993): the four forward jump-function flavors of §3.1 and the
// polynomial return jump function of §3.2.
//
// A forward jump function J^s_y gives the value of actual parameter y at
// call site s as a function of the enclosing procedure's formals (and
// globals — footnote 1 extends "parameter" to include them). We
// represent a jump function as a sym.Expr; nil is ⊥. The four flavors
// are *filters* over the full value-numbering expression:
//
//	Literal          — y is a literal constant at s (misses globals)
//	Intraprocedural  — gcp(y,s) folds to a constant
//	PassThrough      — a constant, or exactly one incoming formal/global
//	Polynomial       — any closed expression over formals/globals
//
// so the constants found by each flavor are a subset of those found by
// the next (§3.1), which the test suite verifies.
package jump

import (
	"fmt"

	"ipcp/internal/ir"
	"ipcp/internal/sym"
)

// Kind selects a forward jump-function flavor, in increasing order of
// construction complexity (§3.1).
type Kind int

// Forward jump-function flavors.
const (
	Literal Kind = iota
	Intraprocedural
	PassThrough
	Polynomial
)

// Kinds lists the flavors in the order the paper's Table 2 presents
// groups of columns (most precise first).
var Kinds = []Kind{Polynomial, PassThrough, Intraprocedural, Literal}

func (k Kind) String() string {
	switch k {
	case Literal:
		return "literal"
	case Intraprocedural:
		return "intraprocedural"
	case PassThrough:
		return "pass-through"
	case Polynomial:
		return "polynomial"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Filter restricts the value-numbering expression e computed for
// operand op (an actual parameter or implicit global at a call site) to
// the class kind permits. It returns nil (⊥) when the expression falls
// outside the class.
func Filter(kind Kind, op ir.Operand, e sym.Expr) sym.Expr {
	switch kind {
	case Literal:
		// Only a literal constant written at the call site; implicit
		// global operands are never literal, so constant-valued globals
		// are missed (§3.1.1).
		if op.Literal && op.Const != nil && op.Const.Type == ir.Int {
			return sym.NewConst(op.Const.Int)
		}
		return nil
	case Intraprocedural:
		if _, ok := e.(*sym.Const); ok {
			return e
		}
		return nil
	case PassThrough:
		switch e.(type) {
		case *sym.Const, *sym.Formal, *sym.GlobalEntry:
			return e
		}
		return nil
	case Polynomial:
		if e != nil && sym.IsClosed(e) {
			return e
		}
		return nil
	}
	return nil
}

// Site holds the forward jump functions of one call site.
type Site struct {
	Call *ir.Instr

	// Formal[i] is the jump function for the callee's i-th formal
	// (nil = ⊥; array formals have no jump function).
	Formal []sym.Expr

	// Global[k] is the jump function for Program.ScalarGlobals[k].
	Global []sym.Expr
}

// ---------------------------------------------------------------------------
// Return jump functions (§3.2)

// Returns holds the return jump functions of one procedure: the best
// symbolic expression (over the procedure's entry values) for each
// binding's value when the procedure returns. nil entries are ⊥.
type Returns struct {
	// Result is the jump function for the function result (functions
	// only).
	Result sym.Expr

	// Formal[i] is the return jump function for the i-th formal.
	Formal []sym.Expr

	// Global maps each scalar global to its return jump function.
	Global map[*ir.GlobalVar]sym.Expr
}

// Store collects return jump functions per procedure and implements
// valnum.ReturnEval: during value numbering of a caller, a call-modified
// binding takes the callee's return jump function evaluated with the
// symbolic values of the actuals — kept only when it folds to a
// constant. A return jump function that depends on parameters of the
// *calling* procedure therefore never evaluates as constant, exactly the
// limitation §3.2 describes.
type Store struct {
	prog        *ir.Program
	globalIndex map[*ir.GlobalVar]int
	byProc      map[*ir.Proc]*Returns
}

// NewStore returns an empty return-jump-function store for prog.
func NewStore(prog *ir.Program) *Store {
	gi := make(map[*ir.GlobalVar]int, len(prog.ScalarGlobals))
	for i, g := range prog.ScalarGlobals {
		gi[g] = i
	}
	return &Store{prog: prog, globalIndex: gi, byProc: make(map[*ir.Proc]*Returns)}
}

// Set records the return jump functions of proc.
func (s *Store) Set(proc *ir.Proc, r *Returns) { s.byProc[proc] = r }

// Get returns the return jump functions of proc (nil when none were
// built, e.g. for recursive procedures).
func (s *Store) Get(proc *ir.Proc) *Returns { return s.byProc[proc] }

// unknownArg stands for an argument with no symbolic value. Leaves
// compare by value, so one shared leaf serves every site.
var unknownArg = &sym.Unknown{ID: -1}

// CallDefExpr implements valnum.ReturnEval. It substitutes into t, the
// caller's table.
func (s *Store) CallDefExpr(t *sym.Table, call *ir.Instr, def *ir.Value, argExpr func(int) sym.Expr) sym.Expr {
	r := s.byProc[call.Callee]
	if r == nil {
		return nil
	}
	var e sym.Expr
	switch {
	case def == call.Dst:
		e = r.Result
	case def.CalleeFormal >= 0:
		if def.CalleeFormal < len(r.Formal) {
			e = r.Formal[def.CalleeFormal]
		}
	case def.CalleeGlobal != nil:
		e = r.Global[def.CalleeGlobal]
	}
	if e == nil {
		return nil
	}
	// Substitute the callee's formals and globals with the symbolic
	// values of the corresponding arguments at this site.
	subst := t.Substitute(e,
		func(j int) sym.Expr {
			if j >= call.NumActuals {
				return unknownArg // arity mismatch
			}
			if a := argExpr(j); a != nil {
				return a
			}
			return unknownArg
		},
		func(g *ir.GlobalVar) sym.Expr {
			gi, ok := s.globalIndex[g]
			if !ok {
				return unknownArg
			}
			if a := argExpr(call.NumActuals + gi); a != nil {
				return a
			}
			return unknownArg
		})
	// §3.2: a return jump function is used only when it evaluates to a
	// constant with the information available at the site.
	if c, ok := subst.(*sym.Const); ok {
		return c
	}
	return nil
}
