package core

import (
	"ipcp/internal/ir"
)

// This file implements the paper's measurement (§4.1, "Recording the
// results"): the analyzer substitutes the members of CONSTANTS(p)
// textually into the procedure and counts the substitutions. Metzger &
// Stroud argue this metric relates directly to code improvement and
// factors out procedure length — a known but unreferenced constant
// counts zero.
//
// The count is tallied per variable in stage 1 and summed in stage 4. A
// reference is substituted exactly when its variable's VAL is constant,
// so collectUses tallies, once per procedure right after SSA
// construction, the references each formal's and scalar global's entry
// value would substitute, and countFromUses sums the tallies of the
// variables whose final VAL is constant. Every configuration with one
// Stage1Key sums the same tallies, and a reused procedure brings its
// tallies from the summary store instead of SSA form.

// VarUses counts the textual references one variable's constant entry
// value would substitute: Subs in total, Control of them in
// control-flow roles.
type VarUses struct {
	Subs    int
	Control int
}

// ProcUses is one procedure's substitution tallies: Formal[i] for the
// i-th formal, Global[k] for the k-th scalar global (parallel to
// Prog.ScalarGlobals).
type ProcUses struct {
	Formal []VarUses
	Global []VarUses

	// Phis is the number of phi instructions the procedure's SSA
	// conversion inserts — replayed into Proc.ElidedPhis when the
	// conversion is skipped, so IR-size traces match a scratch run.
	Phis int
}

// collectUses tallies a procedure's ProcUses from its SSA form under
// the given MOD oracle. A reference is counted when:
//
//   - it is a textual operand (not a synthetic call/ret/loop-control
//     use, and not a phi argument — phis are not source text);
//   - it reads the *entry* value of a formal or global (uses reached by
//     a redefinition keep the variable reference);
//   - it is not a by-reference actual whose formal the callee may
//     modify (replacing such a reference with a literal would change
//     the program, so the transformer leaves it).
func collectUses(proc *ir.Proc, oracle ir.ModOracle) *ProcUses {
	u := &ProcUses{
		Formal: make([]VarUses, len(proc.Formals)),
		Global: make([]VarUses, len(proc.GlobalVars)),
	}
	owner := make(map[*ir.Value]*VarUses, len(proc.Formals)+len(proc.GlobalVars))
	for i, f := range proc.Formals {
		if ev := proc.EntryValues[f.ID]; ev != nil {
			owner[ev] = &u.Formal[i]
		}
	}
	for k, gvar := range proc.GlobalVars {
		if ev := proc.EntryValues[gvar.ID]; ev != nil {
			owner[ev] = &u.Global[k]
		}
	}
	for _, b := range proc.Blocks {
		for _, i := range b.Instrs {
			if i.Op == ir.OpPhi {
				u.Phis++
				continue
			}
			for a := range i.Args {
				op := &i.Args[a]
				if op.Synthetic || op.Val == nil {
					continue
				}
				vu := owner[op.Val]
				if vu == nil {
					continue
				}
				if i.Op == ir.OpCall && a < i.NumActuals && isByRefModified(oracle, i, a) {
					continue
				}
				vu.Subs++
				// §4's motivation: constants that determine control
				// flow (loop bounds, strides, branch conditions) are
				// the ones that pay off in dependence analysis and
				// parallelization decisions.
				if i.Role != ir.RoleNone {
					vu.Control++
				}
			}
		}
	}
	return u
}

// countFromUses is stage 4's count for one procedure: the sum of the
// tallies of the variables whose final VAL is constant.
func (p *propagation) countFromUses(proc *ir.Proc) (count, controlFlow int) {
	u := p.uses[proc]
	fv := p.vals.formals[proc]
	for i := range proc.Formals {
		if _, ok := fv[i].IntConst(); ok {
			count += u.Formal[i].Subs
			controlFlow += u.Formal[i].Control
		}
	}
	gv := p.vals.globals[proc]
	for k := range proc.GlobalVars {
		if _, ok := gv[k].IntConst(); ok {
			count += u.Global[k].Subs
			controlFlow += u.Global[k].Control
		}
	}
	return count, controlFlow
}

// isByRefModified reports whether actual a of the call is a bare
// variable bound to a formal the callee may modify (per the active MOD
// oracle).
func isByRefModified(oracle ir.ModOracle, call *ir.Instr, a int) bool {
	op := call.Args[a]
	if op.Const != nil || op.Var == nil || op.Var.Kind == ir.TempVar || op.Var.Type.IsArray() {
		return false
	}
	if a < len(call.Callee.Formals) && call.Callee.Formals[a].Type.IsArray() {
		return false
	}
	return oracle.ModifiesFormal(call.Callee, a)
}
