package core

import (
	"ipcp/internal/analysis/dce"
	"ipcp/internal/analysis/sccp"
	"ipcp/internal/core/lattice"
	"ipcp/internal/ir"
	"ipcp/internal/pass"
)

// dcePass is one round of the paper's complete propagation as a pass:
// it reads prop's result (brought up to date by the pass.Refresh ahead
// of it) and removes the code the discovered constants prove dead.
// Iterated under pass.Fixpoint it reproduces Table 3's "complete"
// column.
type dcePass struct{ prop *Propagate }

func (d *dcePass) Name() string { return "dce" }

func (d *dcePass) Run(ctx *pass.Context) (bool, error) {
	np, changed := eliminateDeadCode(d.prop.Result())
	if !changed {
		return false, nil
	}
	ctx.SetProgram(np)
	return true, nil
}

// eliminateDeadCode performs one round of the paper's complete
// propagation (Table 3, column 3): seed each procedure's SCCP with its
// CONSTANTS(p) set, remove the code the constants prove dead, and return
// a fresh pre-SSA program. changed reports whether any procedure lost
// code; the caller then re-propagates from scratch (all values reset to
// ⊤).
func eliminateDeadCode(res *Result) (*ir.Program, bool) {
	prog := res.Prog
	np := ir.NewProgram()
	np.Globals = prog.Globals
	np.ScalarGlobals = prog.ScalarGlobals

	changed := false
	for _, proc := range prog.Procs {
		pr := res.Procs[proc.Name]
		seed := make(map[*ir.Value]lattice.Value)
		for i, f := range proc.Formals {
			if c, ok := pr.FormalVals[i].IntConst(); ok {
				if ev := proc.EntryValues[f.ID]; ev != nil {
					seed[ev] = lattice.OfInt(c)
				}
			}
		}
		for k, gvar := range proc.GlobalVars {
			if c, ok := pr.GlobalVals[k].IntConst(); ok {
				if ev := proc.EntryValues[gvar.ID]; ev != nil {
					seed[ev] = lattice.OfInt(c)
				}
			}
		}
		sres := sccp.Run(proc, seed, nil)
		nproc, stats := dce.Transform(proc, sres, nil)
		if stats.Changed {
			changed = true
		}
		np.AddProc(nproc)
	}
	// Repoint call targets into the new program.
	for _, proc := range np.Procs {
		for _, b := range proc.Blocks {
			for _, i := range b.Instrs {
				if i.Op == ir.OpCall {
					i.Callee = np.ProcByName[i.Callee.Name]
				}
			}
		}
	}
	return np, changed
}
