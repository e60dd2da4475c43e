package core

import (
	"fmt"

	"ipcp/internal/core/lattice"
	"ipcp/internal/ir"
)

// descentWatcher is the Debug-mode assertion behind the monotone-
// descent invariant of stage 3: every update a solver stores into a
// VAL cell must satisfy next ⊑ old. The lattice has depth 2, so the
// solvers' termination rests on cells only ever moving down; a raise
// is a solver bug, never a user error, and panics loudly naming the
// solver, the offending procedure, the cell, and both values (the same
// fail-fast contract as the Debug IR verifier).
//
// The nil watcher is a no-op, so non-Debug runs pay only a nil check
// per changed cell.
type descentWatcher struct {
	solver string
}

// newDescentWatcher returns a watcher under Debug, nil otherwise.
func newDescentWatcher(debug bool, solver string) *descentWatcher {
	if !debug {
		return nil
	}
	return &descentWatcher{solver: solver}
}

// descentFault, when non-nil, perturbs the value the watcher is about
// to check — never the value the solver stores. It exists only so the
// tests can seed a monotonicity fault and prove the watcher fires
// naming the offending procedure.
var descentFault func(proc *ir.Proc, old, next lattice.Value) lattice.Value

// observe checks one impending update of proc's VAL cell (kind
// "formal" or "global", slot idx) and panics on a raise.
func (w *descentWatcher) observe(proc *ir.Proc, kind string, idx int, old, next lattice.Value) {
	if w == nil {
		return
	}
	if f := descentFault; f != nil {
		next = f(proc, old, next)
	}
	if next.Leq(old) {
		return
	}
	panic(fmt.Sprintf(
		"core: %s solver raised VAL cell %s[%d] of procedure %q: %s -> %s (monotone-descent violation)",
		w.solver, kind, idx, proc.Name, old, next))
}
