package core

import (
	"crypto/sha256"
	"encoding/hex"

	"ipcp/internal/analysis/callgraph"
	"ipcp/internal/core/lattice"
	"ipcp/internal/ir"
	"ipcp/internal/par"
)

// This file implements demand-driven re-solving of stage 3: instead of
// always iterating to the fixpoint from ⊤ over the whole program, an
// incremental run may restart the worklist from the previous run's
// final VAL assignment, re-solving only the procedures the edit could
// have affected.
//
// A plain restart from a stale assignment is unsound, because the
// lattice only descends during a solve — a cell can never *rise* — yet
// an edit can raise a cell's true value (deleting the one call site
// that passed 2 makes a previously-⊥ formal constant again). The
// classic fix is a two-phase scheme:
//
//  1. Reset the *cone* — every procedure whose incoming constraints
//     may have changed, closed forward over call edges — to its
//     initial assignment (⊤, with the usual array-formal and
//     main-globals exceptions).
//  2. Keep the previous fixpoint everywhere else and run the ordinary
//     worklist over the cone plus its boundary callers.
//
// Soundness argument (DESIGN.md, "Demand-driven re-solve", spells it
// out): let W be the warm region (the cone's complement). The cone is
// closed under callees, so no cone procedure calls into W — every
// caller of a W-procedure is itself in W. The dirty base additionally
// contains every procedure whose jump functions moved (fingerprint
// diff), every target of a removed call edge, and every procedure
// whose reachability flipped, so the constraint system restricted to W
// is *identical* to the previous run's restricted system, and the old
// fixpoint restricted to W is exactly the new fixpoint there. The
// starting assignment is therefore pointwise ≥ the new fixpoint, and
// every constraint it could violate has its source procedure (or
// jump-function instance) on the initial worklist, so the monotone
// worklist iteration converges to exactly the cold fixpoint — the
// differential suite and the fuzz target check bit-identity.

// ProcCells is one procedure's VAL assignment: one lattice cell per
// formal and one per scalar global (parallel to Program.ScalarGlobals).
type ProcCells struct {
	Formals []lattice.Value
	Globals []lattice.Value
}

// WarmSeed is the previous fixpoint handed into a seeded analysis by
// the incremental driver (via Reuse.Warm). All maps key by procedure
// name; entries for procedures absent from the current program are
// ignored.
type WarmSeed struct {
	// Cells holds the previous final VAL assignment. A procedure with
	// no entry (or one whose vector arities no longer match) is treated
	// as dirty and re-solved from its initial assignment.
	Cells map[string]ProcCells

	// JFHash holds the previous run's per-procedure jump-function
	// fingerprints; a procedure whose freshly derived fingerprint
	// differs (or that has no entry) is dirty.
	JFHash map[string]string

	// Dirty names procedures the driver already knows need a cold
	// re-solve: source-changed or new procedures, targets of removed
	// call edges, and procedures whose reachability from main flipped.
	Dirty map[string]bool
}

// WarmStats reports how stage 3 of a seeded run executed; the
// incremental driver surfaces them as Report.Incremental counters.
type WarmStats struct {
	// Started reports whether the run warm-started from a previous
	// fixpoint (false: the solve ran cold from ⊤).
	Started bool

	// ConeProcs counts the procedures reset to their initial cells (the
	// whole program on a cold solve).
	ConeProcs int

	// Seeded counts the items placed on the initial stage-3 worklist;
	// Visited the items popped over the whole solve; Enqueued the items
	// (re-)enqueued by cell changes after the initial seeding.
	Seeded   int64
	Visited  int64
	Enqueued int64
}

// sitesFingerprint hashes one procedure's forward jump functions: per
// call site in body order, the callee name and the canonical spelling
// (sym.Expr.Key) of every formal and global jump function. Site jump
// functions are always closed — jump.Filter admits only constants,
// entry-value leaves, and closed polynomials — so the spelling is
// stable across runs and the fingerprint moves exactly when some jump
// function's meaning does.
func (p *propagation) sitesFingerprint(n *callgraph.Node) string {
	h := sha256.New()
	var sep = []byte{0}
	for _, call := range n.Sites {
		site := p.sites[call]
		if site == nil {
			h.Write([]byte("\x01nosite"))
			continue
		}
		h.Write([]byte(call.Callee.Name))
		h.Write(sep)
		for _, e := range site.Formal {
			if e == nil {
				h.Write([]byte("\x02bot"))
			} else {
				h.Write([]byte(e.Key()))
			}
			h.Write(sep)
		}
		h.Write([]byte{3})
		for _, e := range site.Global {
			if e == nil {
				h.Write([]byte("\x02bot"))
			} else {
				h.Write([]byte(e.Key()))
			}
			h.Write(sep)
		}
		h.Write([]byte{4})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// siteFingerprints computes (once) the jump-function fingerprint of
// every procedure; must run after stage 2.
func (p *propagation) siteFingerprints() map[string]string {
	if p.siteHash != nil {
		return p.siteHash
	}
	nodes := p.cg.TopDown()
	hashes := make([]string, len(nodes))
	par.For(p.cfg.Workers, len(nodes), func(i int) {
		hashes[i] = p.sitesFingerprint(nodes[i])
	})
	p.siteHash = make(map[string]string, len(nodes))
	for i, n := range nodes {
		p.siteHash[n.Proc.Name] = hashes[i]
	}
	return p.siteHash
}

// warmPrep applies the two-phase warm-start scheme after initVals: it
// computes the cone, overwrites the cells of every procedure outside
// it with the previous fixpoint, and returns the cone set. A nil
// return means the solve runs cold (no seed, or no usable one).
func (p *propagation) warmPrep() map[*ir.Proc]bool {
	if p.warm == nil || p.prog.Main == nil {
		return nil
	}
	fp := p.siteFingerprints()

	// Dirty base: driver-declared dirt, moved jump functions, and
	// procedures without a usable previous assignment.
	dirty := make([]*ir.Proc, 0)
	isDirty := func(proc *ir.Proc) bool {
		name := proc.Name
		if p.warm.Dirty[name] {
			return true
		}
		if prev, ok := p.warm.JFHash[name]; !ok || prev != fp[name] {
			return true
		}
		cells, ok := p.warm.Cells[name]
		return !ok ||
			len(cells.Formals) != len(proc.Formals) ||
			len(cells.Globals) != len(p.prog.ScalarGlobals)
	}
	for _, proc := range p.prog.Procs {
		if isDirty(proc) {
			dirty = append(dirty, proc)
		}
	}

	// Cone: the dirty base closed forward over call edges, so a cone
	// member's callees are always in the cone — the invariant the
	// soundness argument rests on. Closure runs over every procedure
	// (reachable or not): unreachable cone members simply keep their
	// initial cells, exactly as a cold solve leaves them.
	cone := make(map[*ir.Proc]bool, len(dirty))
	queue := dirty
	for _, proc := range queue {
		cone[proc] = true
	}
	//lint:ignore cancelpoll BFS over the finite call graph: each procedure enters the cone (and hence the queue) at most once
	for len(queue) > 0 {
		proc := queue[0]
		queue = queue[1:]
		n := p.cg.Nodes[proc]
		if n == nil {
			continue
		}
		for _, m := range n.Callees {
			if !cone[m.Proc] {
				cone[m.Proc] = true
				queue = append(queue, m.Proc)
			}
		}
	}

	// Phase 2: procedures outside the cone restart from the previous
	// fixpoint. The meet with the initial cell is a defensive clamp — a
	// well-formed snapshot's cells are already ≤ the initial assignment
	// (array formals ⊥, main's globals ⊥), so it is normally an
	// identity.
	for _, proc := range p.prog.Procs {
		if cone[proc] {
			continue
		}
		cells := p.warm.Cells[proc.Name]
		fv, gv := p.vals.formals[proc], p.vals.globals[proc]
		for i := range fv {
			fv[i] = lattice.Meet(fv[i], cells.Formals[i])
		}
		for k := range gv {
			gv[k] = lattice.Meet(gv[k], cells.Globals[k])
		}
	}

	p.warmStarted = true
	p.coneProcs = len(cone)
	return cone
}

// warmStats assembles the stage-3 execution counters of this run.
func (p *propagation) warmStats() WarmStats {
	st := WarmStats{
		Started:   p.warmStarted,
		ConeProcs: p.coneProcs,
		Seeded:    int64(p.seeded),
		Visited:   int64(p.solverPasses),
		Enqueued:  int64(p.enqueued),
	}
	if !p.warmStarted {
		st.ConeProcs = len(p.prog.Procs)
	}
	return st
}
