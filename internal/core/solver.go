package core

import (
	"ipcp/internal/core/lattice"
	"ipcp/internal/ir"
	"ipcp/internal/sym"
)

// This file implements stage 3 of §4.1: propagate the VAL sets around
// the call graph. Every jump function at a call site in a procedure
// reachable from main is one instance feeding one VAL cell of the
// callee; the solver meets the value the instance yields under its
// caller's VAL set into that cell until nothing lowers. The bounded
// lattice depth guarantees each cell lowers at most twice, so
// termination is immediate.
//
// The paper ran "a simple worklist iterative scheme" and cites the
// dependence-driven solver of Callahan et al. for its tighter
// evaluation bound (§3.1.5). Both are one FIFO worklist over the same
// instances that differ only in their wake-up policy, which
// Config.DependenceSolver selects:
//
//	                worklist (the paper's)        dependence (Callahan et al.)
//	work item       a procedure's call sites      one instance
//	lowered cell    re-enqueues its procedure     re-enqueues the instances whose
//	                                              support reads the cell
//
// Under the dependence policy each instance is therefore evaluated at
// most 1 + 2·|support| times, the O(Σ cost(J)) bound §3.1.5 quotes,
// where the worklist re-evaluates all of a procedure's sites whenever
// any of its cells lowers. Both reach the same fixpoint (the tests
// check it); the effort counters and benchmarks compare the schedules.
// The solve is sequential, so the counters are exact and reproducible.

// vals holds the VAL sets of stage 3: the best current approximation of
// every formal's and every global's value on entry to each procedure.
type vals struct {
	formals map[*ir.Proc][]lattice.Value
	globals map[*ir.Proc][]lattice.Value // parallel Program.ScalarGlobals

	// globalIndex maps a scalar global to its slot in globals.
	globalIndex map[*ir.GlobalVar]int
}

// procEnv adapts one procedure's VAL set to sym.Env for jump-function
// evaluation.
type procEnv struct {
	v  *vals
	at *ir.Proc
}

func (e procEnv) FormalValue(i int) lattice.Value {
	f := e.v.formals[e.at]
	if i < 0 || i >= len(f) {
		return lattice.Bottom
	}
	return f[i]
}

func (e procEnv) GlobalValue(g *ir.GlobalVar) lattice.Value {
	gi, ok := e.v.globalIndex[g]
	if !ok {
		return lattice.Bottom
	}
	return e.v.globals[e.at][gi]
}

// cellRef names one VAL cell: a formal, or a scalar-global slot, of
// proc.
type cellRef struct {
	proc   *ir.Proc
	slot   int
	global bool
}

// instance is one jump function at one call site, feeding one cell of
// the callee.
type instance struct {
	expr sym.Expr // nil = ⊥
	to   cellRef
}

// item is one unit of work: the instances insts[lo:hi], all at call
// sites in proc and evaluated under proc's VAL set.
type item struct {
	proc   *ir.Proc
	lo, hi int
}

// solver is one stage-3 solve: the instances, their cut into items,
// and the FIFO worklist. procItem (worklist policy) or readers
// (dependence policy) holds the wake-up index.
type solver struct {
	p      *propagation
	insts  []instance
	items  []item
	work   []int  // queued item indices, oldest first
	queued []bool // parallel to items

	procItem map[*ir.Proc]int
	readers  map[cellRef][]int
}

// stage3Solve runs stage 3 to the fixpoint from the initial VAL sets,
// with every work item on the initial worklist. It polls the
// cancellation hook once per work item, so a served analysis whose
// deadline expires abandons the solve within one item.
func (p *propagation) stage3Solve() error {
	p.initVals()
	s := p.newSolver()
	policy := "worklist"
	if s.readers != nil {
		policy = "dependence"
	}
	watch := newDescentWatcher(p.cfg.Debug, policy)
	for len(s.work) > 0 {
		if p.cancel != nil {
			if err := p.cancel(); err != nil {
				return err
			}
		}
		it := s.items[s.work[0]]
		s.queued[s.work[0]] = false
		s.work = s.work[1:]
		p.solverPasses++

		env := procEnv{v: p.vals, at: it.proc}
		// A call site's instances share their callee, so its VAL
		// vectors are looked up once per site, not per instance.
		var callee *ir.Proc
		var fv, gv []lattice.Value
		for _, in := range s.insts[it.lo:it.hi] {
			if in.to.proc != callee {
				callee = in.to.proc
				fv, gv = p.vals.formals[callee], p.vals.globals[callee]
			}
			cells, kind := fv, "formal"
			if in.to.global {
				cells, kind = gv, "global"
			}
			old := cells[in.to.slot]
			if old.IsBottom() {
				continue // nothing can lower it further
			}
			nv := lattice.Meet(old, p.evalJF(in.expr, env))
			if nv.Equal(old) {
				continue
			}
			watch.observe(in.to.proc, kind, in.to.slot, old, nv)
			cells[in.to.slot] = nv
			s.wake(in.to)
		}
	}
	return nil
}

// newSolver builds the instances of every call site in a procedure
// reachable from main, in body order, cuts them into items under the
// configured wake-up policy, and queues every item. Procedures never
// called stay at ⊤ and their sites never fire, preserving the paper's
// "⊤ only if never called". Only the dependence policy builds a
// support index.
func (p *propagation) newSolver() *solver {
	size := 0
	for _, site := range p.sites {
		size += len(site.Formal) + len(site.Global)
	}
	s := &solver{p: p, insts: make([]instance, 0, size)}
	if p.cfg.DependenceSolver {
		s.items = make([]item, 0, size)
		s.readers = make(map[cellRef][]int)
	} else {
		s.items = make([]item, 0, len(p.prog.Procs))
		s.procItem = make(map[*ir.Proc]int, len(p.prog.Procs))
	}
	p.reach = p.cg.ReachableFromMain()
	for _, proc := range p.prog.Procs {
		if !p.reach[proc] {
			continue
		}
		lo := len(s.insts)
		for _, call := range p.cg.Nodes[proc].Sites {
			site := p.sites[call]
			for i, e := range site.Formal {
				s.insts = append(s.insts, instance{expr: e, to: cellRef{proc: call.Callee, slot: i}})
			}
			for k, e := range site.Global {
				s.insts = append(s.insts, instance{expr: e, to: cellRef{proc: call.Callee, slot: k, global: true}})
			}
		}
		hi := len(s.insts)
		if s.readers == nil {
			// The procedure is one item even with no sites of its own
			// to fire, so a cold solve visits every reachable procedure.
			s.procItem[proc] = len(s.items)
			s.items = append(s.items, item{proc: proc, lo: lo, hi: hi})
			continue
		}
		for i := lo; i < hi; i++ {
			leaves, _ := sym.Support(s.insts[i].expr)
			for _, leaf := range leaves {
				c := cellRef{proc: proc, slot: leaf.FormalIndex}
				if leaf.Global != nil {
					c = cellRef{proc: proc, slot: p.globalIndex[leaf.Global], global: true}
				}
				s.readers[c] = append(s.readers[c], len(s.items))
			}
			s.items = append(s.items, item{proc: proc, lo: i, hi: i + 1})
		}
	}
	s.queued = make([]bool, len(s.items))
	s.work = make([]int, len(s.items))
	for i := range s.items {
		s.work[i] = i
		s.queued[i] = true
	}
	return s
}

// wake re-enqueues the items a lowered cell affects: the cell's
// procedure (worklist policy), or the instances reading the cell
// (dependence policy).
func (s *solver) wake(c cellRef) {
	if s.readers == nil {
		s.push(s.procItem[c.proc])
		return
	}
	for _, i := range s.readers[c] {
		s.push(i)
	}
}

// push appends item i to the worklist unless it is already queued.
func (s *solver) push(i int) {
	if s.queued[i] {
		return
	}
	s.queued[i] = true
	s.work = append(s.work, i)
}

// evalJF evaluates one jump function under the caller's VAL set. A nil
// jump function is ⊥.
func (p *propagation) evalJF(jf sym.Expr, env sym.Env) lattice.Value {
	p.jfEvals++
	if jf == nil {
		return lattice.Bottom
	}
	return sym.Eval(jf, env)
}

// initVals sets up the initial VAL sets: ⊤ everywhere, except array
// formals (they carry no constants) and main's globals, which are ⊥.
func (p *propagation) initVals() {
	p.vals = &vals{
		formals:     make(map[*ir.Proc][]lattice.Value, len(p.prog.Procs)),
		globals:     make(map[*ir.Proc][]lattice.Value, len(p.prog.Procs)),
		globalIndex: p.globalIndex,
	}
	for _, proc := range p.prog.Procs {
		fv := make([]lattice.Value, len(proc.Formals))
		gv := make([]lattice.Value, len(p.prog.ScalarGlobals))
		for i := range fv {
			fv[i] = lattice.Top
			if proc.Formals[i].Type.IsArray() {
				fv[i] = lattice.Bottom
			}
		}
		for i := range gv {
			gv[i] = lattice.Top
		}
		p.vals.formals[proc] = fv
		p.vals.globals[proc] = gv
	}
	if main := p.prog.Main; main != nil {
		gv := p.vals.globals[main]
		for i := range gv {
			gv[i] = lattice.Bottom
		}
	}
}
