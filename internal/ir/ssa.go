package ir

// ModOracle answers, during SSA construction, whether a call may modify
// a by-reference binding. The real oracle is backed by interprocedural
// MOD summaries; the worst-case oracle (paper §4.2, Table 3 column 1)
// says yes to everything, forcing the value-numbering pass to make
// worst-case assumptions at every call site.
type ModOracle interface {
	// ModifiesFormal reports whether callee may modify its idx-th formal.
	ModifiesFormal(callee *Proc, idx int) bool
	// ModifiesGlobal reports whether a call to callee may modify g.
	ModifiesGlobal(callee *Proc, g *GlobalVar) bool
}

// WorstCase is the ModOracle that assumes every call clobbers every
// by-reference binding and every global.
var WorstCase ModOracle = worstCase{}

type worstCase struct{}

func (worstCase) ModifiesFormal(*Proc, int) bool        { return true }
func (worstCase) ModifiesGlobal(*Proc, *GlobalVar) bool { return true }

// BuildSSA converts the procedure into SSA form in place: it computes
// dominators, inserts phi instructions for the tracked variables, and
// renames every use and definition. Call instructions get CallDef values
// for each binding the oracle says the callee may modify.
//
// Per-variable and per-block state lives in slices indexed by Var.ID
// and Block.ID, and each block's phis are ordered by variable ID, so
// rebuilding the same IR yields the same phis and value IDs.
//
// BuildSSA must be called exactly once per procedure instance; to
// reanalyze under a different oracle, rebuild the IR (see
// irbuild.Build).
func (p *Proc) BuildSSA(oracle ModOracle) {
	if p.ssaBuilt {
		panic("ir: BuildSSA called twice on " + p.Name)
	}
	p.ssaBuilt = true
	rpo := p.ComputeDominators()
	p.rpo = rpo

	// --- Phi placement -----------------------------------------------------
	// Every tracked variable is also implicitly defined at entry (EntryDef
	// or UndefDef), but the entry block needs no site: Verify requires
	// that it has no predecessors, so its dominance frontier is empty.
	var defs []defSite
	addDef := func(v *Var, b *Block) {
		if v.Tracked() {
			defs = append(defs, defSite{v, b})
		}
	}
	untracked := 0 // definitions that get a value but no phis (temps)
	for _, b := range rpo {
		for _, i := range b.Instrs {
			switch {
			case i.Op.DefinesScalar() && i.Var != nil:
				if !i.Var.Tracked() {
					untracked++
				}
				addDef(i.Var, b)
			case i.Op == OpCall:
				if i.Var != nil { // function result temp
					untracked++
				}
				p.addCallDefSites(i, oracle, addDef, b)
			}
		}
	}
	phis := p.placePhis(defs)
	p.insertPhis(phis)

	// --- Renaming -----------------------------------------------------------
	// Renaming pushes one value per phi and definition. Those and the
	// entry values share one allocation; only a defensive undef (see top)
	// comes from the heap.
	pushes := len(phis) + len(defs) + untracked
	tracked := 0
	for _, v := range p.Vars {
		if v.Tracked() {
			tracked++
		}
	}
	r := &renamer{
		proc:   p,
		oracle: oracle,
		cur:    make([]*Value, len(p.Vars)),
		undo:   make([]undoEntry, 0, pushes),
		slab:   make([]Value, tracked+pushes),
	}
	p.EntryValues = make([]*Value, len(p.Vars))
	for _, v := range p.Vars {
		if !v.Tracked() {
			continue
		}
		kind := UndefDef
		if v.Kind == FormalVar || v.Kind == GlobalRefVar {
			kind = EntryDef
		}
		val := r.newValue(v, kind, nil)
		p.EntryValues[v.ID] = val
		r.cur[v.ID] = val
	}
	r.renameBlock(p.Entry)
}

// defSite is one definition of a tracked variable in a block; placePhis
// also uses it for the (variable, block) pairs that need a phi.
type defSite struct {
	v *Var
	b *Block
}

// addCallDefSites registers the definition sites a call contributes: one
// per bare scalar-variable actual whose formal the callee may modify,
// and one per scalar global the callee may modify.
func (p *Proc) addCallDefSites(call *Instr, oracle ModOracle, addDef func(*Var, *Block), b *Block) {
	callee := call.Callee
	for i := 0; i < call.NumActuals; i++ {
		v := callByRefActual(call, i)
		if v == nil || !v.Tracked() {
			continue
		}
		if oracle.ModifiesFormal(callee, i) {
			addDef(v, b)
		}
	}
	for k, gv := range p.GlobalVars {
		if oracle.ModifiesGlobal(callee, p.Prog.ScalarGlobals[k]) {
			addDef(gv, b)
		}
	}
}

// callByRefActual returns the bare scalar variable passed at actual
// position i of the call (the by-reference bindings a callee can write
// through), or nil when the actual is a constant, a temporary holding an
// expression value, or an array.
func callByRefActual(call *Instr, i int) *Var {
	op := call.Args[i]
	if op.Const != nil || op.Var == nil {
		return nil
	}
	v := op.Var
	if v.Type.IsArray() || v.Kind == TempVar {
		return nil
	}
	// The callee's formal must itself be scalar for the binding to be a
	// scalar write-through.
	if call.Callee != nil && i < len(call.Callee.Formals) && call.Callee.Formals[i].Type.IsArray() {
		return nil
	}
	return v
}

// placePhis returns the phis the definition sites call for, one per
// block on the iterated dominance frontier of each variable's sites,
// ordered by variable ID.
func (p *Proc) placePhis(defs []defSite) []defSite {
	// Counting-sort the sites by variable.
	start := make([]int, len(p.Vars)+1)
	for _, d := range defs {
		start[d.v.ID+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	sites := make([]*Block, len(defs))
	next := append([]int(nil), start[:len(p.Vars)]...)
	for _, d := range defs {
		sites[next[d.v.ID]] = d.b
		next[d.v.ID]++
	}

	// Per-block stamps: the ID+1 of the last variable that gave the block
	// a phi, and of the last one that put it on the worklist.
	hasPhi := make([]int, len(p.Blocks))
	queued := make([]int, len(p.Blocks))
	var phis []defSite
	var work []*Block
	for _, v := range p.Vars {
		vs := sites[start[v.ID]:start[v.ID+1]]
		if len(vs) == 0 {
			continue
		}
		stamp := v.ID + 1
		work = work[:0]
		for _, b := range vs {
			if queued[b.ID] != stamp {
				queued[b.ID] = stamp
				work = append(work, b)
			}
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, df := range b.DomFront {
				if hasPhi[df.ID] == stamp {
					continue
				}
				hasPhi[df.ID] = stamp
				phis = append(phis, defSite{v, df})
				if queued[df.ID] != stamp {
					queued[df.ID] = stamp
					work = append(work, df)
				}
			}
		}
	}
	return phis
}

// insertPhis creates the phi instructions and splices each block's run
// of them, in the given order, ahead of its instructions.
func (p *Proc) insertPhis(phis []defSite) {
	heads := make([][]*Instr, len(p.Blocks))
	instrs := make([]Instr, len(phis))
	for k, s := range phis {
		phi := &instrs[k]
		*phi = Instr{Op: OpPhi, Var: s.v, Block: s.b, Args: make([]Operand, len(s.b.Preds))}
		for j := range phi.Args {
			phi.Args[j] = VarOperand(s.v)
		}
		heads[s.b.ID] = append(heads[s.b.ID], phi)
	}
	for id, head := range heads {
		if head != nil {
			b := p.Blocks[id]
			b.Instrs = append(head, b.Instrs...)
		}
	}
}

// renamer carries the reaching definition of every variable down the
// dominator tree: cur is indexed by Var.ID, and undo logs the entries a
// block overwrote so they can be restored when the walk leaves it.
type renamer struct {
	proc   *Proc
	oracle ModOracle
	cur    []*Value
	undo   []undoEntry
	slab   []Value // values not yet handed out
}

type undoEntry struct {
	v   *Var
	old *Value
}

// newValue creates the procedure's next SSA value for v.
func (r *renamer) newValue(v *Var, kind DefKind, def *Instr) *Value {
	var val *Value
	if len(r.slab) > 0 {
		val = &r.slab[0]
		r.slab = r.slab[1:]
	} else {
		val = new(Value)
	}
	*val = Value{ID: r.proc.nextValID, Var: v, Kind: kind, Def: def, CalleeFormal: -1}
	r.proc.nextValID++
	return val
}

func (r *renamer) top(v *Var) *Value {
	if val := r.cur[v.ID]; val != nil {
		return val
	}
	// Temps are defined before use within dominating code; no reaching
	// definition can only mean an untracked variable read before any
	// write, which lowering never produces (tracked variables start at
	// their entry value). Keep a defensive shared undef; it stays the
	// variable's value outside every definition's dominator subtree.
	u := r.newValue(v, UndefDef, nil)
	r.cur[v.ID] = u
	return u
}

func (r *renamer) push(v *Var, val *Value) {
	r.undo = append(r.undo, undoEntry{v, r.cur[v.ID]})
	r.cur[v.ID] = val
}

func (r *renamer) renameBlock(b *Block) {
	mark := len(r.undo)

	for _, i := range b.Instrs {
		// Phi definitions first; their arguments are filled from
		// predecessors.
		if i.Op == OpPhi {
			val := r.newValue(i.Var, InstrDef, i)
			i.Dst = val
			r.push(i.Var, val)
			continue
		}

		// Rewrite uses.
		for a := range i.Args {
			op := &i.Args[a]
			if op.Const != nil || op.Var == nil || op.Var.Type.IsArray() {
				continue
			}
			val := r.top(op.Var)
			op.Val = val
			val.Uses = append(val.Uses, i)
		}

		// Definitions.
		switch {
		case i.Op == OpCall:
			r.renameCall(i)
		case i.Op.DefinesScalar() && i.Var != nil:
			val := r.newValue(i.Var, InstrDef, i)
			i.Dst = val
			r.push(i.Var, val)
		}
	}

	// Fill phi arguments of successors. A successor may list b as a
	// predecessor more than once (a conditional branch whose arms meet
	// immediately), so fill every matching slot; process each distinct
	// successor once.
	for si, s := range b.Succs {
		if containsBlockBefore(b.Succs, si, s) {
			continue
		}
		for j, pb := range s.Preds {
			if pb != b {
				continue
			}
			for _, i := range s.Instrs {
				if i.Op != OpPhi {
					break
				}
				val := r.top(i.Var)
				i.Args[j].Val = val
				val.Uses = append(val.Uses, i)
			}
		}
	}

	for _, child := range b.DomChild {
		r.renameBlock(child)
	}

	for k := len(r.undo) - 1; k >= mark; k-- {
		r.cur[r.undo[k].v.ID] = r.undo[k].old
	}
	r.undo = r.undo[:mark]
}

// renameCall creates the call's definitions: the function result and the
// CallDef values for modified by-reference bindings.
func (r *renamer) renameCall(i *Instr) {
	p := r.proc
	if i.Var != nil { // function result temp
		val := r.newValue(i.Var, InstrDef, i)
		i.Dst = val
		r.push(i.Var, val)
	}
	i.CallDefs = make([]*Value, i.NumActuals+len(p.GlobalVars))
	for a := 0; a < i.NumActuals; a++ {
		v := callByRefActual(i, a)
		if v == nil || !v.Tracked() {
			continue
		}
		if !r.oracle.ModifiesFormal(i.Callee, a) {
			continue
		}
		val := r.newValue(v, CallDef, i)
		val.CalleeFormal = a
		i.CallDefs[a] = val
		r.push(v, val)
	}
	for k, gv := range p.GlobalVars {
		g := p.Prog.ScalarGlobals[k]
		if !r.oracle.ModifiesGlobal(i.Callee, g) {
			continue
		}
		val := r.newValue(gv, CallDef, i)
		val.CalleeGlobal = g
		i.CallDefs[i.NumActuals+k] = val
		r.push(gv, val)
	}
}

// containsBlockBefore reports whether list[:i] already contains b.
func containsBlockBefore(list []*Block, i int, b *Block) bool {
	for _, x := range list[:i] {
		if x == b {
			return true
		}
	}
	return false
}
