package ir

// RemoveUnreachable prunes blocks not reachable from the entry and
// removes them from the predecessor lists of surviving blocks. It must
// run before BuildSSA so that every phi operand slot corresponds to a
// live edge.
func (p *Proc) RemoveUnreachable() {
	p.ComputeRPO()
	var live []*Block
	for _, b := range p.Blocks {
		if b.RPO < 0 {
			continue
		}
		live = append(live, b)
		var preds []*Block
		for _, pr := range b.Preds {
			if pr.RPO >= 0 {
				preds = append(preds, pr)
			}
		}
		b.Preds = preds
	}
	for i, b := range live {
		b.ID = i
	}
	p.Blocks = live
}

// MergeTrivialJumps collapses straight-line block chains: whenever a
// block ends in an unconditional jump to a block whose only predecessor
// it is, the two merge. Dead-code elimination calls this after pruning
// so the cleaned procedure reads like freshly lowered code. The receiver
// must be in pre-SSA form (no phis).
func (p *Proc) MergeTrivialJumps() {
	changed := true
	for changed {
		changed = false
		for _, b := range p.Blocks {
			t := b.Terminator()
			if t == nil || t.Op != OpJmp {
				continue
			}
			c := b.Succs[0]
			if c == b || len(c.Preds) != 1 {
				continue
			}
			// Splice c into b.
			b.Instrs = b.Instrs[:len(b.Instrs)-1] // drop the jump
			for _, i := range c.Instrs {
				i.Block = b
				b.Instrs = append(b.Instrs, i)
			}
			b.Succs = c.Succs
			for _, s := range c.Succs {
				for pi, pr := range s.Preds {
					if pr == c {
						s.Preds[pi] = b
					}
				}
			}
			c.Succs = nil
			c.Preds = nil
			c.Instrs = nil
			changed = true
		}
		if changed {
			p.RemoveUnreachable()
		}
	}
}

// CloneStripSSA produces a fresh pre-SSA copy of the procedure suitable
// for re-analysis: phi instructions vanish (the named variables carry
// the merges, exactly as before SSA construction), and SSA values and
// call definitions are dropped. Calls still point at the original
// program's procedures until Assemble repoints them.
//
// keepInstr (when non-nil) filters instructions: returning false drops
// the instruction. Terminators are always kept. Dead-code elimination
// uses it.
//
// Variables and blocks keep their IDs, so the clone looks them up by ID.
// Its variables, blocks, instructions, operands and edge lists are each
// carved from one allocation per procedure; every carved slice is capped
// at its own length, so appending to one reallocates it.
func (p *Proc) CloneStripSSA(keepInstr func(*Instr) bool) *Proc {
	np := &Proc{
		Name:     p.Name,
		Kind:     p.Kind,
		Prog:     p.Prog,
		SrcLines: p.SrcLines,
	}
	vars := make([]Var, len(p.Vars))
	np.Vars = make([]*Var, len(p.Vars))
	for k, v := range p.Vars {
		vars[k] = *v
		np.Vars[k] = &vars[k]
	}
	mapVar := func(v *Var) *Var {
		if v == nil {
			return nil
		}
		return np.Vars[v.ID]
	}
	mapVars := func(list []*Var) []*Var {
		if len(list) == 0 {
			return nil
		}
		out := make([]*Var, len(list))
		for k, v := range list {
			out[k] = np.Vars[v.ID]
		}
		return out
	}
	np.Formals = mapVars(p.Formals)
	np.Result = mapVar(p.Result)
	np.GlobalVars = mapVars(p.GlobalVars)
	np.RetVars = mapVars(p.RetVars)

	nedges, ninstrs, nargs := 0, 0, 0
	for _, b := range p.Blocks {
		nedges += len(b.Succs) + len(b.Preds)
		for _, i := range b.Instrs {
			if i.Op != OpPhi {
				ninstrs++
				nargs += len(i.Args)
			}
		}
	}
	blocks := make([]Block, len(p.Blocks))
	np.Blocks = make([]*Block, len(p.Blocks))
	for k := range blocks {
		blocks[k].ID = k
		np.Blocks[k] = &blocks[k]
	}
	np.Entry = np.Blocks[p.Entry.ID]
	edges := make([]*Block, nedges)
	carveEdges := func(list []*Block) []*Block {
		if len(list) == 0 {
			return nil
		}
		out := edges[:len(list):len(list)]
		edges = edges[len(list):]
		for k, b := range list {
			out[k] = np.Blocks[b.ID]
		}
		return out
	}
	instrs := make([]Instr, ninstrs)
	list := make([]*Instr, ninstrs)
	args := make([]Operand, nargs)

	for bi, b := range p.Blocks {
		nb := np.Blocks[bi]
		nb.Succs = carveEdges(b.Succs)
		nb.Preds = carveEdges(b.Preds)
		n := 0
		for _, i := range b.Instrs {
			if i.Op == OpPhi {
				continue // named variables carry the merge
			}
			if keepInstr != nil && !i.Op.IsTerminator() && !keepInstr(i) {
				continue
			}
			ni := &instrs[0]
			instrs = instrs[1:]
			*ni = Instr{
				ID:         i.ID,
				Op:         i.Op,
				Block:      nb,
				Pos:        i.Pos,
				Role:       i.Role,
				Var:        mapVar(i.Var),
				Callee:     i.Callee,
				NumActuals: i.NumActuals,
			}
			ni.Args = args[:len(i.Args):len(i.Args)]
			args = args[len(i.Args):]
			for a, op := range i.Args {
				op.Val = nil
				op.Var = mapVar(op.Var)
				ni.Args[a] = op
			}
			list[n] = ni
			n++
		}
		if n > 0 {
			nb.Instrs = list[:n:n]
			list = list[n:]
		}
	}
	return np
}

// CloneProgram clones every procedure of a program into a fresh pre-SSA
// program.
func CloneProgram(p *Program) *Program {
	procs := make([]*Proc, len(p.Procs))
	for k, proc := range p.Procs {
		procs[k] = proc.CloneStripSSA(nil)
	}
	return Assemble(p, procs)
}

// Assemble returns a program over base's globals that holds procs, in
// order, with every call repointed by callee name into the new program.
// The procedures are pre-SSA copies (CloneStripSSA) whose calls still
// point into base or another program.
func Assemble(base *Program, procs []*Proc) *Program {
	np := NewProgram()
	np.Globals = base.Globals
	np.ScalarGlobals = base.ScalarGlobals
	for _, proc := range procs {
		np.AddProc(proc)
	}
	for _, proc := range np.Procs {
		for _, b := range proc.Blocks {
			for _, i := range b.Instrs {
				if i.Op == OpCall {
					i.Callee = np.ProcByName[i.Callee.Name]
				}
			}
		}
	}
	return np
}
