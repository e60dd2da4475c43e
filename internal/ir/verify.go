package ir

import "fmt"

// Verify checks the procedure's structural invariants and returns a
// descriptive error for the first violation. It accepts both pre-SSA
// and SSA-form procedures (SSA-only checks run once EntryValues is set).
// Tests run it over every constructed and transformed procedure.
//
// Checked invariants:
//
//   - the entry block exists and belongs to the procedure;
//   - block and variable IDs equal their index in Blocks and Vars, and
//     in SSA form there is one entry-value slot per variable and every
//     value's ID is below NumValues (the dense IDs that per-block,
//     per-variable and per-value state is indexed by);
//   - successor/predecessor lists are symmetric (with multiplicity);
//   - every reachable block ends in exactly one terminator, branch
//     blocks have two successors, jump blocks one, ret/stop none;
//   - no terminator appears in the middle of a block;
//   - phis appear only at block heads, with one argument per
//     predecessor (SSA form only);
//   - every operand's SSA value, when present, is defined by an
//     instruction of this procedure or is an entry/undef value;
//   - call instructions have a callee and NumActuals within bounds.
func (p *Proc) Verify() error {
	if p.Entry == nil {
		return fmt.Errorf("%s: no entry block", p.Name)
	}
	// The dense-ID invariant per-block and per-variable state rests on.
	for k, b := range p.Blocks {
		if b.ID != k {
			return fmt.Errorf("%s: block %v is Blocks[%d]", p.Name, b, k)
		}
	}
	for k, v := range p.Vars {
		if v.ID != k {
			return fmt.Errorf("%s: variable %s has ID %d but is Vars[%d]", p.Name, v, v.ID, k)
		}
	}
	inProc := func(b *Block) bool { return b.ID >= 0 && b.ID < len(p.Blocks) && p.Blocks[b.ID] == b }
	if !inProc(p.Entry) {
		return fmt.Errorf("%s: entry block not in Blocks", p.Name)
	}
	// The entry block is never a branch target: lowering starts labeled
	// code in a fresh block, and the dominance-frontier computation's
	// ≥2-predecessor shortcut assumes it (an entry inside a loop would
	// need a phi merging the external and loop-carried paths).
	if len(p.Entry.Preds) != 0 {
		return fmt.Errorf("%s: entry block has %d predecessors", p.Name, len(p.Entry.Preds))
	}

	// Collect definitions for SSA checking, by value ID.
	ssa := p.EntryValues != nil
	var defined []*Value
	if ssa {
		if len(p.EntryValues) != len(p.Vars) {
			return fmt.Errorf("%s: %d entry values for %d variables", p.Name, len(p.EntryValues), len(p.Vars))
		}
		defs := append([]*Value(nil), p.EntryValues...)
		for _, b := range p.Blocks {
			for _, i := range b.Instrs {
				defs = append(append(defs, i.Dst), i.CallDefs...)
			}
		}
		defined = make([]*Value, p.NumValues())
		for _, v := range defs {
			if v == nil {
				continue
			}
			if v.ID < 0 || v.ID >= len(defined) {
				return fmt.Errorf("%s: value %v has ID %d, want below NumValues %d", p.Name, v, v.ID, len(defined))
			}
			defined[v.ID] = v
		}
	}

	count := func(list []*Block, b *Block) int {
		n := 0
		for _, x := range list {
			if x == b {
				n++
			}
		}
		return n
	}

	for _, b := range p.Blocks {
		// Edge symmetry with multiplicity.
		for _, s := range b.Succs {
			if !inProc(s) {
				return fmt.Errorf("%s: %v has successor outside the procedure", p.Name, b)
			}
			if count(b.Succs, s) != count(s.Preds, b) {
				return fmt.Errorf("%s: edge %v→%v asymmetric (%d succs vs %d preds)",
					p.Name, b, s, count(b.Succs, s), count(s.Preds, b))
			}
		}
		for _, pr := range b.Preds {
			if !inProc(pr) {
				return fmt.Errorf("%s: %v has predecessor outside the procedure", p.Name, b)
			}
		}

		// Terminator discipline.
		for k, i := range b.Instrs {
			if i.Op.IsTerminator() && k != len(b.Instrs)-1 {
				return fmt.Errorf("%s: %v has terminator %v mid-block", p.Name, b, i.Op)
			}
		}
		if t := b.Terminator(); t != nil {
			want := -1
			switch t.Op {
			case OpBr:
				want = 2
			case OpJmp:
				want = 1
			case OpRet, OpStop:
				want = 0
			}
			if want >= 0 && len(b.Succs) != want {
				return fmt.Errorf("%s: %v ends in %v but has %d successors",
					p.Name, b, t.Op, len(b.Succs))
			}
		} else if len(b.Instrs) > 0 || len(b.Succs) > 0 {
			// Blocks must not fall through.
			if len(b.Succs) > 0 {
				return fmt.Errorf("%s: %v has successors but no terminator", p.Name, b)
			}
		}

		// Phi placement and arity; operand definitions.
		seenNonPhi := false
		for _, i := range b.Instrs {
			if i.Op == OpPhi {
				if seenNonPhi {
					return fmt.Errorf("%s: %v has phi after non-phi", p.Name, b)
				}
				if ssa && len(i.Args) != len(b.Preds) {
					return fmt.Errorf("%s: %v phi arity %d vs %d preds",
						p.Name, b, len(i.Args), len(b.Preds))
				}
			} else {
				seenNonPhi = true
			}
			if i.Op == OpCall {
				if i.Callee == nil {
					return fmt.Errorf("%s: call without callee in %v", p.Name, b)
				}
				if i.NumActuals > len(i.Args) {
					return fmt.Errorf("%s: call NumActuals %d > args %d",
						p.Name, i.NumActuals, len(i.Args))
				}
			}
			for a := range i.Args {
				op := i.Args[a]
				if op.Val != nil && ssa {
					if op.Val.ID < 0 || op.Val.ID >= len(defined) {
						return fmt.Errorf("%s: %v uses undefined value %v: ID %d, want below NumValues %d",
							p.Name, b, op.Val, op.Val.ID, len(defined))
					}
					if defined[op.Val.ID] != op.Val {
						return fmt.Errorf("%s: %v uses undefined value %v", p.Name, b, op.Val)
					}
				}
				if op.Const == nil && op.Var == nil && op.Val == nil {
					return fmt.Errorf("%s: %v has empty operand %d of %v", p.Name, b, a, i.Op)
				}
			}
		}
	}
	return nil
}

// VerifyProgram runs Verify over every procedure.
func VerifyProgram(prog *Program) error {
	for _, proc := range prog.Procs {
		if err := proc.Verify(); err != nil {
			return err
		}
	}
	return nil
}
