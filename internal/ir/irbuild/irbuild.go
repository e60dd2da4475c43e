// Package irbuild lowers a semantically analyzed MiniFortran program
// into the ir package's representation: one CFG of three-address
// instructions per procedure.
//
// Lowering is deliberately rebuildable: the analyses mutate the IR (SSA
// construction, dead-code elimination), so each analysis configuration
// calls Build to get a fresh program rather than sharing one.
package irbuild

import (
	"fmt"
	"sort"

	"ipcp/internal/ir"
	"ipcp/internal/mf/ast"
	"ipcp/internal/mf/sema"
)

// Build lowers the analyzed program to IR.
func Build(prog *sema.Program) *ir.Program {
	b := &builder{sema: prog, irp: ir.NewProgram(), states: make(map[*sema.UnitInfo]*unitState)}
	b.declareGlobals()
	// Create all procedures and their variables first: bodies reference
	// other procedures' formals and results (function calls, by-ref
	// binding checks), so every signature must exist before any body is
	// lowered.
	for _, u := range prog.Units {
		b.declareProc(u)
	}
	for _, u := range prog.Units {
		b.states[u] = b.declareVars(u)
	}
	for _, u := range prog.Units {
		b.lowerBody(u)
	}
	return b.irp
}

// unitState carries the per-unit lowering tables between the declaration
// and body passes.
type unitState struct {
	vars map[*sema.Symbol]*ir.Var
	syms []*sema.Symbol // the unit's symbols, sorted by name
}

type builder struct {
	sema   *sema.Program
	irp    *ir.Program
	states map[*sema.UnitInfo]*unitState

	// Per-unit lowering state.
	unit    *sema.UnitInfo
	proc    *ir.Proc
	vars    map[*sema.Symbol]*ir.Var
	labels  map[int]*ir.Block
	cur     *ir.Block
	nextTmp int

	// synthetic marks generated (non-textual) variable uses; see
	// ir.Operand.Synthetic.
	synthetic bool

	// role tags emitted instructions as loop-bound or condition
	// computations (ir.Instr.Role).
	role ir.Role
}

func irType(t ast.BaseType, isArray bool) ir.Type {
	switch t {
	case ast.Integer:
		if isArray {
			return ir.IntArray
		}
		return ir.Int
	case ast.Logical:
		return ir.Bool
	default:
		if isArray {
			return ir.RealArray
		}
		return ir.Real
	}
}

func (b *builder) declareGlobals() {
	for _, g := range b.sema.Globals {
		ig := &ir.GlobalVar{
			ID:    g.ID,
			Block: g.Block,
			Name:  g.Name,
			Type:  irType(g.Type, g.IsArray()),
			Size:  1,
			Dims:  g.Dims,
		}
		for _, d := range g.Dims {
			ig.Size *= d
		}
		b.irp.Globals = append(b.irp.Globals, ig)
		if !ig.Type.IsArray() {
			b.irp.ScalarGlobals = append(b.irp.ScalarGlobals, ig)
		}
	}
}

func (b *builder) declareProc(u *sema.UnitInfo) {
	kind := ir.SubProc
	switch u.Unit.Kind {
	case ast.ProgramUnit:
		kind = ir.MainProc
	case ast.FunctionUnit:
		kind = ir.FuncProc
	}
	proc := &ir.Proc{Name: u.Name, Kind: kind, SrcLines: UnitLines(u.Unit)}
	b.irp.AddProc(proc)
}

// declareVars creates the procedure's formals, result, global views,
// and locals, plus the Ret operand layout.
func (b *builder) declareVars(u *sema.UnitInfo) *unitState {
	b.vars = make(map[*sema.Symbol]*ir.Var)
	p := b.irp.ProcByName[u.Name]
	syms := orderedSymbols(u)

	// Formals, in order.
	for _, s := range u.Params {
		v := p.NewVar(s.Name, ir.FormalVar, irType(s.Type, s.IsArray()))
		v.Index = s.ParamIndex
		v.Size = s.Size()
		v.Dims = s.Dims
		p.Formals = append(p.Formals, v)
		b.vars[s] = v
	}
	// Function result.
	if u.Result != nil {
		v := p.NewVar(u.Result.Name, ir.ResultVar, irType(u.Result.Type, false))
		p.Result = v
		b.vars[u.Result] = v
	}
	// Every scalar global gets a per-procedure view, named by this
	// unit's COMMON declaration when it has one, canonically otherwise.
	localName := make(map[*ir.GlobalVar]string)
	for _, s := range u.CommonVars {
		g := b.irp.Globals[s.Global.ID]
		localName[g] = s.Name
	}
	for _, g := range b.irp.ScalarGlobals {
		name := localName[g]
		if name == "" {
			name = g.Name
		}
		v := p.NewVar(name, ir.GlobalRefVar, g.Type)
		v.Global = g
		p.GlobalVars = append(p.GlobalVars, v)
	}
	// Bind this unit's COMMON symbols (scalars to the views above,
	// arrays to fresh array vars).
	for _, s := range u.CommonVars {
		g := b.irp.Globals[s.Global.ID]
		if g.Type.IsArray() {
			v := p.NewVar(s.Name, ir.GlobalRefVar, g.Type)
			v.Global = g
			v.Size = g.Size
			v.Dims = g.Dims
			b.vars[s] = v
			continue
		}
		for i, sg := range b.irp.ScalarGlobals {
			if sg == g {
				b.vars[s] = p.GlobalVars[i]
				break
			}
		}
	}
	// Locals (declared or implicit), in name order so that every lowering
	// of the unit numbers them alike.
	for _, s := range syms {
		if s.Kind != sema.LocalSym {
			continue
		}
		v := p.NewVar(s.Name, ir.LocalVar, irType(s.Type, s.IsArray()))
		v.Size = s.Size()
		v.Dims = s.Dims
		b.vars[s] = v
	}

	// Ret operand layout.
	if p.Result != nil {
		p.RetVars = append(p.RetVars, p.Result)
	}
	for _, f := range p.Formals {
		if !f.Type.IsArray() {
			p.RetVars = append(p.RetVars, f)
		}
	}
	p.RetVars = append(p.RetVars, p.GlobalVars...)

	return &unitState{vars: b.vars, syms: syms}
}

// lowerBody fills in the body of the already-declared procedure.
func (b *builder) lowerBody(u *sema.UnitInfo) {
	b.unit = u
	b.proc = b.irp.ProcByName[u.Name]
	b.vars = b.states[u].vars
	b.labels = make(map[int]*ir.Block)
	b.nextTmp = 0

	p := b.proc
	p.Entry = p.NewBlock()
	b.cur = p.Entry

	// DATA initializations (PROGRAM unit only) lower to entry
	// assignments of literal constants.
	for _, s := range b.states[u].syms {
		if !s.HasInit {
			continue
		}
		v := b.vars[s]
		var c *ir.Const
		if v.Type == ir.Int {
			c = ir.IntConst(s.InitInt)
		} else {
			c = ir.RealConst(s.InitReal)
		}
		b.emit(&ir.Instr{Op: ir.OpCopy, Var: v, Args: []ir.Operand{ir.ConstOperand(c)}})
	}

	b.lowerStmts(u.Unit.Body)
	b.finishWithReturn()
	b.proc.RemoveUnreachable()
}

// orderedSymbols returns the unit's symbols in a deterministic order
// (map iteration is randomized).
func orderedSymbols(u *sema.UnitInfo) []*sema.Symbol {
	names := make([]string, 0, len(u.Symbols))
	for n := range u.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	syms := make([]*sema.Symbol, len(names))
	for i, n := range names {
		syms[i] = u.Symbols[n]
	}
	return syms
}

// finishWithReturn terminates the final block with an implicit RETURN if
// control can fall off the end of the unit.
func (b *builder) finishWithReturn() {
	if b.cur != nil && b.cur.Terminator() == nil {
		b.emitReturn()
	}
}

func (b *builder) emit(i *ir.Instr) *ir.Instr {
	if i.Role == ir.RoleNone {
		i.Role = b.role
	}
	if b.cur == nil {
		// Unreachable code after a GOTO/RETURN: collect it in a fresh
		// (predecessor-less) block; RemoveUnreachable prunes it.
		b.cur = b.proc.NewBlock()
	}
	return b.cur.Append(i)
}

func (b *builder) newTemp(t ir.Type) *ir.Var {
	v := b.proc.NewVar(fmt.Sprintf("t%d", b.nextTmp), ir.TempVar, t)
	b.nextTmp++
	return v
}

// startBlock ends the current block with a jump into next (if it is
// still open) and makes next current.
func (b *builder) startBlock(next *ir.Block) {
	if b.cur != nil && b.cur.Terminator() == nil {
		b.emit(&ir.Instr{Op: ir.OpJmp})
		ir.AddEdge(b.cur, next)
	}
	b.cur = next
}

// labelBlock returns (creating on demand) the block a numeric label
// denotes.
func (b *builder) labelBlock(label int) *ir.Block {
	if blk, ok := b.labels[label]; ok {
		return blk
	}
	blk := b.proc.NewBlock()
	b.labels[label] = blk
	return blk
}

func (b *builder) emitReturn() {
	args := make([]ir.Operand, len(b.proc.RetVars))
	for i, v := range b.proc.RetVars {
		args[i] = ir.VarOperand(v)
		args[i].Synthetic = true
	}
	b.emit(&ir.Instr{Op: ir.OpRet, Args: args})
	b.cur = nil
}
