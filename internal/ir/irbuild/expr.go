package irbuild

import (
	"ipcp/internal/ir"
	"ipcp/internal/mf/ast"
	"ipcp/internal/mf/sema"
	"ipcp/internal/mf/token"
)

type tokenPos = token.Pos

// genExpr lowers an expression and returns the operand holding its value
// together with the operand's IR type.
func (b *builder) genExpr(e ast.Expr) (ir.Operand, ir.Type) {
	switch e := e.(type) {
	case *ast.IntLit:
		return ir.ConstOperand(ir.IntConst(e.Value)), ir.Int
	case *ast.RealLit:
		return ir.ConstOperand(ir.RealConst(e.Value)), ir.Real
	case *ast.LogicalLit:
		return ir.ConstOperand(ir.BoolConst(e.Value)), ir.Bool
	case *ast.VarRef:
		return b.genVarRef(e)
	case *ast.CallExpr:
		return b.genCallExpr(e)
	case *ast.UnaryExpr:
		return b.genUnary(e)
	case *ast.BinaryExpr:
		return b.genBinary(e)
	}
	// StrLit or an errored node: produce a harmless zero.
	return ir.ConstOperand(ir.IntConst(0)), ir.Int
}

func (b *builder) genVarRef(e *ast.VarRef) (ir.Operand, ir.Type) {
	sym := b.sema.RefSym[e]
	if sym == nil {
		return ir.ConstOperand(ir.IntConst(0)), ir.Int
	}
	// PARAMETER constants fold to literals at lowering time (as FORTRAN
	// compilers do at parse time).
	if sym.Kind == sema.ConstSym {
		if sym.Type == ast.Integer {
			return ir.ConstOperand(ir.IntConst(sym.ConstInt)), ir.Int
		}
		return ir.ConstOperand(ir.RealConst(sym.ConstReal)), ir.Real
	}
	v := b.vars[sym]
	if len(e.Indexes) > 0 {
		return b.loadArrayElement(v, e)
	}
	op := ir.VarOperand(v)
	op.Synthetic = b.synthetic
	return op, v.Type
}

// loadArrayElement emits `tmp = aload arr(indexes)`.
//
// OpALoad needs two variables (the array and the scalar destination);
// Instr.Var holds the destination temp and the array travels as the
// first argument (an array-typed operand).
func (b *builder) loadArrayElement(arr *ir.Var, e *ast.VarRef) (ir.Operand, ir.Type) {
	tmp := b.newTemp(arr.Type.Elem())
	args := make([]ir.Operand, 0, 1+len(e.Indexes))
	args = append(args, ir.VarOperand(arr))
	for _, ix := range e.Indexes {
		op, _ := b.genExpr(ix)
		args = append(args, op)
	}
	b.emit(&ir.Instr{Op: ir.OpALoad, Var: tmp, Args: args, Pos: e.Pos()})
	return ir.VarOperand(tmp), tmp.Type
}

var intrinsicOps = map[string]ir.Op{
	"MOD": ir.OpMod, "ABS": ir.OpAbs, "IABS": ir.OpAbs,
	"MIN": ir.OpMin, "MAX": ir.OpMax, "MIN0": ir.OpMin, "MAX0": ir.OpMax,
}

func (b *builder) genCallExpr(e *ast.CallExpr) (ir.Operand, ir.Type) {
	tgt := b.sema.CallTargets[e]
	if tgt == nil {
		return ir.ConstOperand(ir.IntConst(0)), ir.Int
	}
	if tgt.Intrinsic != nil {
		op := intrinsicOps[tgt.Intrinsic.Name]
		t := ir.Int
		args := make([]ir.Operand, 0, len(e.Args))
		for _, a := range e.Args {
			argOp, at := b.genExpr(a)
			if at == ir.Real {
				t = ir.Real
			}
			args = append(args, argOp)
		}
		if tgt.Intrinsic.IntOnly {
			t = ir.Int
		}
		tmp := b.newTemp(t)
		b.emit(&ir.Instr{Op: op, Var: tmp, Args: args, Pos: e.Pos()})
		return ir.VarOperand(tmp), t
	}
	callee := b.irp.ProcByName[tgt.Unit.Name]
	resType := callee.Result.Type
	tmp := b.genCall(tgt.Unit.Name, e.Args, b.newTemp(resType), e.Pos())
	return ir.VarOperand(tmp), resType
}

// genCall emits a call instruction. result is the temp receiving a
// function's value (nil for subroutine calls); genCall returns it.
func (b *builder) genCall(calleeName string, argExprs []ast.Expr, result *ir.Var, pos tokenPos) *ir.Var {
	callee := b.irp.ProcByName[calleeName]
	args := make([]ir.Operand, 0, len(argExprs)+len(b.proc.GlobalVars))
	for _, a := range argExprs {
		args = append(args, b.genActual(a))
	}
	n := len(args)
	// Implicit uses of every scalar global (the callee may read them).
	for _, gv := range b.proc.GlobalVars {
		op := ir.VarOperand(gv)
		op.Synthetic = true
		args = append(args, op)
	}
	b.emit(&ir.Instr{
		Op:         ir.OpCall,
		Callee:     callee,
		Var:        result,
		Args:       args,
		NumActuals: n,
		Pos:        pos,
	})
	return result
}

// genActual lowers one actual argument. Bare scalar variables stay as
// variable operands (the by-reference binding a callee can write
// through); bare array names pass the array; everything else evaluates
// into a constant or temp.
func (b *builder) genActual(a ast.Expr) ir.Operand {
	if vr, ok := a.(*ast.VarRef); ok && len(vr.Indexes) == 0 {
		sym := b.sema.RefSym[vr]
		if sym != nil && sym.Kind != sema.ConstSym {
			op := ir.VarOperand(b.vars[sym])
			op.Synthetic = b.synthetic
			return op
		}
	}
	op, _ := b.genExpr(a)
	return op
}

func (b *builder) genUnary(e *ast.UnaryExpr) (ir.Operand, ir.Type) {
	x, t := b.genExpr(e.X)
	// Fold negated literals: `-1` is textually a literal constant, and
	// the negative-step DO lowering depends on seeing it as one.
	if e.Op == ast.Neg && x.Const != nil {
		switch x.Const.Type {
		case ir.Int:
			c := ir.ConstOperand(ir.IntConst(-x.Const.Int))
			c.Literal = x.Literal
			return c, ir.Int
		case ir.Real:
			c := ir.ConstOperand(ir.RealConst(-x.Const.Real))
			c.Literal = x.Literal
			return c, ir.Real
		}
	}
	if e.Op == ast.Not && x.Const != nil && x.Const.Type == ir.Bool {
		c := ir.ConstOperand(ir.BoolConst(!x.Const.Bool))
		c.Literal = x.Literal
		return c, ir.Bool
	}
	var op ir.Op
	switch e.Op {
	case ast.Neg:
		op = ir.OpNeg
	case ast.Not:
		op = ir.OpNot
		t = ir.Bool
	}
	tmp := b.newTemp(t)
	b.emit(&ir.Instr{Op: op, Var: tmp, Args: []ir.Operand{x}, Pos: e.Pos()})
	return ir.VarOperand(tmp), t
}

var binOps = map[ast.BinaryOp]ir.Op{
	ast.Add: ir.OpAdd, ast.Sub: ir.OpSub, ast.Mul: ir.OpMul,
	ast.Div: ir.OpDiv, ast.Pow: ir.OpPow,
	ast.Eq: ir.OpEq, ast.Ne: ir.OpNe, ast.Lt: ir.OpLt,
	ast.Le: ir.OpLe, ast.Gt: ir.OpGt, ast.Ge: ir.OpGe,
	ast.And: ir.OpAnd, ast.Or: ir.OpOr,
}

func (b *builder) genBinary(e *ast.BinaryExpr) (ir.Operand, ir.Type) {
	return b.genBinaryAt(e, e.Pos())
}

// genBinaryAt lowers e, whose position is pos. A binary expression
// starts where its left operand does, so every node of a left spine
// shares one position: it is passed down rather than recomputed, since
// e.Pos() walks the whole spine and a k-term chain would cost O(k²).
func (b *builder) genBinaryAt(e *ast.BinaryExpr, pos tokenPos) (ir.Operand, ir.Type) {
	var x ir.Operand
	var xt ir.Type
	if l, ok := e.X.(*ast.BinaryExpr); ok {
		x, xt = b.genBinaryAt(l, pos)
	} else {
		x, xt = b.genExpr(e.X)
	}
	y, yt := b.genExpr(e.Y)
	op := binOps[e.Op]
	var t ir.Type
	switch {
	case e.Op.IsArithmetic():
		t = ir.Int
		if xt == ir.Real || yt == ir.Real {
			t = ir.Real
		}
	default:
		t = ir.Bool
	}
	tmp := b.newTemp(t)
	b.emit(&ir.Instr{Op: op, Var: tmp, Args: []ir.Operand{x, y}, Pos: pos})
	return ir.VarOperand(tmp), t
}

// genExprInto lowers an expression so that its result lands in dst,
// writing the root operation directly to dst when possible and inserting
// the int/real conversion when the types differ.
func (b *builder) genExprInto(dst *ir.Var, e ast.Expr, pos tokenPos) {
	op, t := b.genExpr(e)
	// Retarget the just-emitted root instruction when it defined a temp
	// of matching type (saves a copy and keeps the IR readable).
	if op.Var != nil && op.Var.Kind == ir.TempVar && t == dst.Type && b.cur != nil && len(b.cur.Instrs) > 0 {
		last := b.cur.Instrs[len(b.cur.Instrs)-1]
		if last.Var == op.Var && last.Op != ir.OpCall {
			last.Var = dst
			return
		}
	}
	switch {
	case t == ir.Int && dst.Type == ir.Real:
		b.emit(&ir.Instr{Op: ir.OpI2R, Var: dst, Args: []ir.Operand{op}, Pos: pos})
	case t == ir.Real && dst.Type == ir.Int:
		b.emit(&ir.Instr{Op: ir.OpR2I, Var: dst, Args: []ir.Operand{op}, Pos: pos})
	default:
		b.emit(&ir.Instr{Op: ir.OpCopy, Var: dst, Args: []ir.Operand{op}, Pos: pos})
	}
}

// UnitLines approximates the noncomment line count of a unit:
// header + END + one line per declaration + the statement count
// (recursively, counting block statement delimiters).
func UnitLines(u *ast.Unit) int {
	n := 2 + len(u.Decls)
	n += countStmtLines(u.Body)
	return n
}

func countStmtLines(list []ast.Stmt) int {
	n := 0
	for _, s := range list {
		n++
		switch s := s.(type) {
		case *ast.IfStmt:
			n += countStmtLines(s.Then)
			if len(s.Else) > 0 {
				n++ // ELSE line
				n += countStmtLines(s.Else)
			}
			n++ // ENDIF
		case *ast.DoStmt:
			n += countStmtLines(s.Body)
			if s.EndLabel == 0 {
				n++ // ENDDO
			}
		case *ast.DoWhileStmt:
			n += countStmtLines(s.Body)
			n++ // ENDDO
		}
	}
	return n
}
