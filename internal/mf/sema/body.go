package sema

import (
	"ipcp/internal/mf/ast"
	"ipcp/internal/mf/token"
)

// checkBody resolves and type-checks the executable statements of a unit.
func (c *checker) checkBody(info *UnitInfo) {
	c.checkStmts(info, info.Unit.Body)
	c.checkLabels(info)
}

func (c *checker) checkStmts(info *UnitInfo, list []ast.Stmt) {
	for _, s := range list {
		c.checkStmt(info, s)
	}
}

func (c *checker) checkStmt(info *UnitInfo, s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		c.checkAssign(info, s)
	case *ast.IfStmt:
		s.Cond = c.requireLogical(info, s.Cond, "IF condition")
		c.checkStmts(info, s.Then)
		c.checkStmts(info, s.Else)
	case *ast.LogicalIfStmt:
		s.Cond = c.requireLogical(info, s.Cond, "IF condition")
		c.checkStmt(info, s.Stmt)
	case *ast.DoStmt:
		ref := &ast.VarRef{Name: s.Var, NamePos: s.Pos()}
		sym := c.resolveVar(info, ref, true)
		if sym != nil {
			if sym.IsArray() {
				c.errorf(s.Pos(), "DO variable %s cannot be an array", s.Var)
			}
			if sym.Type != ast.Integer {
				c.errorf(s.Pos(), "DO variable %s must be INTEGER", s.Var)
			}
			if sym.Kind == ConstSym {
				c.errorf(s.Pos(), "DO variable %s is a PARAMETER constant", s.Var)
			}
		}
		s.Lo = c.requireInteger(info, s.Lo, "DO lower bound")
		s.Hi = c.requireInteger(info, s.Hi, "DO upper bound")
		if s.Step != nil {
			s.Step = c.requireInteger(info, s.Step, "DO step")
		}
		c.checkStmts(info, s.Body)
	case *ast.DoWhileStmt:
		s.Cond = c.requireLogical(info, s.Cond, "DO WHILE condition")
		c.checkStmts(info, s.Body)
	case *ast.CallStmt:
		c.checkCallStmt(info, s)
	case *ast.ReadStmt:
		for _, t := range s.Targets {
			c.checkLValue(info, t)
		}
	case *ast.WriteStmt:
		for i, e := range s.Values {
			s.Values[i], _ = c.checkExpr(info, e)
		}
	case *ast.GotoStmt, *ast.ContinueStmt, *ast.ReturnStmt, *ast.StopStmt:
		// Nothing to resolve; GOTO targets are checked in checkLabels.
	}
}

func (c *checker) checkAssign(info *UnitInfo, s *ast.AssignStmt) {
	ltype := c.checkLValue(info, s.LHS)
	var rtype ast.BaseType
	s.RHS, rtype = c.checkExpr(info, s.RHS)
	if ltype == ast.NoType || rtype == ast.NoType {
		return // error already reported
	}
	if (ltype == ast.Logical) != (rtype == ast.Logical) {
		c.errorf(s.Pos(), "type mismatch in assignment to %s: %s = %s", s.LHS.Name, ltype, rtype)
	}
}

// checkLValue resolves an assignment or READ target and returns its
// element type.
func (c *checker) checkLValue(info *UnitInfo, ref *ast.VarRef) ast.BaseType {
	sym := c.resolveVar(info, ref, true)
	if sym == nil {
		return ast.NoType
	}
	switch sym.Kind {
	case ConstSym:
		c.errorf(ref.Pos(), "cannot assign to PARAMETER constant %s", ref.Name)
		return ast.NoType
	case ProcedureSym:
		c.errorf(ref.Pos(), "cannot assign to procedure %s", ref.Name)
		return ast.NoType
	}
	if sym.IsArray() {
		if len(ref.Indexes) == 0 {
			c.errorf(ref.Pos(), "assignment to whole array %s is not supported", ref.Name)
			return ast.NoType
		}
		if len(ref.Indexes) != len(sym.Dims) {
			c.errorf(ref.Pos(), "%s has %d dimensions but %d subscripts", ref.Name, len(sym.Dims), len(ref.Indexes))
		}
		for i, ix := range ref.Indexes {
			ref.Indexes[i] = c.requireInteger(info, ix, "array subscript")
		}
	} else if len(ref.Indexes) != 0 {
		c.errorf(ref.Pos(), "%s is scalar but has subscripts", ref.Name)
		return ast.NoType
	}
	c.prog.RefSym[ref] = sym
	return sym.Type
}

func (c *checker) checkCallStmt(info *UnitInfo, s *ast.CallStmt) {
	callee, ok := c.prog.UnitByName[s.Name]
	if !ok {
		c.errorf(s.Pos(), "CALL of undefined subroutine %s", s.Name)
		return
	}
	if callee.Unit.Kind != ast.SubroutineUnit {
		c.errorf(s.Pos(), "CALL target %s is a %s, not a SUBROUTINE", s.Name, callee.Unit.Kind)
		return
	}
	c.checkArguments(info, s.Pos(), callee, s.Args)
	c.prog.CallTargets[s] = &CallTarget{Unit: callee}
}

// checkArguments type-checks an actual argument list against the
// callee's formals, rewriting each argument expression in place.
func (c *checker) checkArguments(info *UnitInfo, pos token.Pos, callee *UnitInfo, args []ast.Expr) {
	if len(args) != len(callee.Params) {
		c.errorf(pos, "%s expects %d arguments, got %d", callee.Name, len(callee.Params), len(args))
	}
	for i := range args {
		var at ast.BaseType
		args[i], at = c.checkExpr(info, args[i])
		if i >= len(callee.Params) {
			continue
		}
		formal := callee.Params[i]

		// An unsubscripted array name passes the whole array; the formal
		// must be an array too (and vice versa).
		actualIsArray := false
		if vr, ok := args[i].(*ast.VarRef); ok && len(vr.Indexes) == 0 {
			if sym := c.prog.RefSym[vr]; sym != nil && sym.IsArray() {
				actualIsArray = true
			}
		}
		if actualIsArray != formal.IsArray() {
			c.errorf(args[i].Pos(), "argument %d of %s: %s formal bound to %s actual",
				i+1, callee.Name, kindWord(formal.IsArray()), kindWord(actualIsArray))
			continue
		}
		if actualIsArray {
			continue // element type agreement checked below via at
		}
		if at == ast.NoType {
			continue
		}
		if (formal.Type == ast.Logical) != (at == ast.Logical) {
			c.errorf(args[i].Pos(), "argument %d of %s: cannot pass %s to %s formal",
				i+1, callee.Name, at, formal.Type)
		}
	}
}

// resolveVar looks up (or implicitly declares) the symbol for a variable
// reference. If lvalue is false and the reference has subscripts but the
// name is not an array, the caller is expected to reinterpret it as a
// function call, so no error is reported and nil is returned with
// notArray=true semantics.
func (c *checker) resolveVar(info *UnitInfo, ref *ast.VarRef, lvalue bool) *Symbol {
	if sym, ok := info.Symbols[ref.Name]; ok {
		return sym
	}
	// Unknown name: a scalar reference implicitly declares a local;
	// IMPLICIT NONE forbids that.
	if info.implicitNone {
		c.errorf(ref.Pos(), "IMPLICIT NONE: %s is not declared", ref.Name)
		return nil
	}
	sym := &Symbol{Name: ref.Name, Kind: LocalSym, Type: implicitType(ref.Name)}
	info.Symbols[ref.Name] = sym
	return sym
}

// requireInteger checks (and rewrites) an expression that must be
// INTEGER.
func (c *checker) requireInteger(info *UnitInfo, e ast.Expr, what string) ast.Expr {
	e2, t := c.checkExpr(info, e)
	if t != ast.NoType && t != ast.Integer {
		c.errorf(e.Pos(), "%s must be INTEGER, got %s", what, t)
	}
	return e2
}

// requireLogical checks (and rewrites) an expression that must be
// LOGICAL.
func (c *checker) requireLogical(info *UnitInfo, e ast.Expr, what string) ast.Expr {
	e2, t := c.checkExpr(info, e)
	if t != ast.NoType && t != ast.Logical {
		c.errorf(e.Pos(), "%s must be LOGICAL, got %s", what, t)
	}
	return e2
}

// checkExpr resolves and types an expression, returning the (possibly
// rewritten) expression. VarRefs with subscripts that name functions or
// intrinsics are rewritten to CallExprs here.
func (c *checker) checkExpr(info *UnitInfo, e ast.Expr) (ast.Expr, ast.BaseType) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e, ast.Integer
	case *ast.RealLit:
		return e, ast.Real
	case *ast.StrLit:
		// Strings appear only in WRITE lists; give them NoType.
		return e, ast.NoType
	case *ast.LogicalLit:
		return e, ast.Logical
	case *ast.VarRef:
		return c.checkVarRefExpr(info, e)
	case *ast.CallExpr:
		return c.checkCallExpr(info, e)
	case *ast.UnaryExpr:
		var t ast.BaseType
		e.X, t = c.checkExpr(info, e.X)
		switch e.Op {
		case ast.Neg:
			if t != ast.NoType && t != ast.Integer && t != ast.Real {
				c.errorf(e.Pos(), "unary - requires arithmetic operand, got %s", t)
				t = ast.NoType
			}
		case ast.Not:
			if t != ast.NoType && t != ast.Logical {
				c.errorf(e.Pos(), ".NOT. requires LOGICAL operand, got %s", t)
			}
			t = ast.Logical
		}
		return e, t
	case *ast.BinaryExpr:
		var xt, yt ast.BaseType
		e.X, xt = c.checkExpr(info, e.X)
		e.Y, yt = c.checkExpr(info, e.Y)
		t := c.binaryType(e, xt, yt)
		return e, t
	}
	return e, ast.NoType
}

func (c *checker) binaryType(e *ast.BinaryExpr, xt, yt ast.BaseType) ast.BaseType {
	if xt == ast.NoType || yt == ast.NoType {
		if e.Op.IsLogical() || e.Op.IsRelational() {
			return ast.Logical
		}
		return ast.NoType
	}
	arith := func(t ast.BaseType) bool { return t == ast.Integer || t == ast.Real }
	switch {
	case e.Op.IsArithmetic():
		if !arith(xt) || !arith(yt) {
			c.errorf(e.Pos(), "operator %s requires arithmetic operands, got %s and %s", e.Op, xt, yt)
			return ast.NoType
		}
		if xt == ast.Real || yt == ast.Real {
			return ast.Real
		}
		return ast.Integer
	case e.Op.IsRelational():
		if !arith(xt) || !arith(yt) {
			c.errorf(e.Pos(), "operator %s requires arithmetic operands, got %s and %s", e.Op, xt, yt)
		}
		return ast.Logical
	default: // logical
		if xt != ast.Logical || yt != ast.Logical {
			c.errorf(e.Pos(), "operator %s requires LOGICAL operands, got %s and %s", e.Op, xt, yt)
		}
		return ast.Logical
	}
}

// checkVarRefExpr types a variable reference in expression position,
// rewriting `name(args)` to a CallExpr when name is a function or
// intrinsic.
func (c *checker) checkVarRefExpr(info *UnitInfo, ref *ast.VarRef) (ast.Expr, ast.BaseType) {
	sym, declared := info.Symbols[ref.Name]

	// `name(args)` where name is not a declared array: a function call.
	if len(ref.Indexes) > 0 && (!declared || sym.Kind == ProcedureSym || (declared && !sym.IsArray() && isCallable(c, ref.Name))) {
		call := &ast.CallExpr{Name: ref.Name, Args: ref.Indexes, NamePos: ref.NamePos}
		return c.checkCallExpr(info, call)
	}

	if !declared {
		if len(ref.Indexes) > 0 {
			c.errorf(ref.Pos(), "%s is not an array, function, or intrinsic", ref.Name)
			return ref, ast.NoType
		}
		if info.implicitNone {
			c.errorf(ref.Pos(), "IMPLICIT NONE: %s is not declared", ref.Name)
			return ref, ast.NoType
		}
		sym = &Symbol{Name: ref.Name, Kind: LocalSym, Type: implicitType(ref.Name)}
		info.Symbols[ref.Name] = sym
	}

	switch sym.Kind {
	case ConstSym:
		if len(ref.Indexes) != 0 {
			c.errorf(ref.Pos(), "PARAMETER %s cannot be subscripted", ref.Name)
			return ref, ast.NoType
		}
		c.prog.RefSym[ref] = sym
		return ref, sym.Type
	case ProcedureSym:
		c.errorf(ref.Pos(), "procedure %s used as a variable", ref.Name)
		return ref, ast.NoType
	}

	if sym.IsArray() {
		if len(ref.Indexes) == 0 {
			// Whole-array reference: legal only as an actual argument;
			// checkArguments validates the context.
			c.prog.RefSym[ref] = sym
			return ref, sym.Type
		}
		if len(ref.Indexes) != len(sym.Dims) {
			c.errorf(ref.Pos(), "%s has %d dimensions but %d subscripts", ref.Name, len(sym.Dims), len(ref.Indexes))
		}
		for i, ix := range ref.Indexes {
			ref.Indexes[i] = c.requireInteger(info, ix, "array subscript")
		}
	} else if len(ref.Indexes) != 0 {
		c.errorf(ref.Pos(), "%s is scalar but has subscripts", ref.Name)
		return ref, ast.NoType
	}
	c.prog.RefSym[ref] = sym
	return ref, sym.Type
}

// isCallable reports whether name refers to a FUNCTION unit or intrinsic.
func isCallable(c *checker, name string) bool {
	if u, ok := c.prog.UnitByName[name]; ok && u.Unit.Kind == ast.FunctionUnit {
		return true
	}
	_, ok := Intrinsics[name]
	return ok
}

func (c *checker) checkCallExpr(info *UnitInfo, call *ast.CallExpr) (ast.Expr, ast.BaseType) {
	if in, ok := Intrinsics[call.Name]; ok {
		return c.checkIntrinsicCall(info, call, in)
	}
	callee, ok := c.prog.UnitByName[call.Name]
	if !ok {
		c.errorf(call.Pos(), "call of undefined function %s", call.Name)
		return call, ast.NoType
	}
	if callee.Unit.Kind != ast.FunctionUnit {
		c.errorf(call.Pos(), "%s is a %s; only FUNCTIONs can be called in expressions", call.Name, callee.Unit.Kind)
		return call, ast.NoType
	}
	c.checkArguments(info, call.Pos(), callee, call.Args)
	c.prog.CallTargets[call] = &CallTarget{Unit: callee}
	t := callee.Result.Type
	return call, t
}

func (c *checker) checkIntrinsicCall(info *UnitInfo, call *ast.CallExpr, in *Intrinsic) (ast.Expr, ast.BaseType) {
	if len(call.Args) < in.MinArgs || (in.MaxArgs >= 0 && len(call.Args) > in.MaxArgs) {
		c.errorf(call.Pos(), "intrinsic %s called with %d arguments", in.Name, len(call.Args))
	}
	result := ast.Integer
	anyReal := false
	for i := range call.Args {
		var at ast.BaseType
		call.Args[i], at = c.checkExpr(info, call.Args[i])
		if at == ast.Real {
			anyReal = true
		}
		if at == ast.Logical {
			c.errorf(call.Args[i].Pos(), "intrinsic %s requires arithmetic arguments", in.Name)
		}
		if in.IntOnly && at == ast.Real {
			c.errorf(call.Args[i].Pos(), "intrinsic %s requires INTEGER arguments", in.Name)
		}
	}
	if !in.IntOnly && anyReal {
		result = ast.Real
	}
	c.prog.CallTargets[call] = &CallTarget{Intrinsic: in}
	return call, result
}

// ---------------------------------------------------------------------------
// Label checking

// checkLabels verifies that every GOTO target exists in its unit and
// that no label is defined twice.
func (c *checker) checkLabels(info *UnitInfo) {
	defined := map[int]token.Pos{}
	var gotos []*ast.GotoStmt
	var walk func(list []ast.Stmt)
	walk = func(list []ast.Stmt) {
		for _, s := range list {
			if l := s.Label(); l != 0 {
				if prev, dup := defined[l]; dup {
					c.errorf(s.Pos(), "label %d already defined at %s", l, prev)
				} else {
					defined[l] = s.Pos()
				}
			}
			switch s := s.(type) {
			case *ast.IfStmt:
				walk(s.Then)
				walk(s.Else)
			case *ast.LogicalIfStmt:
				walk([]ast.Stmt{s.Stmt})
			case *ast.DoStmt:
				walk(s.Body)
			case *ast.DoWhileStmt:
				walk(s.Body)
			case *ast.GotoStmt:
				gotos = append(gotos, s)
			}
		}
	}
	walk(info.Unit.Body)
	for _, g := range gotos {
		if _, ok := defined[g.Target]; !ok {
			c.errorf(g.Pos(), "GOTO %d: label not defined in %s", g.Target, info.Name)
		}
	}
}
