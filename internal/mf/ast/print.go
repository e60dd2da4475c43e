package ast

import (
	"fmt"
	"strings"
)

// Fprint writes file back out as MiniFortran source. The output is
// parseable by the parser (round-trippable modulo formatting), which the
// test suite verifies.
func Fprint(sb *strings.Builder, file *File) {
	p := printer{sb: sb}
	for i, u := range file.Units {
		if i > 0 {
			sb.WriteByte('\n')
		}
		p.unit(u)
	}
}

// Format returns file rendered as MiniFortran source.
func Format(file *File) string {
	var sb strings.Builder
	Fprint(&sb, file)
	return sb.String()
}

// FormatUnit renders a single program unit as source text. The output
// is the unit exactly as Format would print it inside the whole file —
// the normalized form the incremental engine fingerprints, so that
// whitespace and comment differences never invalidate a summary.
func FormatUnit(u *Unit) string {
	var sb strings.Builder
	p := printer{sb: &sb}
	p.unit(u)
	return sb.String()
}

// FormatExpr renders a single expression as source text.
func FormatExpr(e Expr) string {
	var p printer
	var sb strings.Builder
	p.sb = &sb
	p.expr(e, 0)
	return sb.String()
}

type printer struct {
	sb     *strings.Builder
	indent int
}

func (p *printer) linef(format string, args ...any) {
	p.sb.WriteString(strings.Repeat("  ", p.indent))
	fmt.Fprintf(p.sb, format, args...)
	p.sb.WriteByte('\n')
}

func (p *printer) unit(u *Unit) {
	switch u.Kind {
	case ProgramUnit:
		p.linef("PROGRAM %s", u.Name)
	case SubroutineUnit:
		p.linef("SUBROUTINE %s(%s)", u.Name, strings.Join(u.Params, ", "))
	case FunctionUnit:
		p.linef("%s FUNCTION %s(%s)", u.ResultType, u.Name, strings.Join(u.Params, ", "))
	}
	p.indent++
	for _, d := range u.Decls {
		p.decl(d)
	}
	p.stmts(u.Body)
	p.indent--
	p.linef("END")
}

func (p *printer) decl(d Decl) {
	switch d := d.(type) {
	case *TypeDecl:
		p.linef("%s %s", d.Type, p.declarators(d.Items))
	case *DimensionDecl:
		p.linef("DIMENSION %s", p.declarators(d.Items))
	case *CommonDecl:
		p.linef("COMMON /%s/ %s", d.Block, p.declarators(d.Items))
	case *ParameterDecl:
		parts := make([]string, len(d.Names))
		for i, n := range d.Names {
			parts[i] = fmt.Sprintf("%s = %s", n, FormatExpr(d.Values[i]))
		}
		p.linef("PARAMETER (%s)", strings.Join(parts, ", "))
	case *ImplicitNoneDecl:
		p.linef("IMPLICIT NONE")
	case *DataDecl:
		parts := make([]string, len(d.Names))
		for i, n := range d.Names {
			parts[i] = fmt.Sprintf("%s /%s/", n, FormatExpr(d.Values[i]))
		}
		p.linef("DATA %s", strings.Join(parts, ", "))
	default:
		p.linef("! unknown decl %T", d)
	}
}

func (p *printer) declarators(items []*Declarator) string {
	parts := make([]string, len(items))
	for i, it := range items {
		if len(it.Dims) == 0 {
			parts[i] = it.Name
			continue
		}
		dims := make([]string, len(it.Dims))
		for j, d := range it.Dims {
			dims[j] = FormatExpr(d)
		}
		parts[i] = fmt.Sprintf("%s(%s)", it.Name, strings.Join(dims, ", "))
	}
	return strings.Join(parts, ", ")
}

func (p *printer) stmts(list []Stmt) {
	for _, s := range list {
		p.stmt(s)
	}
}

// labelPrefix renders a numeric statement label, if present.
func labelPrefix(s Stmt) string {
	if s.Label() != 0 {
		return fmt.Sprintf("%d ", s.Label())
	}
	return ""
}

func (p *printer) stmt(s Stmt) {
	lp := labelPrefix(s)
	switch s := s.(type) {
	case *AssignStmt:
		p.linef("%s%s = %s", lp, FormatExpr(s.LHS), FormatExpr(s.RHS))
	case *IfStmt:
		p.linef("%sIF (%s) THEN", lp, FormatExpr(s.Cond))
		p.indent++
		p.stmts(s.Then)
		p.indent--
		if len(s.Else) > 0 {
			p.linef("ELSE")
			p.indent++
			p.stmts(s.Else)
			p.indent--
		}
		p.linef("ENDIF")
	case *LogicalIfStmt:
		p.sb.WriteString(strings.Repeat("  ", p.indent))
		fmt.Fprintf(p.sb, "%sIF (%s) ", lp, FormatExpr(s.Cond))
		p.inlineStmt(s.Stmt)
		p.sb.WriteByte('\n')
	case *DoStmt:
		step := ""
		if s.Step != nil {
			step = ", " + FormatExpr(s.Step)
		}
		p.linef("%sDO %s = %s, %s%s", lp, s.Var, FormatExpr(s.Lo), FormatExpr(s.Hi), step)
		p.indent++
		p.stmts(s.Body)
		p.indent--
		p.linef("ENDDO")
	case *DoWhileStmt:
		p.linef("%sDO WHILE (%s)", lp, FormatExpr(s.Cond))
		p.indent++
		p.stmts(s.Body)
		p.indent--
		p.linef("ENDDO")
	case *GotoStmt:
		p.linef("%sGOTO %d", lp, s.Target)
	case *ContinueStmt:
		p.linef("%sCONTINUE", lp)
	case *CallStmt:
		p.linef("%sCALL %s(%s)", lp, s.Name, p.exprList(s.Args))
	case *ReturnStmt:
		p.linef("%sRETURN", lp)
	case *StopStmt:
		p.linef("%sSTOP", lp)
	case *ReadStmt:
		targets := make([]string, len(s.Targets))
		for i, t := range s.Targets {
			targets[i] = FormatExpr(t)
		}
		p.linef("%sREAD %s", lp, strings.Join(targets, ", "))
	case *WriteStmt:
		p.linef("%sWRITE(*,*) %s", lp, p.exprList(s.Values))
	default:
		p.linef("! unknown stmt %T", s)
	}
}

// inlineStmt prints the action of a logical IF without indentation or a
// trailing newline.
func (p *printer) inlineStmt(s Stmt) {
	switch s := s.(type) {
	case *AssignStmt:
		fmt.Fprintf(p.sb, "%s = %s", FormatExpr(s.LHS), FormatExpr(s.RHS))
	case *GotoStmt:
		fmt.Fprintf(p.sb, "GOTO %d", s.Target)
	case *CallStmt:
		fmt.Fprintf(p.sb, "CALL %s(%s)", s.Name, p.exprList(s.Args))
	case *ReturnStmt:
		p.sb.WriteString("RETURN")
	case *StopStmt:
		p.sb.WriteString("STOP")
	case *ContinueStmt:
		p.sb.WriteString("CONTINUE")
	default:
		fmt.Fprintf(p.sb, "! unknown inline stmt %T", s)
	}
}

func (p *printer) exprList(list []Expr) string {
	parts := make([]string, len(list))
	for i, e := range list {
		parts[i] = FormatExpr(e)
	}
	return strings.Join(parts, ", ")
}

// binding powers for parenthesization during printing.
func exprPrec(e Expr) int {
	switch e := e.(type) {
	case *BinaryExpr:
		switch {
		case e.Op == Or:
			return 1
		case e.Op == And:
			return 2
		case e.Op.IsRelational():
			return 3
		case e.Op == Add || e.Op == Sub:
			return 4
		case e.Op == Mul || e.Op == Div:
			return 5
		case e.Op == Pow:
			return 6
		}
	case *UnaryExpr:
		if e.Op == Not {
			return 3
		}
		return 4
	}
	return 10
}

func (p *printer) expr(e Expr, parentPrec int) {
	prec := exprPrec(e)
	if prec < parentPrec {
		p.sb.WriteByte('(')
		defer p.sb.WriteByte(')')
	}
	switch e := e.(type) {
	case *IntLit:
		fmt.Fprintf(p.sb, "%d", e.Value)
	case *RealLit:
		if e.Text != "" {
			p.sb.WriteString(e.Text)
		} else {
			fmt.Fprintf(p.sb, "%g", e.Value)
		}
	case *StrLit:
		// Embedded quotes escape by doubling, as in the source form.
		fmt.Fprintf(p.sb, "'%s'", strings.ReplaceAll(e.Value, "'", "''"))
	case *LogicalLit:
		if e.Value {
			p.sb.WriteString(".TRUE.")
		} else {
			p.sb.WriteString(".FALSE.")
		}
	case *VarRef:
		p.sb.WriteString(e.Name)
		if len(e.Indexes) > 0 {
			p.sb.WriteByte('(')
			p.sb.WriteString(p.exprList(e.Indexes))
			p.sb.WriteByte(')')
		}
	case *CallExpr:
		p.sb.WriteString(e.Name)
		p.sb.WriteByte('(')
		p.sb.WriteString(p.exprList(e.Args))
		p.sb.WriteByte(')')
	case *UnaryExpr:
		p.sb.WriteString(e.Op.String())
		if e.Op == Not {
			// .NOT. takes a relational operand, or another .NOT.:
			// .NOT. .NOT. A .EQ. B reparses as written.
			p.sb.WriteByte(' ')
			p.expr(e.X, prec)
			return
		}
		p.expr(e.X, prec+1)
	case *BinaryExpr:
		// Associativity decides which side needs the tighter context:
		// ** is right-associative (2**(3**2) reparses flat, (2**3)**2
		// needs parens), everything else is left-associative (a-b-c
		// prints flat, a-(b-c) keeps its parens).
		leftPrec, rightPrec := prec, prec+1
		if e.Op == Pow {
			leftPrec, rightPrec = prec+1, prec
		}
		p.expr(e.X, leftPrec)
		if e.Op.IsArithmetic() {
			p.sb.WriteString(e.Op.String())
		} else {
			fmt.Fprintf(p.sb, " %s ", e.Op)
		}
		// An exponent may carry its own sign: a**-b needs no parens.
		if u, ok := e.Y.(*UnaryExpr); ok && e.Op == Pow && u.Op == Neg {
			p.sb.WriteByte('-')
			p.expr(u.X, prec)
			return
		}
		p.expr(e.Y, rightPrec)
	default:
		fmt.Fprintf(p.sb, "?%T?", e)
	}
}
