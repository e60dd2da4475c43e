package ast

import (
	"reflect"
	"strconv"
)

// Format returns file rendered as MiniFortran source. The output is
// parseable by the parser (round-trippable modulo formatting), which the
// test suite verifies.
func Format(file *File) string {
	var p printer
	for i, u := range file.Units {
		if i > 0 {
			p.str("\n")
		}
		p.unit(u)
	}
	return string(p.buf)
}

// AppendUnit appends a single program unit, rendered as source text, to
// dst and returns the extended buffer. The text is the unit exactly as
// Format prints it inside the whole file: the normalized form the
// incremental engine fingerprints, so that whitespace and comment
// differences never invalidate a summary.
func AppendUnit(dst []byte, u *Unit) []byte {
	p := printer{buf: dst}
	p.unit(u)
	return p.buf
}

// FormatExpr renders a single expression as source text.
func FormatExpr(e Expr) string {
	var p printer
	p.expr(e, 0)
	return string(p.buf)
}

// printer writes every line, expression and number straight into one
// buffer; no part of the output is built as a string of its own.
type printer struct {
	buf    []byte
	indent int
}

func (p *printer) str(parts ...string) {
	for _, s := range parts {
		p.buf = append(p.buf, s...)
	}
}

// sep writes the ", " before the i-th item of a list.
func (p *printer) sep(i int) {
	if i > 0 {
		p.str(", ")
	}
}

// open starts a line at the current indentation.
func (p *printer) open() {
	for i := 0; i < p.indent; i++ {
		p.str("  ")
	}
}

// line writes one whole line holding s.
func (p *printer) line(s string) {
	p.open()
	p.str(s, "\n")
}

// begin starts a statement's line: the indentation, then the label and
// a space if the statement has one.
func (p *printer) begin(s Stmt) {
	p.open()
	if l := s.Label(); l != 0 {
		p.buf = strconv.AppendInt(p.buf, int64(l), 10)
		p.str(" ")
	}
}

// names writes a parenthesized name list.
func (p *printer) names(list []string) {
	p.str("(")
	for i, n := range list {
		p.sep(i)
		p.str(n)
	}
	p.str(")")
}

// exprList writes a comma-separated expression list.
func (p *printer) exprList(list []Expr) {
	for i, e := range list {
		p.sep(i)
		p.expr(e, 0)
	}
}

// typeName spells v's dynamic type as fmt's %T does, for the markers
// printed in place of node types the printer does not know.
func typeName(v any) string {
	if v == nil {
		return "<nil>"
	}
	return reflect.TypeOf(v).String()
}

func (p *printer) unit(u *Unit) {
	// A unit header sits in column one.
	switch u.Kind {
	case ProgramUnit:
		p.str("PROGRAM ", u.Name, "\n")
	case SubroutineUnit:
		p.str("SUBROUTINE ", u.Name)
		p.names(u.Params)
		p.str("\n")
	case FunctionUnit:
		p.str(u.ResultType.String(), " FUNCTION ", u.Name)
		p.names(u.Params)
		p.str("\n")
	}
	p.indent++
	for _, d := range u.Decls {
		p.decl(d)
	}
	p.stmts(u.Body)
	p.indent--
	p.line("END")
}

func (p *printer) decl(d Decl) {
	p.open()
	switch d := d.(type) {
	case *TypeDecl:
		p.str(d.Type.String(), " ")
		p.declarators(d.Items)
	case *DimensionDecl:
		p.str("DIMENSION ")
		p.declarators(d.Items)
	case *CommonDecl:
		p.str("COMMON /", d.Block, "/ ")
		p.declarators(d.Items)
	case *ParameterDecl:
		p.str("PARAMETER (")
		for i, n := range d.Names {
			p.sep(i)
			p.str(n, " = ")
			p.expr(d.Values[i], 0)
		}
		p.str(")")
	case *ImplicitNoneDecl:
		p.str("IMPLICIT NONE")
	case *DataDecl:
		p.str("DATA ")
		for i, n := range d.Names {
			p.sep(i)
			p.str(n, " /")
			p.expr(d.Values[i], 0)
			p.str("/")
		}
	default:
		p.str("! unknown decl ", typeName(d))
	}
	p.str("\n")
}

func (p *printer) declarators(items []*Declarator) {
	for i, it := range items {
		p.sep(i)
		p.str(it.Name)
		if len(it.Dims) > 0 {
			p.str("(")
			p.exprList(it.Dims)
			p.str(")")
		}
	}
}

func (p *printer) stmts(list []Stmt) {
	for _, s := range list {
		p.stmt(s)
	}
}

// block prints a statement list one level deeper.
func (p *printer) block(list []Stmt) {
	p.indent++
	p.stmts(list)
	p.indent--
}

func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *AssignStmt, *GotoStmt, *ContinueStmt, *CallStmt, *ReturnStmt, *StopStmt:
		p.begin(s)
		p.inlineStmt(s)
		p.str("\n")
	case *IfStmt:
		p.begin(s)
		p.str("IF (")
		p.expr(s.Cond, 0)
		p.str(") THEN\n")
		p.block(s.Then)
		if len(s.Else) > 0 {
			p.line("ELSE")
			p.block(s.Else)
		}
		p.line("ENDIF")
	case *LogicalIfStmt:
		p.begin(s)
		p.str("IF (")
		p.expr(s.Cond, 0)
		p.str(") ")
		p.inlineStmt(s.Stmt)
		p.str("\n")
	case *DoStmt:
		p.begin(s)
		p.str("DO ", s.Var, " = ")
		p.expr(s.Lo, 0)
		p.str(", ")
		p.expr(s.Hi, 0)
		if s.Step != nil {
			p.str(", ")
			p.expr(s.Step, 0)
		}
		p.str("\n")
		p.block(s.Body)
		p.line("ENDDO")
	case *DoWhileStmt:
		p.begin(s)
		p.str("DO WHILE (")
		p.expr(s.Cond, 0)
		p.str(")\n")
		p.block(s.Body)
		p.line("ENDDO")
	case *ReadStmt:
		p.begin(s)
		p.str("READ ")
		for i, t := range s.Targets {
			p.sep(i)
			p.expr(t, 0)
		}
		p.str("\n")
	case *WriteStmt:
		p.begin(s)
		p.str("WRITE(*,*) ")
		p.exprList(s.Values)
		p.str("\n")
	default:
		p.line("! unknown stmt " + typeName(s))
	}
}

// inlineStmt prints a one-line statement without indentation, label or
// trailing newline: the action of a logical IF, or the body of a
// statement line.
func (p *printer) inlineStmt(s Stmt) {
	switch s := s.(type) {
	case *AssignStmt:
		p.expr(s.LHS, 0)
		p.str(" = ")
		p.expr(s.RHS, 0)
	case *GotoStmt:
		p.str("GOTO ")
		p.buf = strconv.AppendInt(p.buf, int64(s.Target), 10)
	case *CallStmt:
		p.str("CALL ", s.Name, "(")
		p.exprList(s.Args)
		p.str(")")
	case *ReturnStmt:
		p.str("RETURN")
	case *StopStmt:
		p.str("STOP")
	case *ContinueStmt:
		p.str("CONTINUE")
	default:
		p.str("! unknown inline stmt ", typeName(s))
	}
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

// expr prints e in a context of binding power parentPrec, in
// parentheses when e binds more loosely.
func (p *printer) expr(e Expr, parentPrec int) {
	prec := exprPrec(e)
	if prec < parentPrec {
		p.str("(")
		p.operand(e, prec)
		p.str(")")
		return
	}
	p.operand(e, prec)
}

// operand prints e itself; prec is its own binding power.
func (p *printer) operand(e Expr, prec int) {
	switch e := e.(type) {
	case *IntLit:
		p.buf = strconv.AppendInt(p.buf, e.Value, 10)
	case *RealLit:
		if e.Text != "" {
			p.str(e.Text)
		} else {
			p.buf = strconv.AppendFloat(p.buf, e.Value, 'g', -1, 64)
		}
	case *StrLit:
		// Embedded quotes escape by doubling, as in the source form.
		p.str("'")
		for i := 0; i < len(e.Value); i++ {
			if e.Value[i] == '\'' {
				p.str("'")
			}
			p.buf = append(p.buf, e.Value[i])
		}
		p.str("'")
	case *LogicalLit:
		if e.Value {
			p.str(".TRUE.")
		} else {
			p.str(".FALSE.")
		}
	case *VarRef:
		p.str(e.Name)
		if len(e.Indexes) > 0 {
			p.str("(")
			p.exprList(e.Indexes)
			p.str(")")
		}
	case *CallExpr:
		p.str(e.Name, "(")
		p.exprList(e.Args)
		p.str(")")
	case *UnaryExpr:
		p.str(e.Op.String())
		if e.Op == Not {
			// .NOT. takes a relational operand, or another .NOT.:
			// .NOT. .NOT. A .EQ. B reparses as written.
			p.str(" ")
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
			p.str(e.Op.String())
		} else {
			p.str(" ", e.Op.String(), " ")
		}
		// An exponent may carry its own sign: a**-b needs no parens.
		if u, ok := e.Y.(*UnaryExpr); ok && e.Op == Pow && u.Op == Neg {
			p.str("-")
			p.expr(u.X, prec)
			return
		}
		p.expr(e.Y, rightPrec)
	default:
		p.str("?", typeName(e), "?")
	}
}
