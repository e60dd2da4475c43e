// Package parser implements a recursive-descent parser for MiniFortran.
//
// The grammar is line-oriented: every statement ends at a newline (or a
// `&` continuation). Declarations precede executable statements inside
// each program unit. The parser recovers from errors by skipping to the
// next statement boundary, so a single pass reports multiple diagnostics.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"ipcp/internal/mf/ast"
	"ipcp/internal/mf/lexer"
	"ipcp/internal/mf/token"
)

// Error is a syntax error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: syntax error: %s", e.Pos, e.Msg) }

// ErrorList is a non-empty collection of syntax errors.
type ErrorList []*Error

func (l ErrorList) Error() string {
	if len(l) == 1 {
		return l[0].Error()
	}
	msgs := make([]string, len(l))
	for i, e := range l {
		msgs[i] = e.Error()
	}
	return fmt.Sprintf("%d syntax errors:\n%s", len(l), strings.Join(msgs, "\n"))
}

// Parse parses a MiniFortran source file. On failure it returns the
// partial AST together with an ErrorList, lexical errors first; past
// token.MaxErrors the list ends in one token.TooManyErrors entry.
//
// The parser pulls tokens from the lexer through a one-token lookahead
// and never backtracks, so what it allocates follows the tree it
// builds, not the token count. The lexical and syntax errors share one
// error budget, and the lexical errors of the whole source come first:
// more than token.MaxErrors of them end the list with no syntax errors
// and an empty file, and otherwise the parse stops at the syntax error
// that fills what they leave of the budget. So the first syntax error
// asks the lexer for the errors of the rest of the source
// (Lexer.ErrorsToEOF), and a halted parse still reports them all.
func Parse(src string) (*ast.File, error) {
	p := &parser{lx: lexer.New(src)}
	p.tok = p.lx.Next()
	p.ahead = p.lx.Next()
	file := p.parseFile()
	lexErrs := p.lexErrors()
	var errs ErrorList
	for _, le := range lexErrs {
		errs = append(errs, &Error{Pos: le.Pos, Msg: le.Msg})
	}
	if len(lexErrs) > token.MaxErrors {
		// The lexer's list is full: it ends in its own
		// TooManyErrors entry, and no syntax error fits.
		return &ast.File{}, errs
	}
	errs = append(errs, p.errs...)
	if len(errs) > 0 {
		return file, errs
	}
	return file, nil
}

type parser struct {
	lx      *lexer.Lexer
	tok     token.Token // the current token
	ahead   token.Token // the token after it
	errs    ErrorList   // syntax errors; Parse puts the lexical ones first
	lexErrs []*lexer.Error
	lexDone bool // lexErrs holds every lexical error of the source
	depth   int  // current nesting level; see nest
	halted  bool // past MaxNesting or MaxErrors: the rest of the source is skipped
}

// lexErrors returns every lexical error of the source, scanning the
// input the parser has not reached yet on the first call.
func (p *parser) lexErrors() []*lexer.Error {
	if !p.lexDone {
		p.lexErrs, p.lexDone = p.lx.ErrorsToEOF(), true
	}
	return p.lexErrs
}

// bailout is panicked on unrecoverable per-statement errors; recovery
// resynchronizes at the next statement.
type bailout struct{}

// MaxNesting bounds how deeply a source may nest. One scale counts
// parenthesized expressions, subscript and argument lists, `**` and
// `.NOT.` chains, the operators of a binary chain (a+b+c nests like
// (a+b)+c) and IF/DO blocks, ELSE IF links included. Every level is a
// recursive call here and in each later walk over the tree, so without
// a bound a source of a few megabytes overflows the goroutine stack,
// a fatal error no recover catches. The printer never nests deeper
// than the source it prints, so a program within the bound also
// reparses after transformation.
const MaxNesting = 1000

// nest enters one level of nesting at the current token; the caller
// leaves it by decrementing p.depth. Past MaxNesting it reports one
// error and ends the parse: it skips to EOF and silences the errors
// every enclosing construct then hits, because resynchronizing at the
// next statement would report each remaining line of a deep nest again.
func (p *parser) nest() {
	p.depth++
	if p.depth > MaxNesting {
		p.fail("nesting deeper than %d levels", MaxNesting)
	}
}

func (p *parser) cur() token.Token  { return p.tok }
func (p *parser) kind() token.Kind  { return p.tok.Kind }
func (p *parser) peek() token.Token { return p.ahead }

// next consumes the current token and pulls the one after the
// lookahead from the lexer. At EOF it stays there.
func (p *parser) next() token.Token {
	t := p.tok
	if t.Kind != token.EOF {
		p.tok = p.ahead
		p.ahead = p.lx.Next()
	}
	return t
}

func (p *parser) at(k token.Kind) bool { return p.kind() == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

// errorf records a syntax error. The one past token.MaxErrors, counting
// the lexical errors of the whole source before it, is recorded as
// token.TooManyErrors and halts the parse.
func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	switch {
	case p.halted:
	case len(p.lexErrors())+len(p.errs) < token.MaxErrors:
		p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	default:
		p.errs = append(p.errs, &Error{Pos: pos, Msg: token.TooManyErrors})
		p.halt()
	}
}

// fail records an error and aborts the current statement; past
// MaxNesting it aborts the whole parse (see nest).
func (p *parser) fail(format string, args ...any) {
	p.errorf(p.cur().Pos, format, args...)
	if p.depth > MaxNesting {
		p.halt()
	}
	panic(bailout{})
}

// halt ends the parse: it skips to EOF, and errorf drops every later
// error, such as those the enclosing constructs then hit. The lexer is
// left where it is; lexErrors has already scanned the rest.
func (p *parser) halt() {
	p.halted = true
	p.tok = token.Token{Kind: token.EOF, Pos: p.tok.Pos}
	p.ahead = p.tok
}

func (p *parser) expect(k token.Kind) token.Token {
	if !p.at(k) {
		p.fail("expected %s, found %s", k, p.cur())
	}
	return p.next()
}

// endOfStatement consumes the statement terminator (NEWLINE or EOF).
func (p *parser) endOfStatement() {
	if p.at(token.EOF) {
		return
	}
	p.expect(token.NEWLINE)
}

// syncStatement skips tokens until the start of the next statement.
func (p *parser) syncStatement() {
	for !p.at(token.EOF) && !p.at(token.NEWLINE) {
		p.next()
	}
	p.accept(token.NEWLINE)
}

// ---------------------------------------------------------------------------
// File and unit structure

func (p *parser) parseFile() *ast.File {
	file := &ast.File{}
	p.accept(token.NEWLINE)
	for !p.at(token.EOF) {
		u := p.parseUnit()
		if u != nil {
			file.Units = append(file.Units, u)
		}
		p.accept(token.NEWLINE)
	}
	return file
}

// parseUnit parses one program unit; it returns nil after an
// unrecoverable header error.
func (p *parser) parseUnit() (unit *ast.Unit) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
			p.depth = 0
			// Skip forward to the end of the broken unit.
			for !p.at(token.EOF) {
				if p.at(token.END) && (p.peek().Kind == token.NEWLINE || p.peek().Kind == token.EOF) {
					p.next()
					p.accept(token.NEWLINE)
					break
				}
				p.next()
			}
			unit = nil
		}
	}()

	pos := p.cur().Pos
	u := &ast.Unit{UnitPos: pos}
	switch p.kind() {
	case token.PROGRAM:
		p.next()
		u.Kind = ast.ProgramUnit
		u.Name = p.expect(token.IDENT).Text
		p.endOfStatement()
	case token.SUBROUTINE:
		p.next()
		u.Kind = ast.SubroutineUnit
		u.Name = p.expect(token.IDENT).Text
		u.Params = p.parseParamList()
		p.endOfStatement()
	case token.INTEGER, token.REAL, token.LOGICAL:
		bt := baseTypeOf(p.kind())
		if p.peek().Kind != token.FUNCTION {
			p.fail("expected program unit header, found %s", p.cur())
		}
		p.next() // type
		p.next() // FUNCTION
		u.Kind = ast.FunctionUnit
		u.ResultType = bt
		u.Name = p.expect(token.IDENT).Text
		u.Params = p.parseParamList()
		p.endOfStatement()
	default:
		p.fail("expected PROGRAM, SUBROUTINE, or FUNCTION, found %s", p.cur())
	}

	u.Decls = p.parseDecls()
	u.Body = p.parseStmtsUntil(unitEnd)
	// Consume the END line.
	p.expect(token.END)
	p.accept(token.IDENT) // optional `END SUBNAME` style is tolerated
	p.endOfStatement()
	return u
}

func baseTypeOf(k token.Kind) ast.BaseType {
	switch k {
	case token.INTEGER:
		return ast.Integer
	case token.REAL:
		return ast.Real
	case token.LOGICAL:
		return ast.Logical
	}
	return ast.NoType
}

func (p *parser) parseParamList() []string {
	var params []string
	if !p.accept(token.LPAREN) {
		return nil
	}
	if p.accept(token.RPAREN) {
		return nil
	}
	for {
		params = append(params, p.expect(token.IDENT).Text)
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	return params
}

// ---------------------------------------------------------------------------
// Declarations

func (p *parser) parseDecls() []ast.Decl {
	var decls []ast.Decl
	for {
		var d ast.Decl
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(bailout); !ok {
						panic(r)
					}
					p.depth = 0
					p.syncStatement()
					d = nil
				}
			}()
			d = p.parseDecl()
		}()
		if d == nil {
			if len(p.errs) == 0 || !p.isDeclStart() {
				break
			}
			continue
		}
		decls = append(decls, d)
	}
	return decls
}

func (p *parser) isDeclStart() bool {
	switch p.kind() {
	case token.DIMENSION, token.COMMON, token.PARAMETER, token.IMPLICIT, token.DATA:
		return true
	case token.INTEGER, token.REAL, token.LOGICAL:
		return true
	}
	return false
}

// parseDecl parses one declaration statement, or returns nil when the
// next statement is executable.
func (p *parser) parseDecl() ast.Decl {
	pos := p.cur().Pos
	switch p.kind() {
	case token.INTEGER, token.REAL, token.LOGICAL:
		bt := baseTypeOf(p.next().Kind)
		d := &ast.TypeDecl{Type: bt, Items: p.parseDeclarators(), TypePos: pos}
		p.endOfStatement()
		return d
	case token.DIMENSION:
		p.next()
		d := &ast.DimensionDecl{Items: p.parseDeclarators(), DimPos: pos}
		p.endOfStatement()
		return d
	case token.COMMON:
		p.next()
		p.expect(token.SLASH)
		name := p.expect(token.IDENT).Text
		p.expect(token.SLASH)
		d := &ast.CommonDecl{Block: name, Items: p.parseDeclarators(), CommonPos: pos}
		p.endOfStatement()
		return d
	case token.PARAMETER:
		p.next()
		p.expect(token.LPAREN)
		d := &ast.ParameterDecl{ParamPos: pos}
		for {
			d.Names = append(d.Names, p.expect(token.IDENT).Text)
			p.expect(token.ASSIGN)
			d.Values = append(d.Values, p.parseExpr())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RPAREN)
		p.endOfStatement()
		return d
	case token.IMPLICIT:
		p.next()
		p.expect(token.NONE)
		p.endOfStatement()
		return &ast.ImplicitNoneDecl{ImplicitPos: pos}
	case token.DATA:
		p.next()
		d := &ast.DataDecl{DataPos: pos}
		for {
			d.Names = append(d.Names, p.expect(token.IDENT).Text)
			p.expect(token.SLASH)
			d.Values = append(d.Values, p.parseSignedLiteral())
			p.expect(token.SLASH)
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.endOfStatement()
		return d
	}
	return nil
}

func (p *parser) parseDeclarators() []*ast.Declarator {
	var items []*ast.Declarator
	for {
		nameTok := p.expect(token.IDENT)
		d := &ast.Declarator{Name: nameTok.Text, NamePos: nameTok.Pos}
		if p.accept(token.LPAREN) {
			for {
				d.Dims = append(d.Dims, p.parseExpr())
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.RPAREN)
		}
		items = append(items, d)
		if !p.accept(token.COMMA) {
			return items
		}
	}
}

func (p *parser) parseSignedLiteral() ast.Expr {
	pos := p.cur().Pos
	neg := false
	if p.accept(token.MINUS) {
		neg = true
	} else {
		p.accept(token.PLUS)
	}
	var e ast.Expr
	switch p.kind() {
	case token.INTLIT:
		v, _ := strconv.ParseInt(p.next().Text, 10, 64)
		e = &ast.IntLit{Value: v, LitPos: pos}
	case token.REALLIT:
		t := p.next()
		v, _ := strconv.ParseFloat(t.Text, 64)
		e = &ast.RealLit{Value: v, Text: t.Text, LitPos: pos}
	default:
		p.fail("expected literal in DATA value, found %s", p.cur())
	}
	if neg {
		e = &ast.UnaryExpr{Op: ast.Neg, X: e, OpPos: pos}
	}
	return e
}

// ---------------------------------------------------------------------------
// Statements

// terminator describes what token sequence ends a statement list.
type terminator int

const (
	unitEnd    terminator = iota // END (of unit)
	ifEnd                        // ELSE / ELSEIF / ENDIF / END IF
	doEnd                        // ENDDO / END DO
	labeledEnd                   // statement carrying a specific label
)

// atTerminator reports whether the current token starts the given block
// terminator. For END IF / END DO the two-token spelling is recognized.
func (p *parser) atTerminator(t terminator) bool {
	switch t {
	case unitEnd:
		return p.at(token.END) && p.peek().Kind != token.IF && p.peek().Kind != token.DO
	case ifEnd:
		if p.at(token.ELSE) || p.at(token.ELSEIF) || p.at(token.ENDIF) {
			return true
		}
		return p.at(token.END) && p.peek().Kind == token.IF
	case doEnd:
		if p.at(token.ENDDO) {
			return true
		}
		return p.at(token.END) && p.peek().Kind == token.DO
	}
	return false
}

// parseStmtsUntil parses statements until the terminator is at the front
// of the input (which is left unconsumed).
func (p *parser) parseStmtsUntil(t terminator) []ast.Stmt {
	var stmts []ast.Stmt
	for !p.at(token.EOF) && !p.atTerminator(t) && !p.atTerminator(unitEnd) {
		s := p.parseStmtRecover()
		if s != nil {
			stmts = append(stmts, s)
		}
	}
	return stmts
}

func (p *parser) parseStmtRecover() (s ast.Stmt) {
	depth := p.depth
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
			p.depth = depth
			p.syncStatement()
			s = nil
		}
	}()
	return p.parseStmt()
}

func (p *parser) parseStmt() ast.Stmt {
	label := 0
	if p.at(token.INTLIT) {
		v, err := strconv.Atoi(p.cur().Text)
		if err != nil || v <= 0 {
			p.fail("invalid statement label %q", p.cur().Text)
		}
		label = v
		p.next()
	}
	s := p.parseUnlabeledStmt()
	if label != 0 {
		s.SetLabel(label)
	}
	return s
}

func (p *parser) parseUnlabeledStmt() ast.Stmt {
	pos := p.cur().Pos
	switch p.kind() {
	case token.IF:
		return p.parseIf(pos)
	case token.DO:
		return p.parseDo(pos)
	case token.GOTO:
		p.next()
		t, err := strconv.Atoi(p.expect(token.INTLIT).Text)
		if err != nil {
			p.fail("invalid GOTO target")
		}
		p.endOfStatement()
		return &ast.GotoStmt{Target: t, GotoPos: pos}
	case token.CONTINUE:
		p.next()
		p.endOfStatement()
		return &ast.ContinueStmt{ContinuePos: pos}
	case token.CALL:
		s := p.parseCall(pos)
		p.endOfStatement()
		return s
	case token.RETURN:
		p.next()
		p.endOfStatement()
		return &ast.ReturnStmt{ReturnPos: pos}
	case token.STOP:
		p.next()
		p.accept(token.INTLIT) // optional stop code, ignored
		p.endOfStatement()
		return &ast.StopStmt{StopPos: pos}
	case token.READ:
		return p.parseRead(pos)
	case token.WRITE, token.PRINT:
		return p.parseWrite(pos)
	case token.IDENT:
		s := p.parseAssign()
		p.endOfStatement()
		return s
	}
	p.fail("expected statement, found %s", p.cur())
	return nil
}

func (p *parser) parseAssign() *ast.AssignStmt {
	nameTok := p.expect(token.IDENT)
	lhs := &ast.VarRef{Name: nameTok.Text, NamePos: nameTok.Pos}
	if p.accept(token.LPAREN) {
		for {
			lhs.Indexes = append(lhs.Indexes, p.parseExpr())
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RPAREN)
	}
	p.expect(token.ASSIGN)
	rhs := p.parseExpr()
	return &ast.AssignStmt{LHS: lhs, RHS: rhs}
}

func (p *parser) parseCall(pos token.Pos) *ast.CallStmt {
	p.expect(token.CALL)
	name := p.expect(token.IDENT).Text
	s := &ast.CallStmt{Name: name, CallPos: pos}
	if p.accept(token.LPAREN) {
		if !p.accept(token.RPAREN) {
			for {
				s.Args = append(s.Args, p.parseExpr())
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.RPAREN)
		}
	}
	return s
}

// parseIf parses both block IF (… THEN) and logical IF forms.
func (p *parser) parseIf(pos token.Pos) ast.Stmt {
	p.nest()
	defer func() { p.depth-- }()
	p.expect(token.IF)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)

	if !p.at(token.THEN) {
		// Logical IF: one action statement on the same line.
		action := p.parseLogicalIfAction()
		p.endOfStatement()
		return &ast.LogicalIfStmt{Cond: cond, Stmt: action, IfPos: pos}
	}
	p.next() // THEN
	p.endOfStatement()

	s := &ast.IfStmt{Cond: cond, IfPos: pos}
	s.Then = p.parseStmtsUntil(ifEnd)
	switch {
	case p.at(token.ELSEIF):
		elsePos := p.cur().Pos
		p.next()
		nested := p.parseElseIfChain(elsePos)
		s.Else = []ast.Stmt{nested}
	case p.at(token.ELSE) && p.peek().Kind == token.IF:
		elsePos := p.cur().Pos
		p.next() // ELSE
		nested := p.parseElseIfChain(elsePos)
		s.Else = []ast.Stmt{nested}
	case p.at(token.ELSE):
		p.next()
		p.endOfStatement()
		s.Else = p.parseStmtsUntil(ifEnd)
		p.expectEndIf()
	default:
		p.expectEndIf()
	}
	return s
}

// parseElseIfChain parses `… (cond) THEN body [ELSE…] ` after an ELSEIF
// or ELSE IF has been recognized (with ELSEIF consumed, or ELSE consumed
// and IF pending).
func (p *parser) parseElseIfChain(pos token.Pos) *ast.IfStmt {
	p.nest()
	defer func() { p.depth-- }()
	p.accept(token.IF) // present in the `ELSE IF` spelling
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	p.expect(token.THEN)
	p.endOfStatement()

	s := &ast.IfStmt{Cond: cond, IfPos: pos}
	s.Then = p.parseStmtsUntil(ifEnd)
	switch {
	case p.at(token.ELSEIF):
		elsePos := p.cur().Pos
		p.next()
		s.Else = []ast.Stmt{p.parseElseIfChain(elsePos)}
	case p.at(token.ELSE) && p.peek().Kind == token.IF:
		elsePos := p.cur().Pos
		p.next()
		s.Else = []ast.Stmt{p.parseElseIfChain(elsePos)}
	case p.at(token.ELSE):
		p.next()
		p.endOfStatement()
		s.Else = p.parseStmtsUntil(ifEnd)
		p.expectEndIf()
	default:
		p.expectEndIf()
	}
	return s
}

func (p *parser) expectEndIf() {
	if p.accept(token.ENDIF) {
		p.endOfStatement()
		return
	}
	p.expect(token.END)
	p.expect(token.IF)
	p.endOfStatement()
}

func (p *parser) parseLogicalIfAction() ast.Stmt {
	pos := p.cur().Pos
	switch p.kind() {
	case token.GOTO:
		p.next()
		t, err := strconv.Atoi(p.expect(token.INTLIT).Text)
		if err != nil {
			p.fail("invalid GOTO target")
		}
		return &ast.GotoStmt{Target: t, GotoPos: pos}
	case token.CALL:
		return p.parseCall(pos)
	case token.RETURN:
		p.next()
		return &ast.ReturnStmt{ReturnPos: pos}
	case token.STOP:
		p.next()
		p.accept(token.INTLIT)
		return &ast.StopStmt{StopPos: pos}
	case token.CONTINUE:
		p.next()
		return &ast.ContinueStmt{ContinuePos: pos}
	case token.IDENT:
		return p.parseAssign()
	}
	p.fail("expected action statement after logical IF, found %s", p.cur())
	return nil
}

func (p *parser) parseDo(pos token.Pos) ast.Stmt {
	p.nest()
	defer func() { p.depth-- }()
	p.expect(token.DO)

	if p.at(token.WHILE) {
		p.next()
		p.expect(token.LPAREN)
		cond := p.parseExpr()
		p.expect(token.RPAREN)
		p.endOfStatement()
		s := &ast.DoWhileStmt{Cond: cond, DoPos: pos}
		s.Body = p.parseStmtsUntil(doEnd)
		p.expectEndDo()
		return s
	}

	endLabel := 0
	if p.at(token.INTLIT) {
		v, err := strconv.Atoi(p.next().Text)
		if err != nil || v <= 0 {
			p.fail("invalid DO label")
		}
		endLabel = v
	}
	v := p.expect(token.IDENT).Text
	p.expect(token.ASSIGN)
	lo := p.parseExpr()
	p.expect(token.COMMA)
	hi := p.parseExpr()
	var step ast.Expr
	if p.accept(token.COMMA) {
		step = p.parseExpr()
	}
	p.endOfStatement()

	s := &ast.DoStmt{Var: v, Lo: lo, Hi: hi, Step: step, EndLabel: endLabel, DoPos: pos}
	if endLabel == 0 {
		s.Body = p.parseStmtsUntil(doEnd)
		p.expectEndDo()
		return s
	}
	// Labeled DO: the body extends through the statement carrying the
	// end label (classically `<label> CONTINUE`), which stays in the body.
	for {
		if p.at(token.EOF) || p.atTerminator(unitEnd) {
			p.fail("labeled DO %d not terminated before unit END", endLabel)
		}
		st := p.parseStmtRecover()
		if st == nil {
			continue
		}
		s.Body = append(s.Body, st)
		if st.Label() == endLabel {
			return s
		}
	}
}

func (p *parser) expectEndDo() {
	if p.accept(token.ENDDO) {
		p.endOfStatement()
		return
	}
	p.expect(token.END)
	p.expect(token.DO)
	p.endOfStatement()
}

// parseRead parses `READ v`, `READ *, v`, and `READ(*,*) v1, v2`.
func (p *parser) parseRead(pos token.Pos) ast.Stmt {
	p.expect(token.READ)
	p.parseIOControl()
	s := &ast.ReadStmt{ReadPos: pos}
	for {
		nameTok := p.expect(token.IDENT)
		vr := &ast.VarRef{Name: nameTok.Text, NamePos: nameTok.Pos}
		if p.accept(token.LPAREN) {
			for {
				vr.Indexes = append(vr.Indexes, p.parseExpr())
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.RPAREN)
		}
		s.Targets = append(s.Targets, vr)
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.endOfStatement()
	return s
}

// parseWrite parses `WRITE(*,*) e, ...` and `PRINT *, e, ...`.
func (p *parser) parseWrite(pos token.Pos) ast.Stmt {
	p.next() // WRITE or PRINT
	p.parseIOControl()
	s := &ast.WriteStmt{WritePos: pos}
	if p.at(token.NEWLINE) || p.at(token.EOF) {
		p.endOfStatement()
		return s
	}
	for {
		s.Values = append(s.Values, p.parseExpr())
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.endOfStatement()
	return s
}

// parseIOControl consumes the optional `(*,*)` or `*,` unit/format
// control of READ/WRITE/PRINT.
func (p *parser) parseIOControl() {
	if p.accept(token.LPAREN) {
		p.expect(token.STAR)
		p.expect(token.COMMA)
		p.expect(token.STAR)
		p.expect(token.RPAREN)
		return
	}
	if p.accept(token.STAR) {
		p.expect(token.COMMA)
	}
}

// ---------------------------------------------------------------------------
// Expressions
//
// Precedence (low → high): .OR. < .AND. < .NOT. < relational < +,-
// (binary and leading unary) < *,/ < ** (right-assoc).

func (p *parser) parseExpr() ast.Expr { return p.parseOr() }

// The binary-chain loops below nest one level per operator, as deep as
// the left-leaning tree they build.

func (p *parser) parseOr() ast.Expr {
	x := p.parseAnd()
	depth := p.depth
	for p.at(token.OR) {
		p.nest()
		p.next()
		x = &ast.BinaryExpr{Op: ast.Or, X: x, Y: p.parseAnd()}
	}
	p.depth = depth
	return x
}

func (p *parser) parseAnd() ast.Expr {
	x := p.parseNot()
	depth := p.depth
	for p.at(token.AND) {
		p.nest()
		p.next()
		x = &ast.BinaryExpr{Op: ast.And, X: x, Y: p.parseNot()}
	}
	p.depth = depth
	return x
}

func (p *parser) parseNot() ast.Expr {
	if p.at(token.NOT) {
		p.nest()
		pos := p.next().Pos
		x := p.parseNot()
		p.depth--
		return &ast.UnaryExpr{Op: ast.Not, X: x, OpPos: pos}
	}
	return p.parseRelational()
}

var relOps = map[token.Kind]ast.BinaryOp{
	token.EQ: ast.Eq, token.NE: ast.Ne, token.LT: ast.Lt,
	token.LE: ast.Le, token.GT: ast.Gt, token.GE: ast.Ge,
}

func (p *parser) parseRelational() ast.Expr {
	x := p.parseAdditive()
	if op, ok := relOps[p.kind()]; ok {
		p.next()
		return &ast.BinaryExpr{Op: op, X: x, Y: p.parseAdditive()}
	}
	return x
}

func (p *parser) parseAdditive() ast.Expr {
	var x ast.Expr
	// Leading sign binds the whole first term: -a*b parses as -(a*b)
	// per Fortran rules; the printer re-parenthesizes accordingly.
	if p.at(token.MINUS) {
		pos := p.next().Pos
		x = &ast.UnaryExpr{Op: ast.Neg, X: p.parseMultiplicative(), OpPos: pos}
	} else {
		p.accept(token.PLUS)
		x = p.parseMultiplicative()
	}
	depth := p.depth
	for {
		switch p.kind() {
		case token.PLUS:
			p.nest()
			p.next()
			x = &ast.BinaryExpr{Op: ast.Add, X: x, Y: p.parseMultiplicative()}
		case token.MINUS:
			p.nest()
			p.next()
			x = &ast.BinaryExpr{Op: ast.Sub, X: x, Y: p.parseMultiplicative()}
		default:
			p.depth = depth
			return x
		}
	}
}

func (p *parser) parseMultiplicative() ast.Expr {
	x := p.parsePower()
	depth := p.depth
	for {
		switch p.kind() {
		case token.STAR:
			p.nest()
			p.next()
			x = &ast.BinaryExpr{Op: ast.Mul, X: x, Y: p.parsePower()}
		case token.SLASH:
			p.nest()
			p.next()
			x = &ast.BinaryExpr{Op: ast.Div, X: x, Y: p.parsePower()}
		default:
			p.depth = depth
			return x
		}
	}
}

func (p *parser) parsePower() ast.Expr {
	x := p.parsePrimary()
	if p.at(token.POW) {
		p.nest()
		p.next()
		// Right-associative: a**b**c = a**(b**c). A negative exponent
		// is allowed: a**-2.
		var y ast.Expr
		if p.at(token.MINUS) {
			pos := p.next().Pos
			y = &ast.UnaryExpr{Op: ast.Neg, X: p.parsePower(), OpPos: pos}
		} else {
			y = p.parsePower()
		}
		p.depth--
		return &ast.BinaryExpr{Op: ast.Pow, X: x, Y: y}
	}
	return x
}

func (p *parser) parsePrimary() ast.Expr {
	pos := p.cur().Pos
	switch p.kind() {
	case token.INTLIT:
		t := p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			p.fail("integer literal %q out of range", t.Text)
		}
		return &ast.IntLit{Value: v, LitPos: pos}
	case token.REALLIT:
		t := p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			p.fail("malformed real literal %q", t.Text)
		}
		return &ast.RealLit{Value: v, Text: t.Text, LitPos: pos}
	case token.STRLIT:
		t := p.next()
		return &ast.StrLit{Value: t.Text, LitPos: pos}
	case token.TRUE:
		p.next()
		return &ast.LogicalLit{Value: true, LitPos: pos}
	case token.FALSE:
		p.next()
		return &ast.LogicalLit{Value: false, LitPos: pos}
	case token.LPAREN:
		p.nest()
		p.next()
		e := p.parseExpr()
		p.expect(token.RPAREN)
		p.depth--
		return e
	case token.IDENT:
		t := p.next()
		ref := &ast.VarRef{Name: t.Text, NamePos: pos}
		if p.at(token.LPAREN) {
			// Array reference or function call; semantic analysis
			// disambiguates.
			p.nest()
			p.next()
			if !p.accept(token.RPAREN) {
				for {
					ref.Indexes = append(ref.Indexes, p.parseExpr())
					if !p.accept(token.COMMA) {
						break
					}
				}
				p.expect(token.RPAREN)
			}
			p.depth--
		}
		return ref
	}
	p.fail("expected expression, found %s", p.cur())
	return nil
}
