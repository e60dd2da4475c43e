package lexer

import (
	"strings"
	"testing"

	"ipcp/internal/mf/token"
)

// scanAll pulls every token from lx, the final EOF included.
func scanAll(lx *Lexer) []token.Token {
	var toks []token.Token
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

// kindsOf scans src and returns the token kinds, excluding the final EOF.
func kindsOf(t *testing.T, src string) []token.Kind {
	t.Helper()
	lx := New(src)
	toks := scanAll(lx)
	if errs := lx.Errors(); len(errs) > 0 {
		t.Fatalf("unexpected lexical errors: %v", errs)
	}
	kinds := make([]token.Kind, 0, len(toks)-1)
	for _, tok := range toks[:len(toks)-1] {
		kinds = append(kinds, tok.Kind)
	}
	return kinds
}

func expectKinds(t *testing.T, src string, want ...token.Kind) {
	t.Helper()
	got := kindsOf(t, src)
	if len(got) != len(want) {
		t.Fatalf("src %q: got %v, want %v", src, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("src %q: token %d: got %s, want %s (full: %v)", src, i, got[i], want[i], got)
		}
	}
}

func TestKeywordsAndIdentifiers(t *testing.T) {
	expectKinds(t, "program main",
		token.PROGRAM, token.IDENT)
	expectKinds(t, "SUBROUTINE FOO(A, B)",
		token.SUBROUTINE, token.IDENT, token.LPAREN, token.IDENT, token.COMMA, token.IDENT, token.RPAREN)
	expectKinds(t, "integer function f(x)",
		token.INTEGER, token.FUNCTION, token.IDENT, token.LPAREN, token.IDENT, token.RPAREN)
}

func TestCaseInsensitivity(t *testing.T) {
	lx := New("Program MyProg")
	toks := scanAll(lx)
	if toks[0].Kind != token.PROGRAM {
		t.Fatalf("got %v, want PROGRAM", toks[0])
	}
	if toks[1].Text != "MYPROG" {
		t.Fatalf("identifier not upper-cased: %q", toks[1].Text)
	}
}

func TestOperators(t *testing.T) {
	expectKinds(t, "a = b*c + d/e - f**2",
		token.IDENT, token.ASSIGN, token.IDENT, token.STAR, token.IDENT,
		token.PLUS, token.IDENT, token.SLASH, token.IDENT,
		token.MINUS, token.IDENT, token.POW, token.INTLIT)
}

func TestDotOperators(t *testing.T) {
	expectKinds(t, "a .eq. b .and. c .lt. d",
		token.IDENT, token.EQ, token.IDENT, token.AND, token.IDENT, token.LT, token.IDENT)
	expectKinds(t, ".NOT. .TRUE. .OR. .FALSE.",
		token.NOT, token.TRUE, token.OR, token.FALSE)
	expectKinds(t, "x .ne. y .le. z .gt. w .ge. v",
		token.IDENT, token.NE, token.IDENT, token.LE, token.IDENT,
		token.GT, token.IDENT, token.GE, token.IDENT)
}

func TestNumbers(t *testing.T) {
	expectKinds(t, "42", token.INTLIT)
	expectKinds(t, "3.5", token.REALLIT)
	expectKinds(t, ".5", token.REALLIT)
	expectKinds(t, "2.", token.REALLIT)
	expectKinds(t, "1.5E-3", token.REALLIT)
	expectKinds(t, "1E3", token.REALLIT)
	expectKinds(t, "1.5D0", token.REALLIT)
}

// 1.EQ.2 must lex as INTLIT EQ INTLIT, not a malformed real.
func TestIntegerDotOperatorAmbiguity(t *testing.T) {
	expectKinds(t, "1.EQ.2", token.INTLIT, token.EQ, token.INTLIT)
	expectKinds(t, "10.LT.N", token.INTLIT, token.LT, token.IDENT)
}

func TestRealLiteralValues(t *testing.T) {
	lx := New("2.5 1D2")
	toks := scanAll(lx)
	if toks[0].Text != "2.5" {
		t.Errorf("got %q", toks[0].Text)
	}
	// D exponents normalize to E for parsing.
	if toks[1].Text != "1E2" {
		t.Errorf("got %q, want 1E2", toks[1].Text)
	}
}

func TestNewlinesCollapse(t *testing.T) {
	expectKinds(t, "a = 1\n\n\nb = 2",
		token.IDENT, token.ASSIGN, token.INTLIT, token.NEWLINE,
		token.IDENT, token.ASSIGN, token.INTLIT)
}

func TestLeadingBlankLinesSuppressed(t *testing.T) {
	expectKinds(t, "\n\na = 1", token.IDENT, token.ASSIGN, token.INTLIT)
}

// TestNewlineAfterIllegal: a line that ends in an ILLEGAL token still
// ends in a NEWLINE, so the next line is a statement of its own.
func TestNewlineAfterIllegal(t *testing.T) {
	lx := New("X = 99999999999999999999\nY = 1")
	toks := scanAll(lx)
	want := []token.Kind{token.IDENT, token.ASSIGN, token.ILLEGAL, token.NEWLINE,
		token.IDENT, token.ASSIGN, token.INTLIT, token.EOF}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %v", len(toks), toks, want)
	}
	for i, tok := range toks {
		if tok.Kind != want[i] {
			t.Fatalf("token %d: got %s, want %s (full: %v)", i, tok.Kind, want[i], toks)
		}
	}
	if len(lx.Errors()) != 1 {
		t.Fatalf("errors = %v, want the one out-of-range literal", lx.Errors())
	}
}

func TestComments(t *testing.T) {
	expectKinds(t, "a = 1 ! set a\nb = 2",
		token.IDENT, token.ASSIGN, token.INTLIT, token.NEWLINE,
		token.IDENT, token.ASSIGN, token.INTLIT)
	// Comment lines: '*' in column one.
	expectKinds(t, "* another comment\na = 1",
		token.IDENT, token.ASSIGN, token.INTLIT)
	// Unlike fixed-form FORTRAN, 'C' at line start is NOT a comment:
	// C is a perfectly good variable name in free form.
	expectKinds(t, "C = 1", token.IDENT, token.ASSIGN, token.INTLIT)
}

func TestContinuation(t *testing.T) {
	expectKinds(t, "a = 1 + &\n    2",
		token.IDENT, token.ASSIGN, token.INTLIT, token.PLUS, token.INTLIT)
	expectKinds(t, "a = 1 + & ! trailing comment\n 2",
		token.IDENT, token.ASSIGN, token.INTLIT, token.PLUS, token.INTLIT)
}

func TestStringLiterals(t *testing.T) {
	lx := New("WRITE(*,*) 'hello ''world'''")
	toks := scanAll(lx)
	var str *token.Token
	for i := range toks {
		if toks[i].Kind == token.STRLIT {
			str = &toks[i]
			break
		}
	}
	if str == nil {
		t.Fatal("no string literal found")
	}
	if str.Text != "hello 'world'" {
		t.Fatalf("got %q", str.Text)
	}
}

func TestPositions(t *testing.T) {
	lx := New("a = 1\n  b = 2")
	toks := scanAll(lx)
	if toks[0].Pos != (token.Pos{Line: 1, Col: 1}) {
		t.Errorf("a at %v", toks[0].Pos)
	}
	// toks: a = 1 NEWLINE b ...
	if toks[4].Pos != (token.Pos{Line: 2, Col: 3}) {
		t.Errorf("b at %v, want 2:3", toks[4].Pos)
	}
}

func TestErrors(t *testing.T) {
	lx := New("a = 'unterminated\nb = #")
	scanAll(lx)
	if len(lx.Errors()) < 2 {
		t.Fatalf("expected at least 2 errors, got %v", lx.Errors())
	}
}

// TestErrorBound: the lexer records token.MaxErrors errors and one
// token.TooManyErrors entry, however many bad characters follow.
func TestErrorBound(t *testing.T) {
	lx := New(strings.Repeat("#\n", 20000))
	scanAll(lx)
	errs := lx.Errors()
	if len(errs) != token.MaxErrors+1 || errs[token.MaxErrors].Msg != token.TooManyErrors {
		t.Fatalf("got %d errors ending in %v, want %d ending in %q",
			len(errs), errs[len(errs)-1], token.MaxErrors+1, token.TooManyErrors)
	}
}

func TestEOFIsSticky(t *testing.T) {
	lx := New("a")
	scanAll(lx)
	for i := 0; i < 3; i++ {
		if got := lx.Next().Kind; got != token.EOF {
			t.Fatalf("Next after EOF returned %s", got)
		}
	}
}

// TestErrorsToEOF: the errors of the whole source come from a copy of
// the lexer, so the lexer itself neither moves nor gains errors, even
// when its error list has room to grow in place.
func TestErrorsToEOF(t *testing.T) {
	lx := New("# a\nb #\n#")
	lx.errs = make([]*Error, 0, 8)
	if tok := lx.Next(); tok.Kind != token.ILLEGAL {
		t.Fatalf("first token %v, want ILLEGAL", tok)
	}
	all := lx.ErrorsToEOF()
	if len(all) != 3 || all[2].Pos != (token.Pos{Line: 3, Col: 1}) {
		t.Fatalf("ErrorsToEOF = %v, want 3 errors ending at 3:1", all)
	}
	if len(lx.Errors()) != 1 {
		t.Fatalf("the lexer gained errors: %v", lx.Errors())
	}
	if tok := lx.Next(); tok.Kind != token.IDENT || tok.Text != "A" {
		t.Fatalf("next token %v, want IDENT(A): the lexer moved", tok)
	}
	want := append([]*Error(nil), all...)
	scanAll(lx)
	if len(lx.Errors()) != 3 {
		t.Fatalf("after scanning on, Errors = %v", lx.Errors())
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("the lexer's own appends rewrote entry %d of the returned list", i)
		}
	}
}
