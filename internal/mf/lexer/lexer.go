// Package lexer tokenizes MiniFortran source text.
//
// MiniFortran is free-form: statements end at a newline, `!` starts a
// comment that runs to end of line, and a line whose first column is `C`
// or `c` followed by whitespace (or `*` in column one) is a comment line,
// as in fixed-form FORTRAN. A trailing `&` continues a statement onto the
// next line. All letters outside character literals are upper-cased, so
// keywords and identifiers are case-insensitive.
package lexer

import (
	"fmt"
	"strconv"
	"strings"

	"ipcp/internal/mf/token"
)

// Error is a lexical error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans MiniFortran source text into tokens, one per Next call:
// the parser pulls each token when it needs it, so no token list is
// ever built.
type Lexer struct {
	src      string
	off      int // byte offset of next unread character
	line     int
	col      int
	atBOL    bool // at beginning of line (for comment-line detection)
	lastKind token.Kind
	errs     []*Error
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1, atBOL: true, lastKind: token.NEWLINE}
}

// Errors returns the lexical errors encountered so far; past
// token.MaxErrors the list ends in one token.TooManyErrors entry.
func (lx *Lexer) Errors() []*Error { return lx.errs }

func (lx *Lexer) errorf(pos token.Pos, format string, args ...any) {
	switch {
	case len(lx.errs) < token.MaxErrors:
		lx.errs = append(lx.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	case len(lx.errs) == token.MaxErrors:
		lx.errs = append(lx.errs, &Error{Pos: pos, Msg: token.TooManyErrors})
	}
}

func (lx *Lexer) pos() token.Pos { return token.Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peekAt(n int) byte {
	if lx.off+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+n]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func isLetter(c byte) bool { return c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isIdentChar(c byte) bool {
	return isLetter(c) || isDigit(c) || c == '_'
}

// skipCommentLine consumes a whole-line comment when positioned at the
// start of one, returning true if a line was skipped. Only `*` in column
// one marks a comment line; the fixed-form `C` rule is deliberately not
// supported because MiniFortran is free-form and `C = ...` must remain an
// assignment to the variable C. (`!` comments work anywhere.)
func (lx *Lexer) skipCommentLine() bool {
	if !lx.atBOL || lx.peek() != '*' {
		return false
	}
	for lx.off < len(lx.src) && lx.peek() != '\n' {
		lx.advance()
	}
	if lx.off < len(lx.src) {
		lx.advance() // consume the newline; comment lines emit no NEWLINE token
	}
	return true
}

// Next returns the next token. At end of input it returns EOF forever.
// Consecutive newlines collapse into a single NEWLINE token, and leading
// newlines are suppressed.
func (lx *Lexer) Next() token.Token {
	for {
		t := lx.scan()
		if t.Kind == token.NEWLINE && lx.lastKind == token.NEWLINE {
			continue // collapse blank lines; New starts in the NEWLINE state
		}
		lx.lastKind = t.Kind
		return t
	}
}

// ErrorsToEOF returns the lexical errors of the whole source: those
// found so far and those of the input not yet scanned, which a copy of
// the lexer scans on to EOF for, so lx itself does not move. The list
// is capped as Errors is. A parser that pulls tokens one at a time
// needs it when a syntax error must know the lexical errors that will
// precede it in the final list.
func (lx *Lexer) ErrorsToEOF() []*Error {
	rest := *lx
	rest.errs = lx.errs[:len(lx.errs):len(lx.errs)] // the copy's appends never write into lx.errs
	for rest.Next().Kind != token.EOF {
	}
	return rest.errs
}

func (lx *Lexer) scan() token.Token {
	// Skip horizontal whitespace, comments, comment lines, continuations.
	for lx.off < len(lx.src) {
		if lx.skipCommentLine() {
			continue
		}
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			lx.advance()
		case c == '!':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '&':
			// Continuation: skip the '&', the rest of the line
			// (whitespace/comment only), and the newline.
			pos := lx.pos()
			lx.advance()
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				ch := lx.peek()
				if ch == ' ' || ch == '\t' || ch == '\r' {
					lx.advance()
					continue
				}
				if ch == '!' {
					for lx.off < len(lx.src) && lx.peek() != '\n' {
						lx.advance()
					}
					continue
				}
				lx.errorf(pos, "unexpected %q after continuation '&'", string(ch))
				break
			}
			if lx.off < len(lx.src) {
				lx.advance() // newline
			}
			lx.atBOL = true
		default:
			goto scanToken
		}
	}
	return token.Token{Kind: token.EOF, Pos: lx.pos()}

scanToken:
	pos := lx.pos()
	lx.atBOL = false
	c := lx.peek()

	switch {
	case c == '\n':
		lx.advance()
		lx.atBOL = true
		return token.Token{Kind: token.NEWLINE, Pos: pos, Text: "\n"}

	case isLetter(c) || c == '_':
		start := lx.off
		for lx.off < len(lx.src) && isIdentChar(lx.peek()) {
			lx.advance()
		}
		text := strings.ToUpper(lx.src[start:lx.off])
		return token.Token{Kind: token.Lookup(text), Pos: pos, Text: text}

	case isDigit(c):
		return lx.scanNumber(pos)

	case c == '.':
		// Either a dot operator (.EQ., .AND., ...) or a real literal
		// like .5 — disambiguate by what follows the dot.
		if isDigit(lx.peekAt(1)) {
			return lx.scanNumber(pos)
		}
		return lx.scanDotOperator(pos)

	case c == '\'':
		return lx.scanString(pos)
	}

	lx.advance()
	switch c {
	case '+':
		return token.Token{Kind: token.PLUS, Pos: pos, Text: "+"}
	case '-':
		return token.Token{Kind: token.MINUS, Pos: pos, Text: "-"}
	case '*':
		if lx.peek() == '*' {
			lx.advance()
			return token.Token{Kind: token.POW, Pos: pos, Text: "**"}
		}
		return token.Token{Kind: token.STAR, Pos: pos, Text: "*"}
	case '/':
		return token.Token{Kind: token.SLASH, Pos: pos, Text: "/"}
	case '(':
		return token.Token{Kind: token.LPAREN, Pos: pos, Text: "("}
	case ')':
		return token.Token{Kind: token.RPAREN, Pos: pos, Text: ")"}
	case ',':
		return token.Token{Kind: token.COMMA, Pos: pos, Text: ","}
	case '=':
		return token.Token{Kind: token.ASSIGN, Pos: pos, Text: "="}
	case ':':
		return token.Token{Kind: token.COLON, Pos: pos, Text: ":"}
	}
	lx.errorf(pos, "illegal character %q", string(c))
	return token.Token{Kind: token.ILLEGAL, Pos: pos, Text: string(c)}
}

// scanNumber scans an integer or real literal. Reals have a decimal
// point and/or an exponent: 1.5, .5, 2., 1E3, 1.5E-3.
func (lx *Lexer) scanNumber(pos token.Pos) token.Token {
	start := lx.off
	for lx.off < len(lx.src) && isDigit(lx.peek()) {
		lx.advance()
	}
	isReal := false
	if lx.peek() == '.' {
		// A dot followed by letters is a dot operator (1.EQ.2), not a
		// decimal point.
		if !isLetter(lx.peekAt(1)) {
			isReal = true
			lx.advance()
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		} else if k, size := lx.dotOpLookahead(); k != token.ILLEGAL {
			_ = size // dot operator follows; stop the number here
		} else {
			// ".E5" etc. — treat the dot as a decimal point with an
			// exponent; fall through to exponent handling below.
			isReal = true
			lx.advance()
		}
	}
	if e := lx.peek(); e == 'E' || e == 'e' || e == 'D' || e == 'd' {
		next := lx.peekAt(1)
		next2 := lx.peekAt(2)
		if isDigit(next) || ((next == '+' || next == '-') && isDigit(next2)) {
			isReal = true
			lx.advance() // E
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.advance()
			}
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
	}
	text := lx.src[start:lx.off]
	if isReal {
		norm := strings.ToUpper(text)
		norm = strings.ReplaceAll(norm, "D", "E")
		if _, err := strconv.ParseFloat(norm, 64); err != nil {
			lx.errorf(pos, "malformed real literal %q", text)
			return token.Token{Kind: token.ILLEGAL, Pos: pos, Text: text}
		}
		return token.Token{Kind: token.REALLIT, Pos: pos, Text: norm}
	}
	if _, err := strconv.ParseInt(text, 10, 64); err != nil {
		lx.errorf(pos, "integer literal %q out of range", text)
		return token.Token{Kind: token.ILLEGAL, Pos: pos, Text: text}
	}
	return token.Token{Kind: token.INTLIT, Pos: pos, Text: text}
}

// dotOpLookahead checks whether the input at the current '.' starts a dot
// operator, returning its kind and total length (including both dots).
// It does not consume input.
func (lx *Lexer) dotOpLookahead() (token.Kind, int) {
	i := 1
	for isLetter(lx.peekAt(i)) {
		i++
	}
	if i == 1 || lx.peekAt(i) != '.' {
		return token.ILLEGAL, 0
	}
	word := strings.ToUpper(lx.src[lx.off+1 : lx.off+i])
	if k, ok := token.LookupDot(word); ok {
		return k, i + 1
	}
	return token.ILLEGAL, 0
}

func (lx *Lexer) scanDotOperator(pos token.Pos) token.Token {
	k, size := lx.dotOpLookahead()
	if k == token.ILLEGAL {
		lx.advance()
		lx.errorf(pos, "malformed dot operator")
		return token.Token{Kind: token.ILLEGAL, Pos: pos, Text: "."}
	}
	start := lx.off
	for i := 0; i < size; i++ {
		lx.advance()
	}
	return token.Token{Kind: k, Pos: pos, Text: strings.ToUpper(lx.src[start : start+size])}
}

func (lx *Lexer) scanString(pos token.Pos) token.Token {
	lx.advance() // opening quote
	var sb strings.Builder
	for {
		if lx.off >= len(lx.src) || lx.peek() == '\n' {
			lx.errorf(pos, "unterminated character literal")
			return token.Token{Kind: token.ILLEGAL, Pos: pos, Text: sb.String()}
		}
		c := lx.advance()
		if c == '\'' {
			if lx.peek() == '\'' { // doubled quote escapes a quote
				lx.advance()
				sb.WriteByte('\'')
				continue
			}
			return token.Token{Kind: token.STRLIT, Pos: pos, Text: sb.String()}
		}
		sb.WriteByte(c)
	}
}
