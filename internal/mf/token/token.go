// Package token defines the lexical tokens of MiniFortran, the
// FORTRAN-77-flavored source language analyzed by this library.
//
// MiniFortran stands in for the FORTRAN front end of ParaScope used in
// Grove & Torczon (PLDI 1993). It is free-form (statements end at
// newline), case-insensitive, and supports the constructs the study
// depends on: program units with by-reference parameters, COMMON blocks,
// PARAMETER constants, integer and real arithmetic, arrays, DO loops,
// block and logical IF, GOTO with numeric labels, CALL/RETURN, and
// opaque READ input.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds.
const (
	ILLEGAL Kind = iota
	EOF
	NEWLINE // statement terminator

	IDENT   // X, LOOPVAR
	INTLIT  // 42
	REALLIT // 3.5, 1.0E-3
	STRLIT  // 'hello'

	// Operators and delimiters.
	PLUS   // +
	MINUS  // -
	STAR   // *
	SLASH  // /
	POW    // **
	LPAREN // (
	RPAREN // )
	COMMA  // ,
	ASSIGN // =
	COLON  // :

	// Relational operators (dot form, e.g. .EQ.).
	EQ // .EQ.
	NE // .NE.
	LT // .LT.
	LE // .LE.
	GT // .GT.
	GE // .GE.

	// Logical operators and literals.
	AND   // .AND.
	OR    // .OR.
	NOT   // .NOT.
	TRUE  // .TRUE.
	FALSE // .FALSE.

	PROGRAM
	SUBROUTINE
	FUNCTION
	INTEGER
	REAL
	LOGICAL
	DIMENSION
	COMMON
	PARAMETER
	IMPLICIT
	NONE
	DATA
	IF
	THEN
	ELSE
	ELSEIF
	ENDIF
	DO
	ENDDO
	WHILE
	GOTO
	CONTINUE
	CALL
	RETURN
	STOP
	READ
	WRITE
	PRINT
	END
)

var kindNames = map[Kind]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF", NEWLINE: "NEWLINE",
	IDENT: "IDENT", INTLIT: "INTLIT", REALLIT: "REALLIT", STRLIT: "STRLIT",
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", POW: "**",
	LPAREN: "(", RPAREN: ")", COMMA: ",", ASSIGN: "=", COLON: ":",
	EQ: ".EQ.", NE: ".NE.", LT: ".LT.", LE: ".LE.", GT: ".GT.", GE: ".GE.",
	AND: ".AND.", OR: ".OR.", NOT: ".NOT.", TRUE: ".TRUE.", FALSE: ".FALSE.",
	PROGRAM: "PROGRAM", SUBROUTINE: "SUBROUTINE", FUNCTION: "FUNCTION",
	INTEGER: "INTEGER", REAL: "REAL", LOGICAL: "LOGICAL",
	DIMENSION: "DIMENSION", COMMON: "COMMON", PARAMETER: "PARAMETER",
	IMPLICIT: "IMPLICIT", NONE: "NONE", DATA: "DATA",
	IF: "IF", THEN: "THEN", ELSE: "ELSE", ELSEIF: "ELSEIF", ENDIF: "ENDIF",
	DO: "DO", ENDDO: "ENDDO", WHILE: "WHILE", GOTO: "GOTO",
	CONTINUE: "CONTINUE", CALL: "CALL", RETURN: "RETURN", STOP: "STOP",
	READ: "READ", WRITE: "WRITE", PRINT: "PRINT", END: "END",
}

// String returns a human-readable name for the token kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = map[string]Kind{
	"PROGRAM": PROGRAM, "SUBROUTINE": SUBROUTINE, "FUNCTION": FUNCTION,
	"INTEGER": INTEGER, "REAL": REAL, "LOGICAL": LOGICAL,
	"DIMENSION": DIMENSION, "COMMON": COMMON, "PARAMETER": PARAMETER,
	"IMPLICIT": IMPLICIT, "NONE": NONE, "DATA": DATA,
	"IF": IF, "THEN": THEN, "ELSE": ELSE, "ELSEIF": ELSEIF, "ENDIF": ENDIF,
	"DO": DO, "ENDDO": ENDDO, "WHILE": WHILE, "GOTO": GOTO,
	"CONTINUE": CONTINUE, "CALL": CALL, "RETURN": RETURN, "STOP": STOP,
	"READ": READ, "WRITE": WRITE, "PRINT": PRINT, "END": END,
}

// Lookup maps an upper-cased identifier spelling to its keyword kind, or
// IDENT when the spelling is not reserved.
func Lookup(upper string) Kind {
	if k, ok := keywords[upper]; ok {
		return k
	}
	return IDENT
}

// dotOperators maps the inner spelling of dot-delimited operators
// (.EQ., .AND., ...) to their kinds.
var dotOperators = map[string]Kind{
	"EQ": EQ, "NE": NE, "LT": LT, "LE": LE, "GT": GT, "GE": GE,
	"AND": AND, "OR": OR, "NOT": NOT, "TRUE": TRUE, "FALSE": FALSE,
}

// LookupDot maps the inner spelling of a dot operator (e.g. "EQ" for
// ".EQ.") to its kind. The second result reports whether the spelling is
// a recognized dot operator.
func LookupDot(upper string) (Kind, bool) {
	k, ok := dotOperators[upper]
	return k, ok
}

// MaxErrors is how many errors each front-end phase (lexer, parser,
// sema) records. The next one is recorded as TooManyErrors and the
// rest are dropped, as go/parser does, so an error message stays a few
// kilobytes whatever the size of the source; the parser stops there.
const MaxErrors = 10

// TooManyErrors is the message of the entry that closes a full list.
const TooManyErrors = "too many errors"

// Pos is a source position: 1-based line and column.
type Pos struct {
	Line int
	Col  int
}

// String formats the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexical token with its source position and spelling.
type Token struct {
	Kind Kind
	Pos  Pos
	Text string // original spelling (upper-cased for identifiers/keywords)
}

// String formats the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INTLIT, REALLIT, STRLIT:
		return fmt.Sprintf("%s(%s)", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}
