package parser

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"ipcp/internal/mf/ast"
)

func mustParse(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse failed: %v", err)
	}
	return f
}

const tinyProgram = `
PROGRAM MAIN
  INTEGER N
  N = 100
  CALL FOO(N, 5)
END

SUBROUTINE FOO(A, B)
  INTEGER A, B
  A = A + B
  RETURN
END
`

func TestParseUnits(t *testing.T) {
	f := mustParse(t, tinyProgram)
	if len(f.Units) != 2 {
		t.Fatalf("got %d units, want 2", len(f.Units))
	}
	if f.Units[0].Kind != ast.ProgramUnit || f.Units[0].Name != "MAIN" {
		t.Errorf("unit 0: %v %q", f.Units[0].Kind, f.Units[0].Name)
	}
	sub := f.Units[1]
	if sub.Kind != ast.SubroutineUnit || sub.Name != "FOO" {
		t.Errorf("unit 1: %v %q", sub.Kind, sub.Name)
	}
	if len(sub.Params) != 2 || sub.Params[0] != "A" || sub.Params[1] != "B" {
		t.Errorf("params: %v", sub.Params)
	}
}

func TestParseFunction(t *testing.T) {
	f := mustParse(t, `
INTEGER FUNCTION TWICE(X)
  INTEGER X
  TWICE = 2*X
  RETURN
END
`)
	u := f.Units[0]
	if u.Kind != ast.FunctionUnit || u.ResultType != ast.Integer || u.Name != "TWICE" {
		t.Fatalf("got %v %v %q", u.Kind, u.ResultType, u.Name)
	}
}

func TestParseDecls(t *testing.T) {
	f := mustParse(t, `
PROGRAM P
  IMPLICIT NONE
  INTEGER A, B(10), C(5,5)
  REAL X
  LOGICAL FLAG
  DIMENSION D(100)
  COMMON /BLK/ G1, G2
  PARAMETER (N = 100, M = N*2)
  DATA A /5/, X /1.5/
END
`)
	decls := f.Units[0].Decls
	if len(decls) != 8 {
		t.Fatalf("got %d decls, want 8", len(decls))
	}
	td := decls[1].(*ast.TypeDecl)
	if td.Type != ast.Integer || len(td.Items) != 3 {
		t.Fatalf("INTEGER decl: %+v", td)
	}
	if len(td.Items[1].Dims) != 1 || len(td.Items[2].Dims) != 2 {
		t.Errorf("array dims wrong: %+v", td.Items)
	}
	cd := decls[5].(*ast.CommonDecl)
	if cd.Block != "BLK" || len(cd.Items) != 2 {
		t.Fatalf("COMMON decl: %+v", cd)
	}
	pd := decls[6].(*ast.ParameterDecl)
	if len(pd.Names) != 2 || pd.Names[0] != "N" {
		t.Fatalf("PARAMETER decl: %+v", pd)
	}
}

func TestParseIfForms(t *testing.T) {
	f := mustParse(t, `
PROGRAM P
  INTEGER A
  IF (A .GT. 0) THEN
    A = 1
  ELSE IF (A .LT. 0) THEN
    A = 2
  ELSEIF (A .EQ. 0) THEN
    A = 3
  ELSE
    A = 4
  END IF
  IF (A .EQ. 1) A = 5
  IF (A .EQ. 2) GOTO 10
10 CONTINUE
END
`)
	body := f.Units[0].Body
	ifs, ok := body[0].(*ast.IfStmt)
	if !ok {
		t.Fatalf("stmt 0 is %T", body[0])
	}
	// ELSE IF chain nests: else contains one IfStmt, whose else contains
	// another, whose else has the final assignment.
	lvl2, ok := ifs.Else[0].(*ast.IfStmt)
	if !ok {
		t.Fatalf("else[0] is %T", ifs.Else[0])
	}
	lvl3, ok := lvl2.Else[0].(*ast.IfStmt)
	if !ok {
		t.Fatalf("nested else is %T", lvl2.Else[0])
	}
	if len(lvl3.Else) != 1 {
		t.Fatalf("final else: %v", lvl3.Else)
	}
	if _, ok := body[1].(*ast.LogicalIfStmt); !ok {
		t.Fatalf("stmt 1 is %T, want LogicalIfStmt", body[1])
	}
	lif := body[2].(*ast.LogicalIfStmt)
	if g, ok := lif.Stmt.(*ast.GotoStmt); !ok || g.Target != 10 {
		t.Fatalf("logical IF GOTO: %+v", lif.Stmt)
	}
	if body[3].Label() != 10 {
		t.Fatalf("label: %d", body[3].Label())
	}
}

func TestParseDoForms(t *testing.T) {
	f := mustParse(t, `
PROGRAM P
  INTEGER I, J, S
  DO I = 1, 10
    S = S + I
  ENDDO
  DO J = 10, 1, -1
    S = S - J
  END DO
  DO 20 I = 1, 5
    S = S + 1
20 CONTINUE
  DO WHILE (S .GT. 0)
    S = S - 1
  ENDDO
END
`)
	body := f.Units[0].Body
	d0 := body[0].(*ast.DoStmt)
	if d0.Var != "I" || d0.Step != nil || len(d0.Body) != 1 {
		t.Fatalf("do 0: %+v", d0)
	}
	d1 := body[1].(*ast.DoStmt)
	if d1.Step == nil {
		t.Fatalf("do 1 missing step")
	}
	d2 := body[2].(*ast.DoStmt)
	if d2.EndLabel != 20 || len(d2.Body) != 2 {
		t.Fatalf("labeled do: endlabel=%d body=%d", d2.EndLabel, len(d2.Body))
	}
	if d2.Body[1].Label() != 20 {
		t.Fatalf("labeled do terminator label: %d", d2.Body[1].Label())
	}
	if _, ok := body[3].(*ast.DoWhileStmt); !ok {
		t.Fatalf("stmt 3 is %T", body[3])
	}
}

func TestParseNestedLabeledDo(t *testing.T) {
	f := mustParse(t, `
PROGRAM P
  INTEGER I, J, S
  DO 10 I = 1, 5
  DO 20 J = 1, 5
    S = S + 1
20 CONTINUE
10 CONTINUE
END
`)
	outer := f.Units[0].Body[0].(*ast.DoStmt)
	inner, ok := outer.Body[0].(*ast.DoStmt)
	if !ok {
		t.Fatalf("inner is %T", outer.Body[0])
	}
	if inner.EndLabel != 20 || outer.EndLabel != 10 {
		t.Fatalf("labels: %d %d", inner.EndLabel, outer.EndLabel)
	}
}

func TestParseIO(t *testing.T) {
	f := mustParse(t, `
PROGRAM P
  INTEGER N, A(10)
  READ N
  READ(*,*) N, A(2)
  READ *, N
  WRITE(*,*) N, N+1, 'done'
  PRINT *, N
END
`)
	body := f.Units[0].Body
	if r := body[1].(*ast.ReadStmt); len(r.Targets) != 2 || len(r.Targets[1].Indexes) != 1 {
		t.Fatalf("read 1: %+v", body[1])
	}
	if w := body[3].(*ast.WriteStmt); len(w.Values) != 3 {
		t.Fatalf("write: %+v", body[3])
	}
}

func TestExpressionPrecedence(t *testing.T) {
	f := mustParse(t, "PROGRAM P\nINTEGER A\nA = 1 + 2*3**2\nEND\n")
	asg := f.Units[0].Body[0].(*ast.AssignStmt)
	add := asg.RHS.(*ast.BinaryExpr)
	if add.Op != ast.Add {
		t.Fatalf("top op %v", add.Op)
	}
	mul := add.Y.(*ast.BinaryExpr)
	if mul.Op != ast.Mul {
		t.Fatalf("mul op %v", mul.Op)
	}
	pow := mul.Y.(*ast.BinaryExpr)
	if pow.Op != ast.Pow {
		t.Fatalf("pow op %v", pow.Op)
	}
}

func TestPowerRightAssociative(t *testing.T) {
	f := mustParse(t, "PROGRAM P\nINTEGER A\nA = 2**3**2\nEND\n")
	asg := f.Units[0].Body[0].(*ast.AssignStmt)
	outer := asg.RHS.(*ast.BinaryExpr)
	inner, ok := outer.Y.(*ast.BinaryExpr)
	if !ok || inner.Op != ast.Pow {
		t.Fatalf("2**3**2 should parse as 2**(3**2): %+v", asg.RHS)
	}
}

func TestUnaryMinusBindsTerm(t *testing.T) {
	// -A*B parses as -(A*B) in Fortran.
	f := mustParse(t, "PROGRAM P\nINTEGER A, B, C\nC = -A*B\nEND\n")
	asg := f.Units[0].Body[0].(*ast.AssignStmt)
	neg, ok := asg.RHS.(*ast.UnaryExpr)
	if !ok || neg.Op != ast.Neg {
		t.Fatalf("top is %T", asg.RHS)
	}
	if mul, ok := neg.X.(*ast.BinaryExpr); !ok || mul.Op != ast.Mul {
		t.Fatalf("inner is %+v", neg.X)
	}
}

func TestLogicalPrecedence(t *testing.T) {
	// A.EQ.1 .OR. B.EQ.2 .AND. C.EQ.3 => OR(eq, AND(eq, eq))
	f := mustParse(t, "PROGRAM P\nINTEGER A,B,C\nLOGICAL L\nL = A.EQ.1 .OR. B.EQ.2 .AND. C.EQ.3\nEND\n")
	asg := f.Units[0].Body[0].(*ast.AssignStmt)
	or := asg.RHS.(*ast.BinaryExpr)
	if or.Op != ast.Or {
		t.Fatalf("top %v", or.Op)
	}
	and := or.Y.(*ast.BinaryExpr)
	if and.Op != ast.And {
		t.Fatalf("right %v", and.Op)
	}
}

func TestCallForms(t *testing.T) {
	f := mustParse(t, `
PROGRAM P
  INTEGER X
  CALL NOARG
  CALL NOARG()
  CALL ONEARG(X+1)
END
`)
	body := f.Units[0].Body
	if c := body[0].(*ast.CallStmt); c.Name != "NOARG" || len(c.Args) != 0 {
		t.Fatalf("call 0: %+v", c)
	}
	if c := body[1].(*ast.CallStmt); len(c.Args) != 0 {
		t.Fatalf("call 1: %+v", c)
	}
	if c := body[2].(*ast.CallStmt); len(c.Args) != 1 {
		t.Fatalf("call 2: %+v", c)
	}
}

func TestSyntaxErrorsRecover(t *testing.T) {
	src := `
PROGRAM P
  INTEGER A
  A = = 1
  A = 2
END
`
	f, err := Parse(src)
	if err == nil {
		t.Fatal("expected syntax error")
	}
	if len(f.Units) != 1 {
		t.Fatalf("units: %d", len(f.Units))
	}
	// The good statement after the bad one still parses.
	found := false
	for _, s := range f.Units[0].Body {
		if a, ok := s.(*ast.AssignStmt); ok {
			if lit, ok := a.RHS.(*ast.IntLit); ok && lit.Value == 2 {
				found = true
			}
		}
	}
	if !found {
		t.Error("statement after error was not recovered")
	}
}

func TestErrorMessagesCarryPositions(t *testing.T) {
	_, err := Parse("PROGRAM P\nA = \nEND\n")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error lacks line number: %v", err)
	}
}

// Round-trip: print the AST and reparse; unit/stmt structure must survive.
func TestPrintReparse(t *testing.T) {
	srcs := []string{tinyProgram, `
PROGRAM P
  INTEGER I, S, A(10)
  COMMON /G/ GV
  PARAMETER (N = 3)
  S = 0
  DO I = 1, N
    IF (S .LT. 100 .AND. I .NE. 2) THEN
      S = S + A(I)*2 - (-I)
    ELSE
      CALL HELPER(S, I, 7)
    ENDIF
  ENDDO
  WRITE(*,*) S
END
SUBROUTINE HELPER(X, Y, Z)
  INTEGER X, Y, Z
  X = X + Y**Z
  RETURN
END
`}
	for _, src := range srcs {
		f1 := mustParse(t, src)
		printed := ast.Format(f1)
		f2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse failed: %v\nprinted source:\n%s", err, printed)
		}
		p2 := ast.Format(f2)
		if printed != p2 {
			t.Fatalf("print not stable:\n--- first ---\n%s\n--- second ---\n%s", printed, p2)
		}
	}
}

// nestForms builds, for each construct the nesting bound counts, a
// statement list nested n levels deep.
var nestForms = map[string]func(n int) string{
	"parentheses": func(n int) string { return "X = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) },
	"subscripts":  func(n int) string { return "X = " + strings.Repeat("A(", n) + "1" + strings.Repeat(")", n) },
	"power":       func(n int) string { return "X = 1" + strings.Repeat("**1", n) },
	"signed power": func(n int) string {
		return "X = 1" + strings.Repeat("**-1", n)
	},
	"not":      func(n int) string { return "L = " + strings.Repeat(".NOT. ", n) + "L" },
	"or chain": func(n int) string { return "L = L" + strings.Repeat(" .OR. L", n) },
	"sum":      func(n int) string { return "X = 1" + strings.Repeat("+1", n) },
	"product":  func(n int) string { return "X = 1" + strings.Repeat("*1", n) },
	"if": func(n int) string {
		return strings.Repeat("IF (X .EQ. 1) THEN\n", n) + "X = 2\n" + strings.Repeat("ENDIF\n", n)
	},
	"else if": func(n int) string {
		var sb strings.Builder
		sb.WriteString("IF (X .EQ. 0) THEN\n")
		for k := 1; k < n; k++ {
			fmt.Fprintf(&sb, "ELSE IF (X .EQ. %d) THEN\nX = %d\n", k, k)
		}
		sb.WriteString("ENDIF\n")
		return sb.String()
	},
	"do": func(n int) string {
		return strings.Repeat("DO I = 1, 2\n", n) + "X = I\n" + strings.Repeat("ENDDO\n", n)
	},
	"labeled do": func(n int) string {
		var sb strings.Builder
		for k := n; k >= 1; k-- {
			fmt.Fprintf(&sb, "DO %d I = 1, 2\n", k)
		}
		for k := 1; k <= n; k++ {
			fmt.Fprintf(&sb, "%d CONTINUE\n", k)
		}
		return sb.String()
	},
	"do while": func(n int) string {
		return strings.Repeat("DO WHILE (X .LT. 2)\n", n) + "X = 2\n" + strings.Repeat("ENDDO\n", n)
	},
}

func nestProgram(body string) string {
	return "PROGRAM P\n  INTEGER X, I, A(2)\n  LOGICAL L\n" + body + "\nEND\n"
}

// TestNestingBound: every construct parses at exactly MaxNesting levels
// and prints back into a source that parses again, and one level more
// is a single positioned syntax error that ends the parse.
func TestNestingBound(t *testing.T) {
	for name, form := range nestForms {
		t.Run(name, func(t *testing.T) {
			f := mustParse(t, nestProgram(form(MaxNesting)))
			if _, err := Parse(ast.Format(f)); err != nil {
				t.Fatalf("printed source at the bound does not reparse: %v", err)
			}
			_, err := Parse(nestProgram(form(MaxNesting + 1)))
			var list ErrorList
			if !errors.As(err, &list) || len(list) != 1 {
				t.Fatalf("one level past the bound: err = %v, want one syntax error", err)
			}
			if want := fmt.Sprintf("nesting deeper than %d levels", MaxNesting); list[0].Msg != want || list[0].Pos.Line < 4 {
				t.Fatalf("error %v, want %q positioned in the body", list[0], want)
			}
		})
	}
}

// TestNestingBoundStopsHugeSources: a million nested parentheses (a
// 2 MB source) is a syntax error, not a stack overflow.
func TestNestingBoundStopsHugeSources(t *testing.T) {
	const n = 1000000
	_, err := Parse(nestProgram(nestForms["parentheses"](n)))
	var list ErrorList
	if !errors.As(err, &list) || len(list) != 1 || !strings.Contains(list[0].Msg, "nesting deeper") {
		t.Fatalf("err = %v, want one nesting error", err)
	}
	if list[0].Pos.Line != 4 || list[0].Pos.Col != 5+MaxNesting {
		t.Fatalf("error at %s, want 4:%d, the first parenthesis past the bound", list[0].Pos, 5+MaxNesting)
	}
}
