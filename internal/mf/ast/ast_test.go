package ast

import (
	"strings"
	"testing"

	"ipcp/internal/mf/token"
)

func intLit(v int64) *IntLit { return &IntLit{Value: v} }
func ref(name string) *VarRef {
	return &VarRef{Name: name, NamePos: token.Pos{Line: 1, Col: 1}}
}

func TestFormatExprPrecedence(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		// (1+2)*3 needs parentheses.
		{&BinaryExpr{Op: Mul, X: &BinaryExpr{Op: Add, X: intLit(1), Y: intLit(2)}, Y: intLit(3)}, "(1+2)*3"},
		// 1+2*3 does not.
		{&BinaryExpr{Op: Add, X: intLit(1), Y: &BinaryExpr{Op: Mul, X: intLit(2), Y: intLit(3)}}, "1+2*3"},
		// Left-associativity: (a-b)-c prints flat, a-(b-c) keeps parens.
		{&BinaryExpr{Op: Sub, X: &BinaryExpr{Op: Sub, X: ref("A"), Y: ref("B")}, Y: ref("C")}, "A-B-C"},
		{&BinaryExpr{Op: Sub, X: ref("A"), Y: &BinaryExpr{Op: Sub, X: ref("B"), Y: ref("C")}}, "A-(B-C)"},
		// Unary minus binding.
		// -A*B means -(A*B) in Fortran, so no parentheses are needed.
		{&UnaryExpr{Op: Neg, X: &BinaryExpr{Op: Mul, X: ref("A"), Y: ref("B")}}, "-A*B"},
		// Relational spacing.
		{&BinaryExpr{Op: Le, X: ref("I"), Y: ref("N")}, "I .LE. N"},
		// Logical operators.
		{&BinaryExpr{Op: And, X: &LogicalLit{Value: true}, Y: &UnaryExpr{Op: Not, X: ref("L")}}, ".TRUE. .AND. .NOT. L"},
		// Array reference and call.
		{&VarRef{Name: "A", Indexes: []Expr{ref("I"), intLit(2)}}, "A(I, 2)"},
		{&CallExpr{Name: "MOD", Args: []Expr{ref("I"), intLit(4)}}, "MOD(I, 4)"},
		// .NOT. takes a relational operand or another .NOT. bare.
		{&UnaryExpr{Op: Not, X: &UnaryExpr{Op: Not, X: ref("L")}}, ".NOT. .NOT. L"},
		{&UnaryExpr{Op: Not, X: &BinaryExpr{Op: Eq, X: ref("A"), Y: ref("B")}}, ".NOT. A .EQ. B"},
		{&UnaryExpr{Op: Not, X: &BinaryExpr{Op: And, X: ref("L"), Y: ref("M")}}, ".NOT. (L .AND. M)"},
		// An exponent carries its sign bare; other operands do not.
		{&BinaryExpr{Op: Pow, X: ref("A"), Y: &UnaryExpr{Op: Neg, X: ref("B")}}, "A**-B"},
		{&BinaryExpr{Op: Pow, X: ref("A"), Y: &UnaryExpr{Op: Neg, X: &BinaryExpr{Op: Mul, X: ref("B"), Y: ref("C")}}}, "A**-(B*C)"},
		{&BinaryExpr{Op: Mul, X: ref("A"), Y: &UnaryExpr{Op: Neg, X: ref("B")}}, "A*(-B)"},
		// Power is right-associative.
		{&BinaryExpr{Op: Pow, X: intLit(2), Y: &BinaryExpr{Op: Pow, X: intLit(3), Y: intLit(2)}}, "2**3**2"},
		{&BinaryExpr{Op: Pow, X: &BinaryExpr{Op: Pow, X: intLit(2), Y: intLit(3)}, Y: intLit(2)}, "(2**3)**2"},
		// String and real literals.
		{&StrLit{Value: "hi"}, "'hi'"},
		{&RealLit{Value: 2.5, Text: "2.5"}, "2.5"},
		{&RealLit{Value: 0.5}, "0.5"},
	}
	for _, tc := range cases {
		if got := FormatExpr(tc.e); got != tc.want {
			t.Errorf("FormatExpr = %q, want %q", got, tc.want)
		}
	}
}

func TestFormatUnitKinds(t *testing.T) {
	f := &File{Units: []*Unit{
		{Kind: ProgramUnit, Name: "P"},
		{Kind: SubroutineUnit, Name: "S", Params: []string{"A", "B"}},
		{Kind: FunctionUnit, Name: "F", ResultType: Integer, Params: []string{"X"}},
	}}
	out := Format(f)
	for _, want := range []string{"PROGRAM P", "SUBROUTINE S(A, B)", "INTEGER FUNCTION F(X)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatStatements(t *testing.T) {
	u := &Unit{Kind: ProgramUnit, Name: "P", Body: []Stmt{
		&AssignStmt{LHS: ref("X"), RHS: intLit(1)},
		&GotoStmt{Target: 10},
		&ContinueStmt{},
		&ReturnStmt{},
		&StopStmt{},
		&ReadStmt{Targets: []*VarRef{ref("A"), {Name: "B", Indexes: []Expr{intLit(1)}}}},
		&WriteStmt{Values: []Expr{ref("A"), &StrLit{Value: "done"}}},
	}}
	u.Body[2].SetLabel(10)
	out := Format(&File{Units: []*Unit{u}})
	for _, want := range []string{"X = 1", "GOTO 10", "10 CONTINUE", "RETURN", "STOP",
		"READ A, B(1)", "WRITE(*,*) A, 'done'"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatLogicalIfInline(t *testing.T) {
	u := &Unit{Kind: ProgramUnit, Name: "P", Body: []Stmt{
		&LogicalIfStmt{
			Cond: &BinaryExpr{Op: Gt, X: ref("N"), Y: intLit(0)},
			Stmt: &GotoStmt{Target: 20},
		},
		&ContinueStmt{},
	}}
	u.Body[1].SetLabel(20)
	out := Format(&File{Units: []*Unit{u}})
	if !strings.Contains(out, "IF (N .GT. 0) GOTO 20") {
		t.Errorf("logical IF:\n%s", out)
	}
}

func TestRewriteExprsReplacesUses(t *testing.T) {
	// X = N + 1; IF (N .GT. 0) THEN WRITE N ENDIF ; substitute N := 5.
	u := &Unit{Kind: ProgramUnit, Name: "P", Body: []Stmt{
		&AssignStmt{LHS: ref("X"), RHS: &BinaryExpr{Op: Add, X: ref("N"), Y: intLit(1)}},
		&IfStmt{
			Cond: &BinaryExpr{Op: Gt, X: ref("N"), Y: intLit(0)},
			Then: []Stmt{&WriteStmt{Values: []Expr{ref("N")}}},
		},
		&DoStmt{Var: "I", Lo: intLit(1), Hi: ref("N"), Body: []Stmt{
			&AssignStmt{LHS: &VarRef{Name: "A", Indexes: []Expr{ref("N")}}, RHS: ref("N")},
		}},
	}}
	count := 0
	RewriteExprs(u, func(e Expr) Expr {
		if r, ok := e.(*VarRef); ok && r.Name == "N" && len(r.Indexes) == 0 {
			count++
			return intLit(5)
		}
		return e
	})
	if count != 6 {
		t.Fatalf("replaced %d references, want 6", count)
	}
	out := Format(&File{Units: []*Unit{u}})
	for _, want := range []string{"X = 5+1", "IF (5 .GT. 0)", "DO I = 1, 5", "A(5) = 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q after rewrite:\n%s", want, out)
		}
	}
}

func TestRewriteDoesNotTouchStoreTargets(t *testing.T) {
	u := &Unit{Kind: ProgramUnit, Name: "P", Body: []Stmt{
		&AssignStmt{LHS: ref("N"), RHS: intLit(1)},
		&ReadStmt{Targets: []*VarRef{ref("N")}},
	}}
	RewriteExprs(u, func(e Expr) Expr {
		if r, ok := e.(*VarRef); ok && r.Name == "N" {
			t.Error("store target visited as an expression")
		}
		return e
	})
}

func TestBinaryOpPredicates(t *testing.T) {
	if !Add.IsArithmetic() || Add.IsRelational() || Add.IsLogical() {
		t.Error("Add classification")
	}
	if !Lt.IsRelational() || Lt.IsArithmetic() {
		t.Error("Lt classification")
	}
	if !And.IsLogical() || And.IsRelational() {
		t.Error("And classification")
	}
	for op := Add; op <= Or; op++ {
		if op.String() == "" {
			t.Errorf("missing name for op %d", op)
		}
	}
	if Neg.String() != "-" || Not.String() != ".NOT." {
		t.Error("unary names")
	}
}

func TestUnitKindStrings(t *testing.T) {
	if ProgramUnit.String() != "PROGRAM" || SubroutineUnit.String() != "SUBROUTINE" || FunctionUnit.String() != "FUNCTION" {
		t.Error("unit kind names")
	}
	if Integer.String() != "INTEGER" || Real.String() != "REAL" || Logical.String() != "LOGICAL" {
		t.Error("type names")
	}
}
