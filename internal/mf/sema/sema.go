// Package sema performs semantic analysis of a parsed MiniFortran file:
// it builds per-unit symbol tables, applies FORTRAN implicit typing,
// resolves COMMON blocks to program-wide global variables, folds
// PARAMETER constants, disambiguates the `name(args)` syntax between
// array references and function calls, and type-checks every expression
// and statement.
//
// The result (Program) is the input to IR construction and carries the
// side tables the lowerer needs: resolved symbols per variable
// reference, call targets per call expression, and the type of every
// expression.
package sema

import (
	"fmt"
	"strings"

	"ipcp/internal/mf/ast"
	"ipcp/internal/mf/token"
	"ipcp/internal/sym"
)

// Error is a semantic error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is a non-empty collection of semantic errors.
type ErrorList []*Error

func (l ErrorList) Error() string {
	if len(l) == 1 {
		return l[0].Error()
	}
	msgs := make([]string, len(l))
	for i, e := range l {
		msgs[i] = e.Error()
	}
	return fmt.Sprintf("%d semantic errors:\n%s", len(l), strings.Join(msgs, "\n"))
}

// SymbolKind classifies the names visible inside one program unit.
type SymbolKind int

// Symbol kinds.
const (
	ParamSym     SymbolKind = iota // formal parameter (by reference)
	LocalSym                       // local variable
	GlobalSym                      // COMMON block member
	ConstSym                       // PARAMETER constant
	ResultSym                      // function result variable
	ProcedureSym                   // a SUBROUTINE or FUNCTION name
)

func (k SymbolKind) String() string {
	switch k {
	case ParamSym:
		return "parameter"
	case LocalSym:
		return "local"
	case GlobalSym:
		return "global"
	case ConstSym:
		return "constant"
	case ResultSym:
		return "result"
	case ProcedureSym:
		return "procedure"
	}
	return "symbol"
}

// Symbol is one resolved name within a program unit.
type Symbol struct {
	Name string
	Kind SymbolKind
	Type ast.BaseType

	Dims []int64 // array dimensions (nil for scalars)

	ParamIndex int     // ParamSym: 0-based position in the formal list
	Global     *Global // GlobalSym: the program-wide global this maps to

	// ConstSym: the folded compile-time value.
	ConstInt  int64
	ConstReal float64

	// DATA initialization (PROGRAM unit only). When HasInit is set the
	// lowerer emits an assignment at entry.
	HasInit  bool
	InitInt  int64
	InitReal float64
}

// IsArray reports whether the symbol names an array.
func (s *Symbol) IsArray() bool { return len(s.Dims) > 0 }

// Size returns the total element count of an array symbol (1 for
// scalars).
func (s *Symbol) Size() int64 {
	n := int64(1)
	for _, d := range s.Dims {
		n *= d
	}
	return n
}

// Global is a program-wide variable: one member of a COMMON block.
// Identity is (Block, Index); the canonical Name comes from the first
// unit that declares the block.
type Global struct {
	ID    int // dense index over all globals in the program
	Block string
	Index int // position within the block
	Name  string
	Type  ast.BaseType
	Dims  []int64
}

// IsArray reports whether the global is an array.
func (g *Global) IsArray() bool { return len(g.Dims) > 0 }

// String returns "BLOCK.NAME".
func (g *Global) String() string { return g.Block + "." + g.Name }

// Intrinsic describes a built-in pure function.
type Intrinsic struct {
	Name    string
	MinArgs int
	MaxArgs int // -1 for unbounded (MIN/MAX)
	// IntOnly intrinsics require and return INTEGER; otherwise the
	// result type is the promoted argument type.
	IntOnly bool
}

// Intrinsics is the table of supported built-in functions.
var Intrinsics = map[string]*Intrinsic{
	"MOD":  {Name: "MOD", MinArgs: 2, MaxArgs: 2, IntOnly: true},
	"IABS": {Name: "IABS", MinArgs: 1, MaxArgs: 1, IntOnly: true},
	"ABS":  {Name: "ABS", MinArgs: 1, MaxArgs: 1},
	"MIN":  {Name: "MIN", MinArgs: 2, MaxArgs: -1},
	"MAX":  {Name: "MAX", MinArgs: 2, MaxArgs: -1},
	"MIN0": {Name: "MIN0", MinArgs: 2, MaxArgs: -1, IntOnly: true},
	"MAX0": {Name: "MAX0", MinArgs: 2, MaxArgs: -1, IntOnly: true},
}

// CallTarget is the resolved callee of a CallExpr or CallStmt.
type CallTarget struct {
	Unit      *UnitInfo  // user procedure, nil for intrinsics
	Intrinsic *Intrinsic // nil for user procedures
}

// UnitInfo is the semantic summary of one program unit.
type UnitInfo struct {
	Unit    *ast.Unit
	Name    string
	Symbols map[string]*Symbol
	Params  []*Symbol // in declaration order
	Result  *Symbol   // function result, nil for PROGRAM/SUBROUTINE

	// CommonVars lists this unit's GlobalSym symbols in declaration
	// order (the unit's view of the COMMON blocks it declares).
	CommonVars []*Symbol

	implicitNone bool
}

// Program is the fully analyzed file.
type Program struct {
	File  *ast.File
	Units []*UnitInfo
	Main  *UnitInfo

	// UnitByName maps upper-cased unit names to their info.
	UnitByName map[string]*UnitInfo

	// Globals lists every COMMON member in the whole program, densely
	// numbered (Global.ID indexes this slice).
	Globals []*Global

	// RefSym resolves each variable reference (including assignment
	// targets and READ targets) to its symbol.
	RefSym map[*ast.VarRef]*Symbol

	// CallTargets resolves each rewritten CallExpr and each CallStmt.
	CallTargets map[ast.Node]*CallTarget
}

// Analyze performs semantic analysis on file. On failure it returns the
// partial Program along with an ErrorList.
func Analyze(file *ast.File) (*Program, error) {
	c := &checker{
		prog: &Program{
			File:        file,
			UnitByName:  make(map[string]*UnitInfo),
			RefSym:      make(map[*ast.VarRef]*Symbol),
			CallTargets: make(map[ast.Node]*CallTarget),
		},
		blocks: make(map[string][]*Global),
	}
	c.run()
	if len(c.errs) > 0 {
		return c.prog, c.errs
	}
	return c.prog, nil
}

type checker struct {
	prog   *Program
	blocks map[string][]*Global // COMMON block layouts by name
	errs   ErrorList

	// Per-unit state while checking one unit.
	unit *UnitInfo
}

// errorf records an error; past token.MaxErrors the list ends in one
// token.TooManyErrors entry.
func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	switch {
	case len(c.errs) < token.MaxErrors:
		c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	case len(c.errs) == token.MaxErrors:
		c.errs = append(c.errs, &Error{Pos: pos, Msg: token.TooManyErrors})
	}
}

// implicitType applies the FORTRAN implicit typing rule: names starting
// with I..N are INTEGER, all others REAL.
func implicitType(name string) ast.BaseType {
	if name == "" {
		return ast.Real
	}
	if c := name[0]; c >= 'I' && c <= 'N' {
		return ast.Integer
	}
	return ast.Real
}

func (c *checker) run() {
	// Pass 1: register all unit names so calls can resolve forward.
	mainCount := 0
	for _, u := range c.prog.File.Units {
		info := &UnitInfo{Unit: u, Name: u.Name, Symbols: make(map[string]*Symbol)}
		if prev, dup := c.prog.UnitByName[u.Name]; dup {
			c.errorf(u.Pos(), "duplicate program unit name %s (first at %s)", u.Name, prev.Unit.Pos())
			continue
		}
		c.prog.UnitByName[u.Name] = info
		c.prog.Units = append(c.prog.Units, info)
		if u.Kind == ast.ProgramUnit {
			mainCount++
			c.prog.Main = info
		}
	}
	if mainCount == 0 {
		c.errorf(token.Pos{Line: 1, Col: 1}, "no PROGRAM unit")
	} else if mainCount > 1 {
		c.errorf(c.prog.Main.Unit.Pos(), "multiple PROGRAM units")
	}

	// Pass 2: declarations (symbol tables, COMMON layouts, PARAMETERs).
	for _, info := range c.prog.Units {
		c.unit = info
		c.declareUnit(info)
	}
	// Pass 3: bodies (resolution + type checking).
	for _, info := range c.prog.Units {
		c.unit = info
		c.checkBody(info)
	}
}

// ---------------------------------------------------------------------------
// Declarations

func (c *checker) declareUnit(info *UnitInfo) {
	u := info.Unit

	// Formal parameters first; types may be refined by type statements.
	for i, p := range u.Params {
		if _, dup := info.Symbols[p]; dup {
			c.errorf(u.Pos(), "duplicate formal parameter %s in %s", p, u.Name)
			continue
		}
		sym := &Symbol{Name: p, Kind: ParamSym, Type: implicitType(p), ParamIndex: i}
		info.Symbols[p] = sym
		info.Params = append(info.Params, sym)
	}
	// Function result variable: same name as the unit.
	if u.Kind == ast.FunctionUnit {
		rt := u.ResultType
		if rt == ast.NoType {
			rt = implicitType(u.Name)
		}
		sym := &Symbol{Name: u.Name, Kind: ResultSym, Type: rt}
		info.Symbols[u.Name] = sym
		info.Result = sym
	}

	for _, d := range u.Decls {
		switch d := d.(type) {
		case *ast.ImplicitNoneDecl:
			info.implicitNone = true
		case *ast.TypeDecl:
			c.declareTyped(info, d)
		case *ast.DimensionDecl:
			for _, item := range d.Items {
				c.declareVar(info, item, ast.NoType)
			}
		case *ast.CommonDecl:
			c.declareCommon(info, d)
		case *ast.ParameterDecl:
			c.declareParameters(info, d)
		case *ast.DataDecl:
			c.declareData(info, d)
		}
	}

	if info.implicitNone {
		for _, p := range info.Params {
			if p.Type == ast.NoType {
				c.errorf(u.Pos(), "IMPLICIT NONE: parameter %s of %s has no declared type", p.Name, u.Name)
			}
		}
	}
}

// declareTyped handles `INTEGER a, b(10)` style statements.
func (c *checker) declareTyped(info *UnitInfo, d *ast.TypeDecl) {
	for _, item := range d.Items {
		c.declareVar(info, item, d.Type)
	}
}

// declareVar declares or refines one name from a type or DIMENSION
// statement. typ is NoType for DIMENSION.
func (c *checker) declareVar(info *UnitInfo, item *ast.Declarator, typ ast.BaseType) {
	dims := c.foldDims(info, item)
	if sym, exists := info.Symbols[item.Name]; exists {
		// Refinement of an already-declared name (parameter, result, or
		// COMMON member declared earlier).
		if typ != ast.NoType {
			sym.Type = typ
		}
		if len(dims) > 0 {
			if sym.IsArray() {
				c.errorf(item.Pos(), "array %s redeclared", item.Name)
			}
			if sym.Kind == ResultSym {
				c.errorf(item.Pos(), "function result %s cannot be an array", item.Name)
				return
			}
			sym.Dims = dims
			if sym.Kind == GlobalSym && sym.Global != nil {
				sym.Global.Dims = dims
			}
		}
		if sym.Kind == GlobalSym && sym.Global != nil && typ != ast.NoType {
			sym.Global.Type = typ
		}
		return
	}
	t := typ
	if t == ast.NoType {
		t = implicitType(item.Name)
	}
	info.Symbols[item.Name] = &Symbol{Name: item.Name, Kind: LocalSym, Type: t, Dims: dims}
}

func (c *checker) foldDims(info *UnitInfo, item *ast.Declarator) []int64 {
	if len(item.Dims) == 0 {
		return nil
	}
	dims := make([]int64, 0, len(item.Dims))
	for _, e := range item.Dims {
		v, ok := c.evalConstInt(info, e)
		if !ok {
			c.errorf(e.Pos(), "array bound of %s is not a constant integer expression", item.Name)
			v = 1
		}
		if v < 1 {
			c.errorf(e.Pos(), "array bound of %s must be positive, got %d", item.Name, v)
			v = 1
		}
		dims = append(dims, v)
	}
	return dims
}

func (c *checker) declareCommon(info *UnitInfo, d *ast.CommonDecl) {
	layout, seen := c.blocks[d.Block]
	for i, item := range d.Items {
		dims := c.foldDims(info, item)
		t := ast.NoType

		var g *Global
		if seen {
			if i >= len(layout) {
				c.errorf(item.Pos(), "COMMON /%s/ declares %d members here but %d elsewhere", d.Block, len(d.Items), len(layout))
				break
			}
			g = layout[i]
			// Positional agreement: scalar/array kind must match.
			if (len(dims) > 0) != g.IsArray() {
				c.errorf(item.Pos(), "COMMON /%s/ member %d: %s is %s here but %s in the defining unit",
					d.Block, i+1, item.Name, kindWord(len(dims) > 0), kindWord(g.IsArray()))
			}
		} else {
			t = implicitType(item.Name)
			g = &Global{
				ID:    len(c.prog.Globals),
				Block: d.Block,
				Index: i,
				Name:  item.Name,
				Type:  t,
				Dims:  dims,
			}
			c.prog.Globals = append(c.prog.Globals, g)
			layout = append(layout, g)
		}

		if _, dup := info.Symbols[item.Name]; dup {
			c.errorf(item.Pos(), "%s already declared in %s; COMMON members must be fresh names", item.Name, info.Name)
			continue
		}
		sym := &Symbol{Name: item.Name, Kind: GlobalSym, Type: g.Type, Dims: g.Dims, Global: g}
		if !seen {
			sym.Dims = dims
		}
		info.Symbols[item.Name] = sym
		info.CommonVars = append(info.CommonVars, sym)
	}
	if !seen {
		c.blocks[d.Block] = layout
	}
	_ = d.CommonPos
}

func kindWord(isArray bool) string {
	if isArray {
		return "an array"
	}
	return "a scalar"
}

func (c *checker) declareParameters(info *UnitInfo, d *ast.ParameterDecl) {
	for i, name := range d.Names {
		if _, dup := info.Symbols[name]; dup {
			c.errorf(d.Pos(), "PARAMETER %s already declared in %s", name, info.Name)
			continue
		}
		sym := &Symbol{Name: name, Kind: ConstSym, Type: implicitType(name)}
		switch sym.Type {
		case ast.Integer:
			v, ok := c.evalConstInt(info, d.Values[i])
			if !ok {
				c.errorf(d.Values[i].Pos(), "PARAMETER %s value is not a constant integer expression", name)
			}
			sym.ConstInt = v
		default:
			v, ok := c.evalConstReal(info, d.Values[i])
			if !ok {
				c.errorf(d.Values[i].Pos(), "PARAMETER %s value is not a constant expression", name)
			}
			sym.ConstReal = v
		}
		info.Symbols[name] = sym
	}
}

func (c *checker) declareData(info *UnitInfo, d *ast.DataDecl) {
	if info.Unit.Kind != ast.ProgramUnit {
		c.errorf(d.Pos(), "DATA is only supported in the PROGRAM unit (it lowers to entry assignments)")
		return
	}
	for i, name := range d.Names {
		sym, ok := info.Symbols[name]
		if !ok {
			// Implicitly declare the local being initialized.
			if info.implicitNone {
				c.errorf(d.Pos(), "IMPLICIT NONE: %s in DATA has no declared type", name)
				continue
			}
			sym = &Symbol{Name: name, Kind: LocalSym, Type: implicitType(name)}
			info.Symbols[name] = sym
		}
		if sym.IsArray() {
			c.errorf(d.Pos(), "DATA for arrays is not supported (%s)", name)
			continue
		}
		if sym.Kind == ConstSym || sym.Kind == ParamSym {
			c.errorf(d.Pos(), "DATA cannot initialize %s %s", sym.Kind, name)
			continue
		}
		sym.HasInit = true
		switch sym.Type {
		case ast.Integer:
			v, ok := c.evalConstInt(info, d.Values[i])
			if !ok {
				c.errorf(d.Values[i].Pos(), "DATA value for %s is not a constant integer", name)
			}
			sym.InitInt = v
		default:
			v, ok := c.evalConstReal(info, d.Values[i])
			if !ok {
				c.errorf(d.Values[i].Pos(), "DATA value for %s is not a constant", name)
			}
			sym.InitReal = v
		}
	}
}

// ---------------------------------------------------------------------------
// Constant expression evaluation (PARAMETER values, array bounds)

func (c *checker) evalConstInt(info *UnitInfo, e ast.Expr) (int64, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, true
	case *ast.VarRef:
		if len(e.Indexes) != 0 {
			return 0, false
		}
		if sym, ok := info.Symbols[e.Name]; ok && sym.Kind == ConstSym && sym.Type == ast.Integer {
			return sym.ConstInt, true
		}
		return 0, false
	case *ast.UnaryExpr:
		if e.Op != ast.Neg {
			return 0, false
		}
		v, ok := c.evalConstInt(info, e.X)
		return -v, ok
	case *ast.BinaryExpr:
		x, okx := c.evalConstInt(info, e.X)
		y, oky := c.evalConstInt(info, e.Y)
		if !okx || !oky {
			return 0, false
		}
		return FoldIntBinary(e.Op, x, y)
	}
	return 0, false
}

func (c *checker) evalConstReal(info *UnitInfo, e ast.Expr) (float64, bool) {
	switch e := e.(type) {
	case *ast.RealLit:
		return e.Value, true
	case *ast.IntLit:
		return float64(e.Value), true
	case *ast.VarRef:
		if len(e.Indexes) != 0 {
			return 0, false
		}
		if sym, ok := info.Symbols[e.Name]; ok && sym.Kind == ConstSym {
			if sym.Type == ast.Integer {
				return float64(sym.ConstInt), true
			}
			return sym.ConstReal, true
		}
		return 0, false
	case *ast.UnaryExpr:
		if e.Op != ast.Neg {
			return 0, false
		}
		v, ok := c.evalConstReal(info, e.X)
		return -v, ok
	case *ast.BinaryExpr:
		x, okx := c.evalConstReal(info, e.X)
		y, oky := c.evalConstReal(info, e.Y)
		if !okx || !oky {
			return 0, false
		}
		switch e.Op {
		case ast.Add:
			return x + y, true
		case ast.Sub:
			return x - y, true
		case ast.Mul:
			return x * y, true
		case ast.Div:
			if y == 0 {
				return 0, false
			}
			return x / y, true
		}
		return 0, false
	}
	return 0, false
}

// FoldIntBinary evaluates an integer binary operation at compile time.
// It reports failure for division by zero and for negative exponents,
// matching sym.FoldInt, the folding SCCP, value numbering and the
// jump-function evaluator share; both fold powers with sym.Pow.
func FoldIntBinary(op ast.BinaryOp, x, y int64) (int64, bool) {
	switch op {
	case ast.Add:
		return x + y, true
	case ast.Sub:
		return x - y, true
	case ast.Mul:
		return x * y, true
	case ast.Div:
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case ast.Pow:
		return sym.Pow(x, y)
	}
	return 0, false
}
