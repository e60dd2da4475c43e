// Package ir defines the intermediate representation the analyses run
// on: a conventional three-address linear IR over basic blocks, plus
// in-place SSA construction (dominators, dominance frontiers, phi
// placement, renaming).
//
// Two design points are load-bearing for the study:
//
//   - Call instructions model FORTRAN by-reference semantics explicitly.
//     A call lists its actual arguments followed by an implicit use of
//     every scalar global, and after SSA construction carries a CallDef
//     value for every scalar variable the callee may modify (per a MOD
//     oracle). Running SSA with the worst-case oracle reproduces the
//     paper's "no MOD information" configuration exactly.
//
//   - Ret instructions use every value that outlives the procedure (the
//     function result, the scalar formals, and the scalar globals), so
//     the SSA renaming records exit values directly. Return jump
//     functions read them off the Ret operands, and dead-code
//     elimination cannot delete a store whose value escapes.
package ir

import (
	"fmt"

	"ipcp/internal/mf/token"
)

// ---------------------------------------------------------------------------
// Types

// Type is the IR-level type of a value or variable.
type Type int

// IR types. Bool is the type of relational/logical results (LOGICAL).
const (
	Int Type = iota
	Real
	Bool
	IntArray
	RealArray
)

func (t Type) String() string {
	switch t {
	case Int:
		return "int"
	case Real:
		return "real"
	case Bool:
		return "bool"
	case IntArray:
		return "int[]"
	case RealArray:
		return "real[]"
	}
	return "?"
}

// IsArray reports whether t is an array type.
func (t Type) IsArray() bool { return t == IntArray || t == RealArray }

// Elem returns the element type of an array type (or t itself).
func (t Type) Elem() Type {
	switch t {
	case IntArray:
		return Int
	case RealArray:
		return Real
	}
	return t
}

// ---------------------------------------------------------------------------
// Program, procedures, variables

// GlobalVar is one scalar or array COMMON member, shared program-wide.
type GlobalVar struct {
	ID    int // dense index; Program.Globals[ID] == this
	Block string
	Name  string // canonical name (from the first declaring unit)
	Type  Type
	Size  int64   // element count for arrays, 1 for scalars
	Dims  []int64 // per-dimension extents for arrays (column-major)
}

func (g *GlobalVar) String() string { return g.Block + "." + g.Name }

// ProcKind distinguishes the program entry point, subroutines, and
// functions.
type ProcKind int

// Procedure kinds.
const (
	MainProc ProcKind = iota
	SubProc
	FuncProc
)

// Program is a whole MiniFortran program in IR form.
type Program struct {
	Procs      []*Proc
	ProcByName map[string]*Proc
	Main       *Proc
	Globals    []*GlobalVar

	// ScalarGlobals lists the globals tracked by the analyses (the
	// non-array ones), in GlobalVar.ID order. Call and Ret instructions
	// reference globals in exactly this order.
	ScalarGlobals []*GlobalVar
}

// Proc is one procedure in IR form.
type Proc struct {
	Name string
	Kind ProcKind
	Prog *Program

	Formals []*Var // in parameter order
	Result  *Var   // function result variable, nil otherwise
	Vars    []*Var // every variable, including formals, globals view, temps

	// GlobalVars holds this procedure's Var view of each scalar global,
	// parallel to Prog.ScalarGlobals.
	GlobalVars []*Var

	Blocks []*Block
	Entry  *Block

	// RetVars lists the variables whose values every Ret instruction
	// uses, in Ret operand order: the function result (if any), then the
	// scalar formals, then the scalar globals (Prog.ScalarGlobals order).
	RetVars []*Var

	// SSA state, filled by BuildSSA. rpo lists the blocks reachable
	// from the entry in reverse postorder.
	ssaBuilt  bool
	nextValID int
	rpo       []*Block

	// EntryValues holds, indexed by Var.ID, each SSA-tracked variable's
	// value at procedure entry (EntryDef for formals and globals,
	// UndefDef for locals), filled by BuildSSA; untracked variables'
	// entries are nil.
	EntryValues []*Value

	// SrcLines is the number of noncomment source lines of the original
	// program unit (used for Table 1).
	SrcLines int

	// ElidedPhis counts the phi instructions a summary-seeded analysis
	// chose not to materialize by skipping this procedure's SSA
	// conversion (the count BuildSSA would have inserted, replayed from
	// the procedure's stored summary). IR size counts include it so
	// pass traces are identical whether or not summaries were reused;
	// it is zero everywhere outside a seeded run.
	ElidedPhis int
}

// VarKind classifies procedure-local variables.
type VarKind int

// Variable kinds.
const (
	FormalVar VarKind = iota
	LocalVar
	GlobalRefVar // this procedure's view of a COMMON member
	TempVar      // compiler temporary (single def, single block)
	ResultVar    // function result
)

func (k VarKind) String() string {
	switch k {
	case FormalVar:
		return "formal"
	case LocalVar:
		return "local"
	case GlobalRefVar:
		return "global"
	case TempVar:
		return "temp"
	case ResultVar:
		return "result"
	}
	return "var"
}

// Var is a variable within one procedure.
type Var struct {
	ID     int // dense per-procedure index; Proc.Vars[ID] == this
	Name   string
	Kind   VarKind
	Type   Type
	Index  int        // FormalVar: 0-based formal position
	Global *GlobalVar // GlobalRefVar: the global this views
	Size   int64      // element count for arrays
	Dims   []int64    // per-dimension extents for arrays (column-major)
}

func (v *Var) String() string { return v.Name }

// Tracked reports whether the variable participates in SSA renaming:
// scalar formals, locals, globals, and results. Arrays and temps do not
// (temps are single-assignment by construction).
func (v *Var) Tracked() bool {
	if v.Type.IsArray() {
		return false
	}
	return v.Kind != TempVar
}

// ---------------------------------------------------------------------------
// Blocks

// Block is a basic block.
type Block struct {
	ID     int // dense per-procedure index; Proc.Blocks[ID] == this
	Instrs []*Instr
	Succs  []*Block
	Preds  []*Block

	// Dominator-tree fields, filled by ComputeDominators.
	Idom     *Block
	DomChild []*Block
	DomFront []*Block
	RPO      int // reverse postorder number
}

func (b *Block) String() string { return fmt.Sprintf("b%d", b.ID) }

// Terminator returns the block's final instruction, or nil for an empty
// block.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if last.Op.IsTerminator() {
		return last
	}
	return nil
}

// ---------------------------------------------------------------------------
// Values (SSA definitions)

// DefKind says how an SSA value came to be defined.
type DefKind int

// SSA definition kinds.
const (
	InstrDef DefKind = iota // defined by a regular instruction (incl. phi)
	EntryDef                // value of a formal or global at procedure entry
	UndefDef                // local read before any assignment
	CallDef                 // redefined by a call (callee may modify it)
)

// Value is one SSA definition of a variable (or a temp).
type Value struct {
	ID   int  // dense per-procedure index, below Proc.NumValues
	Var  *Var // the variable this value is a version of
	Kind DefKind
	Def  *Instr // defining instruction (InstrDef), or the call (CallDef)

	// CallDef bookkeeping: which callee binding produced this value.
	// Exactly one of CalleeFormal >= 0 or CalleeGlobal != nil holds.
	CalleeFormal int // formal index in the callee, -1 otherwise
	CalleeGlobal *GlobalVar

	// Uses lists the instructions that use this value (possibly with
	// duplicates when an instruction uses it twice).
	Uses []*Instr
}

func (v *Value) String() string {
	if v == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s.%d", v.Var.Name, v.ID)
}

// ---------------------------------------------------------------------------
// Constants and operands

// Const is a compile-time constant operand.
type Const struct {
	Type Type
	Int  int64
	Real float64
	Bool bool
}

// IntConst returns an integer constant.
func IntConst(v int64) *Const { return &Const{Type: Int, Int: v} }

// RealConst returns a real constant.
func RealConst(v float64) *Const { return &Const{Type: Real, Real: v} }

// BoolConst returns a logical constant.
func BoolConst(v bool) *Const { return &Const{Type: Bool, Bool: v} }

func (c *Const) String() string {
	switch c.Type {
	case Int:
		return fmt.Sprintf("%d", c.Int)
	case Real:
		return fmt.Sprintf("%g", c.Real)
	case Bool:
		return fmt.Sprintf("%v", c.Bool)
	}
	return "?"
}

// Equal reports whether two constants are identical in type and value.
func (c *Const) Equal(d *Const) bool {
	if c == nil || d == nil {
		return c == d
	}
	if c.Type != d.Type {
		return false
	}
	switch c.Type {
	case Int:
		return c.Int == d.Int
	case Real:
		return c.Real == d.Real
	default:
		return c.Bool == d.Bool
	}
}

// Operand is one argument of an instruction: either a constant or a
// variable use (whose SSA value is filled in by renaming).
type Operand struct {
	Const *Const // non-nil for a constant operand
	Var   *Var   // non-nil for a variable use (arrays stay as Var only)
	Val   *Value // SSA value of the use, filled by BuildSSA

	// Literal marks operands that were literal constants in the source
	// (or PARAMETER constants, which FORTRAN compilers fold at parse
	// time). The literal-constant jump function accepts only these.
	Literal bool

	// Synthetic marks operands that do not correspond to a textual
	// variable reference in the source: the implicit global uses on
	// calls, Ret operands, and the compiler-generated loop-control uses.
	// The substitution counter (the paper's metric) skips them.
	Synthetic bool
}

// ConstOperand returns a constant operand marked as a source literal.
func ConstOperand(c *Const) Operand { return Operand{Const: c, Literal: true} }

// VarOperand returns a variable-use operand.
func VarOperand(v *Var) Operand { return Operand{Var: v} }

// IsConst reports whether the operand is a compile-time constant.
func (o *Operand) IsConst() bool { return o.Const != nil }

func (o Operand) String() string {
	if o.Const != nil {
		return o.Const.String()
	}
	if o.Val != nil {
		return o.Val.String()
	}
	if o.Var != nil {
		return o.Var.Name
	}
	return "<empty>"
}

// ---------------------------------------------------------------------------
// Instructions

// Op is an instruction opcode.
type Op int

// Opcodes.
const (
	OpCopy Op = iota // dst = arg0

	// Unary arithmetic/logical.
	OpNeg
	OpNot
	OpAbs
	OpI2R // int → real conversion
	OpR2I // real → int truncation

	// Binary arithmetic.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpPow
	OpMod

	// Variadic intrinsics.
	OpMin
	OpMax

	// Comparisons (→ Bool).
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Logical.
	OpAnd
	OpOr

	// Memory.
	OpALoad  // dst = arrayVar(args...)
	OpAStore // arrayVar(args[1:]...) = args[0]

	// Procedure interaction.
	OpCall // callee(args[:NumActuals]); args[NumActuals:] are global uses
	OpRead // dst = runtime input (unknowable)
	OpWrite

	// SSA.
	OpPhi // dst = phi(args...), parallel to Block.Preds

	// Terminators.
	OpBr  // if args[0] then Succs[0] else Succs[1]
	OpJmp // Succs[0]
	OpRet // args use the RetVars values

	// OpStop terminates the program (like Ret, it ends a block but uses
	// no escaping values — nothing outlives the program).
	OpStop
)

var opNames = [...]string{
	OpCopy: "copy", OpNeg: "neg", OpNot: "not", OpAbs: "abs",
	OpI2R: "i2r", OpR2I: "r2i",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpPow: "pow", OpMod: "mod",
	OpMin: "min", OpMax: "max",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpAnd: "and", OpOr: "or",
	OpALoad: "aload", OpAStore: "astore",
	OpCall: "call", OpRead: "read", OpWrite: "write",
	OpPhi: "phi",
	OpBr:  "br", OpJmp: "jmp", OpRet: "ret", OpStop: "stop",
}

func (op Op) String() string { return opNames[op] }

// IsTerminator reports whether op ends a basic block.
func (op Op) IsTerminator() bool {
	return op == OpBr || op == OpJmp || op == OpRet || op == OpStop
}

// DefinesScalar reports whether the op writes a scalar variable through
// Instr.Var (and therefore participates in SSA renaming of Var).
func (op Op) DefinesScalar() bool {
	switch op {
	case OpCopy, OpNeg, OpNot, OpAbs, OpI2R, OpR2I,
		OpAdd, OpSub, OpMul, OpDiv, OpPow, OpMod, OpMin, OpMax,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr,
		OpALoad, OpRead, OpPhi:
		return true
	}
	return false
}

// Role classifies what a computation feeds, for the study's
// control-flow constant analysis (§4: "we were most interested in
// discovering constants that affect control flow — loop bounds, loop
// strides, and conditions that control if-then-else statements").
type Role uint8

// Instruction roles.
const (
	RoleNone      Role = iota
	RoleLoopBound      // part of a DO bound or step expression
	RoleCondition      // part of an IF / DO WHILE condition
)

// Instr is one IR instruction.
type Instr struct {
	ID    int
	Op    Op
	Block *Block
	Pos   token.Pos
	Role  Role

	// Args are the instruction's operands. For OpPhi they are parallel
	// to Block.Preds. For OpCall the first NumActuals are the actual
	// arguments and the rest are the implicit scalar-global uses. For
	// OpRet they are parallel to Proc.RetVars.
	Args []Operand

	// Var is the scalar destination variable for defining ops, or the
	// array variable for OpALoad/OpAStore.
	Var *Var

	// Dst is the SSA value defined for Var (or the call result), filled
	// by BuildSSA.
	Dst *Value

	// Call-specific fields.
	Callee     *Proc
	NumActuals int
	// CallDefs holds the values redefined by the call: indexes
	// [0,NumActuals) correspond to by-reference scalar-variable actuals,
	// and [NumActuals, NumActuals+len(ScalarGlobals)) to globals.
	// Entries are nil where the callee cannot modify the binding.
	CallDefs []*Value
}

// ---------------------------------------------------------------------------
// Construction helpers

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{ProcByName: make(map[string]*Proc)}
}

// AddProc appends a procedure to the program.
func (p *Program) AddProc(proc *Proc) {
	proc.Prog = p
	p.Procs = append(p.Procs, proc)
	p.ProcByName[proc.Name] = proc
	if proc.Kind == MainProc {
		p.Main = proc
	}
}

// NewVar creates and registers a variable in the procedure.
func (p *Proc) NewVar(name string, kind VarKind, typ Type) *Var {
	v := &Var{ID: len(p.Vars), Name: name, Kind: kind, Type: typ, Index: -1, Size: 1}
	p.Vars = append(p.Vars, v)
	return v
}

// NewBlock creates and registers an empty basic block.
func (p *Proc) NewBlock() *Block {
	b := &Block{ID: len(p.Blocks)}
	p.Blocks = append(p.Blocks, b)
	return b
}

// AddEdge records a CFG edge from b to s.
func AddEdge(b, s *Block) {
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// Append adds an instruction to the end of the block.
func (b *Block) Append(i *Instr) *Instr {
	i.Block = b
	b.Instrs = append(b.Instrs, i)
	return i
}

// NumValues returns the number of SSA values created so far; every
// Value.ID of the procedure is below it, so analyses can index per-value
// state by ID.
func (p *Proc) NumValues() int { return p.nextValID }

// ReversePostorder returns the blocks reachable from the entry in
// reverse postorder, as BuildSSA numbered them (nil before BuildSSA).
// Unlike ComputeRPO it writes nothing, so analyses that share one SSA
// program can walk it concurrently. The caller must not modify the
// slice.
func (p *Proc) ReversePostorder() []*Block { return p.rpo }
