package interp

import (
	"fmt"
	"math"

	"ipcp/internal/ir"
	"ipcp/internal/sym"
)

// operand evaluates an instruction operand to a cell value. Array
// operands are not values; callers handle them specially.
func (m *machine) operand(f *frame, op ir.Operand) (cell, error) {
	if op.Const != nil {
		switch op.Const.Type {
		case ir.Int:
			return cell{i: op.Const.Int}, nil
		case ir.Real:
			return cell{r: op.Const.Real}, nil
		default:
			return cell{b: op.Const.Bool}, nil
		}
	}
	if op.Var == nil {
		return cell{}, fmt.Errorf("interp: %s: empty operand", f.proc.Name)
	}
	if op.Var.Type.IsArray() {
		return cell{}, fmt.Errorf("interp: %s: array %s used as a value", f.proc.Name, op.Var.Name)
	}
	c := f.vars[op.Var]
	if c == nil {
		return cell{}, fmt.Errorf("interp: %s: unbound variable %s", f.proc.Name, op.Var.Name)
	}
	return *c, nil
}

// operandType reports the scalar type of an operand.
func operandType(op ir.Operand) ir.Type {
	if op.Const != nil {
		return op.Const.Type
	}
	if op.Var != nil {
		return op.Var.Type
	}
	return ir.Int
}

// asReal widens an operand value to float64.
func asReal(t ir.Type, c cell) float64 {
	if t == ir.Real {
		return c.r
	}
	return float64(c.i)
}

// instr executes one non-terminator instruction.
func (m *machine) instr(f *frame, i *ir.Instr) error {
	switch i.Op {
	case ir.OpPhi:
		return fmt.Errorf("interp: %s: phi in pre-SSA program", f.proc.Name)

	case ir.OpCopy:
		v, err := m.operand(f, i.Args[0])
		if err != nil {
			return err
		}
		*f.vars[i.Var] = v
		return nil

	case ir.OpI2R:
		v, err := m.operand(f, i.Args[0])
		if err != nil {
			return err
		}
		f.vars[i.Var].r = float64(v.i)
		return nil

	case ir.OpR2I:
		v, err := m.operand(f, i.Args[0])
		if err != nil {
			return err
		}
		f.vars[i.Var].i = int64(v.r)
		return nil

	case ir.OpNeg, ir.OpAbs, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv,
		ir.OpPow, ir.OpMod, ir.OpMin, ir.OpMax:
		return m.arith(f, i)

	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		return m.compare(f, i)

	case ir.OpNot:
		v, err := m.operand(f, i.Args[0])
		if err != nil {
			return err
		}
		f.vars[i.Var].b = !v.b
		return nil

	case ir.OpAnd, ir.OpOr:
		x, err := m.operand(f, i.Args[0])
		if err != nil {
			return err
		}
		y, err := m.operand(f, i.Args[1])
		if err != nil {
			return err
		}
		if i.Op == ir.OpAnd {
			f.vars[i.Var].b = x.b && y.b
		} else {
			f.vars[i.Var].b = x.b || y.b
		}
		return nil

	case ir.OpALoad:
		arr, idx, err := m.element(f, i.Args[0].Var, i.Args[1:])
		if err != nil {
			return err
		}
		*f.vars[i.Var] = arr[idx]
		return nil

	case ir.OpAStore:
		v, err := m.operand(f, i.Args[0])
		if err != nil {
			return err
		}
		arr, idx, err := m.element(f, i.Var, i.Args[1:])
		if err != nil {
			return err
		}
		arr[idx] = v
		return nil

	case ir.OpRead:
		c := f.vars[i.Var]
		switch i.Var.Type {
		case ir.Int:
			c.i = int64(m.rng.Intn(104) - 4)
		case ir.Real:
			c.r = m.rng.Float64() * 10
		default:
			c.b = m.rng.Intn(2) == 0
		}
		return nil

	case ir.OpWrite:
		for _, a := range i.Args {
			v, err := m.operand(f, a)
			if err != nil {
				return err
			}
			if len(m.res.Output) < 4096 && operandType(a) == ir.Int {
				m.res.Output = append(m.res.Output, v.i)
			}
		}
		return nil

	case ir.OpCall:
		return m.execCall(f, i)
	}
	return fmt.Errorf("interp: %s: unexpected op %v", f.proc.Name, i.Op)
}

// element resolves an array element, applying FORTRAN column-major
// layout with 1-based subscripts.
func (m *machine) element(f *frame, arrVar *ir.Var, subs []ir.Operand) ([]cell, int64, error) {
	arr := f.arrays[arrVar]
	if arr == nil {
		return nil, 0, fmt.Errorf("interp: %s: unbound array %s", f.proc.Name, arrVar.Name)
	}
	idx := int64(0)
	stride := int64(1)
	dims := arrVar.Dims
	for k, s := range subs {
		v, err := m.operand(f, s)
		if err != nil {
			return nil, 0, err
		}
		idx += (v.i - 1) * stride
		if k < len(dims) {
			stride *= dims[k]
		}
	}
	if idx < 0 || idx >= int64(len(arr)) {
		return nil, 0, fmt.Errorf("interp: %s: subscript %d out of range for %s(1..%d)",
			f.proc.Name, idx+1, arrVar.Name, len(arr))
	}
	return arr, idx, nil
}

func (m *machine) arith(f *frame, i *ir.Instr) error {
	// Real arithmetic when the destination is real; integer otherwise,
	// using the analyzer's shared folding rules so interpreter and
	// analysis agree bit-for-bit on integer semantics.
	if i.Var.Type == ir.Real {
		vals := make([]float64, len(i.Args))
		for k, a := range i.Args {
			c, err := m.operand(f, a)
			if err != nil {
				return err
			}
			vals[k] = asReal(operandType(a), c)
		}
		realExp := i.Op == ir.OpPow && operandType(i.Args[1]) == ir.Real
		if i.Op == ir.OpPow && !realExp {
			// realArith multiplies powMuls times inside this one
			// instruction; charging them first lets fuel bound the loop.
			n := powMuls(vals[1])
			if n >= int64(m.fuel) {
				return errFuel
			}
			m.fuel -= int(n)
		}
		r, err := realArith(i.Op, vals, realExp)
		if err != nil {
			return fmt.Errorf("interp: %s: %w", f.proc.Name, err)
		}
		f.vars[i.Var].r = r
		return nil
	}
	ints := make([]int64, len(i.Args))
	for k, a := range i.Args {
		c, err := m.operand(f, a)
		if err != nil {
			return err
		}
		ints[k] = c.i
	}
	r, ok := sym.FoldInt(i.Op, ints)
	if !ok {
		return fmt.Errorf("interp: %s: integer fault in %v%v", f.proc.Name, i.Op, ints)
	}
	f.vars[i.Var].i = r
	return nil
}

// realArith evaluates a REAL operation. realExp says that a power's
// exponent is itself REAL: it may be fractional, so it goes through
// math.Pow rather than the multiply loop an INTEGER exponent takes.
func realArith(op ir.Op, v []float64, realExp bool) (float64, error) {
	switch op {
	case ir.OpNeg:
		return -v[0], nil
	case ir.OpAbs:
		if v[0] < 0 {
			return -v[0], nil
		}
		return v[0], nil
	case ir.OpAdd:
		return v[0] + v[1], nil
	case ir.OpSub:
		return v[0] - v[1], nil
	case ir.OpMul:
		return v[0] * v[1], nil
	case ir.OpDiv:
		if v[1] == 0 {
			return 0, fmt.Errorf("real division by zero")
		}
		return v[0] / v[1], nil
	case ir.OpPow:
		if realExp {
			// NaN for a negative base, +Inf for zero to a negative power.
			r := math.Pow(v[0], v[1])
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return 0, fmt.Errorf("real power fault")
			}
			return r, nil
		}
		r := 1.0
		n := powMuls(v[1])
		for k := int64(0); k < n; k++ {
			r *= v[0]
		}
		if int64(v[1]) < 0 {
			if r == 0 {
				return 0, fmt.Errorf("real power fault")
			}
			r = 1 / r
		}
		return r, nil
	case ir.OpMin:
		r := v[0]
		for _, x := range v[1:] {
			if x < r {
				r = x
			}
		}
		return r, nil
	case ir.OpMax:
		r := v[0]
		for _, x := range v[1:] {
			if x > r {
				r = x
			}
		}
		return r, nil
	}
	return 0, fmt.Errorf("unsupported real op %v", op)
}

// powMuls is the number of multiplications realArith performs to raise
// a REAL to the INTEGER power x: |int64(x)|, or none when that negation
// overflows.
func powMuls(x float64) int64 {
	n := int64(x)
	if n < 0 {
		n = -n
	}
	return max(n, 0)
}

func (m *machine) compare(f *frame, i *ir.Instr) error {
	x, err := m.operand(f, i.Args[0])
	if err != nil {
		return err
	}
	y, err := m.operand(f, i.Args[1])
	if err != nil {
		return err
	}
	xt, yt := operandType(i.Args[0]), operandType(i.Args[1])
	var res bool
	if xt == ir.Real || yt == ir.Real {
		a, b := asReal(xt, x), asReal(yt, y)
		res = floatCmp(i.Op, a, b)
	} else {
		res = intCmp(i.Op, x.i, y.i)
	}
	f.vars[i.Var].b = res
	return nil
}

func intCmp(op ir.Op, a, b int64) bool {
	switch op {
	case ir.OpEq:
		return a == b
	case ir.OpNe:
		return a != b
	case ir.OpLt:
		return a < b
	case ir.OpLe:
		return a <= b
	case ir.OpGt:
		return a > b
	default:
		return a >= b
	}
}

func floatCmp(op ir.Op, a, b float64) bool {
	switch op {
	case ir.OpEq:
		return a == b
	case ir.OpNe:
		return a != b
	case ir.OpLt:
		return a < b
	case ir.OpLe:
		return a <= b
	case ir.OpGt:
		return a > b
	default:
		return a >= b
	}
}

// execCall evaluates the actuals and invokes the callee, honoring
// FORTRAN by-reference semantics for bare variables and arrays.
func (m *machine) execCall(f *frame, call *ir.Instr) error {
	callee := call.Callee
	cells := make([]*cell, call.NumActuals)
	arrays := make([][]cell, call.NumActuals)
	for a := 0; a < call.NumActuals; a++ {
		op := call.Args[a]
		switch {
		case op.Var != nil && op.Var.Type.IsArray():
			arrays[a] = f.arrays[op.Var]
		case op.Var != nil:
			cells[a] = f.vars[op.Var] // by reference (temps included)
		default:
			v, err := m.operand(f, op)
			if err != nil {
				return err
			}
			fresh := v
			cells[a] = &fresh
		}
	}
	result, err := m.callWithResult(callee, cells, arrays)
	if err != nil {
		return err
	}
	if call.Var != nil {
		*f.vars[call.Var] = result
	}
	return nil
}

// callWithResult invokes proc and returns its function result (zero
// cell for subroutines).
func (m *machine) callWithResult(proc *ir.Proc, cells []*cell, arrays [][]cell) (cell, error) {
	f := &frame{
		proc:   proc,
		vars:   make(map[*ir.Var]*cell, len(proc.Vars)),
		arrays: make(map[*ir.Var][]cell),
	}
	for i, v := range proc.Formals {
		if v.Type.IsArray() {
			if i < len(arrays) && arrays[i] != nil {
				f.arrays[v] = arrays[i]
			} else {
				f.arrays[v] = make([]cell, v.Size)
			}
			continue
		}
		if i < len(cells) && cells[i] != nil {
			f.vars[v] = cells[i]
		} else {
			f.vars[v] = &cell{}
		}
	}
	for k, gv := range proc.GlobalVars {
		f.vars[gv] = m.globals[k]
	}
	for _, v := range proc.Vars {
		if _, bound := f.vars[v]; bound {
			continue
		}
		if v.Type.IsArray() {
			if _, bound := f.arrays[v]; bound {
				continue
			}
			if v.Kind == ir.GlobalRefVar && v.Global != nil {
				f.arrays[v] = m.garrays[v.Global]
			} else {
				f.arrays[v] = make([]cell, v.Size)
			}
			continue
		}
		f.vars[v] = &cell{}
	}
	m.observeEntry(proc, f)
	if err := m.exec(f); err != nil {
		return cell{}, err
	}
	if proc.Result != nil {
		return *f.vars[proc.Result], nil
	}
	return cell{}, nil
}
