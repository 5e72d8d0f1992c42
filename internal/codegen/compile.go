package codegen

import (
	"fmt"
	"math"

	"defuse/internal/checksum"
	"defuse/internal/lang"
)

// The closure compiler: lowers a checked program to a tree of small typed Go
// closures — the "plugin-style compiled closure" form of the native backend.
// It removes the interpreter's dynamic dispatch, value boxing, and name
// resolution (all done once here, at compile time) while executing the exact
// same operation sequence: evaluation is left-to-right, operands round
// through float64 at every step (the explicit conversions below also forbid
// the compiler from fusing a multiply-add across statements, which would
// change results on fused-multiply-add hardware), and every memory access
// goes through the Machine so memsim hooks, counters, and fault injection
// behave identically to interpreted execution.

// iop evaluates an integer-typed expression.
type iop func(fr *frame) (int64, error)

// fop evaluates a float-typed expression.
type fop func(fr *frame) (float64, error)

// bop evaluates an expression for truthiness.
type bop func(fr *frame) (bool, error)

// sop executes a statement.
type sop func(fr *frame) error

// aop resolves an lvalue to a word address.
type aop func(fr *frame) (int, error)

// frameVar is a variable's per-machine location, resolved at Fn entry.
type frameVar struct {
	base int
	dims []int64
}

// frame is the per-invocation register file: parameter and variable
// locations resolved against the target machine, plus the loop iterators and
// the Let registers (register-resident, exactly as in the interpreter's fault
// model; a register holds its value's bit pattern), and the checksum deltas
// add_to_chksm folds into, flushed into the machine's Pair before every
// assert_checksums and on return.
type frame struct {
	m      *Machine
	params []int64
	vars   []frameVar
	iters  []int64
	regs   []uint64
	cs     checksum.Folds
}

// Unit is a compiled program.
type Unit struct {
	prog *lang.Program
	fn   Fn
}

// Program returns the compiled program's AST.
func (u *Unit) Program() *lang.Program { return u.prog }

// Fn returns the native entry point.
func (u *Unit) Fn() Fn { return u.fn }

// Run executes the whole program in one shot, the native equivalent of
// interp's Machine.Run.
func (u *Unit) Run(m *Machine) error { return u.fn(m, 0, 1) }

// FnUnit wraps a pre-built entry point (typically a generated function from
// the gennative package) as a Unit, so epoch planning and supervision work
// identically over generated source and compiled closures. prog must be the
// program fn was generated from: epoch plans cut the kernel loop they find
// in it.
func FnUnit(prog *lang.Program, fn Fn) *Unit { return &Unit{prog: prog, fn: fn} }

// Compile lowers a checked program to a compiled closure. The returned
// Unit's Fn runs any epoch of any partition against any Machine built for
// the same program (layout is resolved per call).
func Compile(prog *lang.Program) (*Unit, error) {
	if err := lang.Check(prog); err != nil {
		return nil, err
	}
	c := &compiler{
		env:       newTypeEnv(prog),
		paramSlot: map[string]int{},
		varSlot:   map[string]int{},
		iterSlot:  map[string]int{},
		regSlot:   map[string]int{},
	}
	for i, p := range prog.Params {
		c.paramSlot[p] = i
		c.paramNames = append(c.paramNames, p)
	}
	for i, d := range prog.Decls {
		c.varSlot[d.Name] = i
		c.varNames = append(c.varNames, d.Name)
	}

	pre, loop, post := lang.KernelLoop(prog.Body)
	preOp := c.stmts(pre)
	var loOp, hiOp iop
	var bodyOp, postOp sop
	var anchorSlot int
	var anchorLine, anchorCol int
	if loop != nil {
		// Bounds are compiled outside the iterator's scope, as the
		// interpreter evaluates them before the iterator exists.
		loOp = c.intExpr(loop.Lo)
		hiOp = c.intExpr(loop.Hi)
		anchorSlot = c.pushIter(loop.Iter)
		bodyOp = c.stmts(loop.Body)
		c.popIter(loop.Iter)
		postOp = c.stmts(post)
		anchorLine, anchorCol = loop.Pos.Line, loop.Pos.Col
	}

	paramNames := c.paramNames
	varNames := c.varNames
	nIters, nRegs := c.nIters, c.nRegs
	mkFrame := func(m *Machine) *frame {
		fr := &frame{
			m:      m,
			params: make([]int64, len(paramNames)),
			vars:   make([]frameVar, len(varNames)),
			iters:  make([]int64, nIters),
			regs:   make([]uint64, nRegs),
			cs:     checksum.NewFolds(m.Pair().Kind()),
		}
		for i, n := range paramNames {
			fr.params[i] = m.Param(n)
		}
		for i, n := range varNames {
			base, dims := m.Var(n)
			fr.vars[i] = frameVar{base: base, dims: dims}
		}
		return fr
	}

	fn := func(m *Machine, epoch, epochs int) error {
		if err := CheckEpoch(epoch, epochs); err != nil {
			return err
		}
		fr := mkFrame(m)
		defer m.Pair().Flush(&fr.cs)
		if loop == nil {
			if epoch == 0 {
				return preOp(fr)
			}
			return nil
		}
		if epoch == 0 {
			if err := preOp(fr); err != nil {
				return err
			}
			lo, err := loOp(fr)
			if err != nil {
				return err
			}
			hi, err := hiOp(fr)
			if err != nil {
				return err
			}
			m.SetBounds(lo, hi)
		}
		lo, hi, ok := m.Bounds()
		if !ok {
			return ErrNoBounds(epoch)
		}
		start, end := Slice(lo, hi, epoch, epochs)
		for i := start; i <= end; i++ {
			fr.iters[anchorSlot] = i
			if err := m.Tick(anchorLine, anchorCol); err != nil {
				return err
			}
			if err := bodyOp(fr); err != nil {
				return err
			}
		}
		if epoch == epochs-1 {
			return postOp(fr)
		}
		return nil
	}
	return &Unit{prog: prog, fn: fn}, nil
}

// compiler carries compile-time name resolution: every name becomes a slot
// index, so compiled code never touches a map.
type compiler struct {
	env        *typeEnv
	paramSlot  map[string]int
	paramNames []string
	varSlot    map[string]int
	varNames   []string
	iterSlot   map[string]int // active lexical scope
	nIters     int            // total iterator slots allocated
	regSlot    map[string]int // registers in scope
	nRegs      int            // total register slots allocated
}

func (c *compiler) pushIter(name string) int {
	slot := c.nIters
	c.nIters++
	c.iterSlot[name] = slot
	c.env.iters[name] = true
	return slot
}

func (c *compiler) popIter(name string) {
	delete(c.iterSlot, name)
	delete(c.env.iters, name)
}

// cexpr is a compiled expression with its static type.
type cexpr struct {
	isInt bool
	i     iop
	f     fop
}

// asFloat adapts to float evaluation (interp's value.toFloat).
func (e cexpr) asFloat() fop {
	if !e.isInt {
		return e.f
	}
	ip := e.i
	return func(fr *frame) (float64, error) {
		v, err := ip(fr)
		return float64(v), err
	}
}

// asInt returns the integer evaluator; the expression must be statically
// integral (callers only use it in contexts Check restricts to integers).
func (e cexpr) asInt() iop {
	if !e.isInt {
		panic("codegen: float expression in integer context")
	}
	return e.i
}

// intExpr compiles an expression Check guarantees to be integral.
func (c *compiler) intExpr(e lang.Expr) iop { return c.expr(e).asInt() }

// truthy compiles an expression to its truth value (non-zero).
func (c *compiler) truthy(e lang.Expr) bop {
	x := c.expr(e)
	if x.isInt {
		ip := x.i
		return func(fr *frame) (bool, error) {
			v, err := ip(fr)
			return v != 0, err
		}
	}
	fp := x.f
	return func(fr *frame) (bool, error) {
		v, err := fp(fr)
		return v != 0, err
	}
}

// addr compiles an array (or scalar) reference to an address resolver with
// interp's bounds semantics: per-dimension check against the concrete size,
// row-major flattening, error text identical to the interpreter's.
func (c *compiler) addr(r *lang.Ref) aop {
	slot, ok := c.varSlot[r.Name]
	if !ok {
		panic(fmt.Sprintf("codegen: %s: unknown variable %q", r.Pos, r.Name))
	}
	if len(r.Indices) == 0 {
		return func(fr *frame) (int, error) {
			return fr.vars[slot].base, nil
		}
	}
	ixOps := make([]iop, len(r.Indices))
	for k, ixExpr := range r.Indices {
		ixOps[k] = c.intExpr(ixExpr)
	}
	name := r.Name
	line, col := r.Pos.Line, r.Pos.Col
	return func(fr *frame) (int, error) {
		vs := &fr.vars[slot]
		addr := int64(0)
		for k, ixOp := range ixOps {
			ix, err := ixOp(fr)
			if err != nil {
				return 0, err
			}
			if ix < 0 || ix >= vs.dims[k] {
				return 0, fr.m.OOB(ix, vs.dims[k], k, name, line, col)
			}
			addr = addr*vs.dims[k] + ix
		}
		return vs.base + int(addr), nil
	}
}

// expr compiles an expression to its statically typed evaluator.
func (c *compiler) expr(e lang.Expr) cexpr {
	switch x := e.(type) {
	case *lang.IntLit:
		v := x.Val
		return cexpr{isInt: true, i: func(*frame) (int64, error) { return v, nil }}
	case *lang.FloatLit:
		v := x.Val
		return cexpr{f: func(*frame) (float64, error) { return v, nil }}
	case *lang.Ref:
		return c.ref(x)
	case *lang.Bin:
		return c.bin(x)
	case *lang.Un:
		return c.un(x)
	case *lang.Call:
		return c.call(x)
	default:
		panic(fmt.Sprintf("codegen: unknown expression %T", e))
	}
}

// ref compiles a name read with interp's resolution order: live iterator,
// then register, then parameter (all register-resident), then
// memory-resident variable.
func (c *compiler) ref(x *lang.Ref) cexpr {
	if slot, ok := c.iterSlot[x.Name]; ok && len(x.Indices) == 0 {
		return cexpr{isInt: true, i: func(fr *frame) (int64, error) { return fr.iters[slot], nil }}
	}
	if slot, ok := c.regSlot[x.Name]; ok && len(x.Indices) == 0 {
		if c.env.regs[x.Name] {
			return cexpr{isInt: true, i: func(fr *frame) (int64, error) { return int64(fr.regs[slot]), nil }}
		}
		return cexpr{f: func(fr *frame) (float64, error) { return math.Float64frombits(fr.regs[slot]), nil }}
	}
	if slot, ok := c.paramSlot[x.Name]; ok && len(x.Indices) == 0 {
		return cexpr{isInt: true, i: func(fr *frame) (int64, error) { return fr.params[slot], nil }}
	}
	ap := c.addr(x)
	if c.env.vars[x.Name] { // int variable
		return cexpr{isInt: true, i: func(fr *frame) (int64, error) {
			a, err := ap(fr)
			if err != nil {
				return 0, err
			}
			return int64(fr.m.Load(a)), nil
		}}
	}
	return cexpr{f: func(fr *frame) (float64, error) {
		a, err := ap(fr)
		if err != nil {
			return 0, err
		}
		return fr.m.LoadF(a), nil
	}}
}

func (c *compiler) un(x *lang.Un) cexpr {
	if x.Op == lang.UnNot {
		tp := c.truthy(x.X)
		return cexpr{isInt: true, i: func(fr *frame) (int64, error) {
			v, err := tp(fr)
			if err != nil {
				return 0, err
			}
			return B2I(!v), nil
		}}
	}
	op := c.expr(x.X)
	if op.isInt {
		ip := op.i
		return cexpr{isInt: true, i: func(fr *frame) (int64, error) {
			v, err := ip(fr)
			return -v, err
		}}
	}
	fp := op.f
	return cexpr{f: func(fr *frame) (float64, error) {
		v, err := fp(fr)
		return float64(-v), err
	}}
}

func (c *compiler) bin(x *lang.Bin) cexpr {
	// Short-circuit logical operators: the right operand only evaluates
	// when the left doesn't decide.
	if x.Op == lang.BinAnd || x.Op == lang.BinOr {
		lt := c.truthy(x.L)
		rt := c.truthy(x.R)
		and := x.Op == lang.BinAnd
		return cexpr{isInt: true, i: func(fr *frame) (int64, error) {
			l, err := lt(fr)
			if err != nil {
				return 0, err
			}
			if and && !l {
				return 0, nil
			}
			if !and && l {
				return 1, nil
			}
			r, err := rt(fr)
			if err != nil {
				return 0, err
			}
			return B2I(r), nil
		}}
	}

	l := c.expr(x.L)
	r := c.expr(x.R)
	bothInt := l.isInt && r.isInt

	if x.Op.IsComparison() {
		if bothInt {
			li, ri := l.i, r.i
			cmp := intCmp(x.Op)
			return cexpr{isInt: true, i: func(fr *frame) (int64, error) {
				a, err := li(fr)
				if err != nil {
					return 0, err
				}
				b, err := ri(fr)
				if err != nil {
					return 0, err
				}
				return B2I(cmp(a, b)), nil
			}}
		}
		lf, rf := l.asFloat(), r.asFloat()
		cmp := floatCmp(x.Op)
		return cexpr{isInt: true, i: func(fr *frame) (int64, error) {
			a, err := lf(fr)
			if err != nil {
				return 0, err
			}
			b, err := rf(fr)
			if err != nil {
				return 0, err
			}
			return B2I(cmp(a, b)), nil
		}}
	}

	if x.Op == lang.BinMod {
		if bothInt {
			li, ri := l.i, r.i
			line, col := x.Pos.Line, x.Pos.Col
			return cexpr{isInt: true, i: func(fr *frame) (int64, error) {
				a, err := li(fr)
				if err != nil {
					return 0, err
				}
				b, err := ri(fr)
				if err != nil {
					return 0, err
				}
				if b == 0 {
					return 0, fr.m.ModZero(line, col)
				}
				return a % b, nil
			}}
		}
		// Float operand: the interpreter evaluates both operands, then
		// rejects the operator. Preserve that order (the operands may fault
		// first, e.g. on a bad subscript).
		lf, rf := l.asFloat(), r.asFloat()
		line, col := x.Pos.Line, x.Pos.Col
		return cexpr{isInt: true, i: func(fr *frame) (int64, error) {
			if _, err := lf(fr); err != nil {
				return 0, err
			}
			if _, err := rf(fr); err != nil {
				return 0, err
			}
			return 0, fr.m.ModFloat(line, col)
		}}
	}

	if bothInt {
		li, ri := l.i, r.i
		switch x.Op {
		case lang.BinAdd:
			return cexpr{isInt: true, i: intBin(li, ri, func(a, b int64) int64 { return a + b })}
		case lang.BinSub:
			return cexpr{isInt: true, i: intBin(li, ri, func(a, b int64) int64 { return a - b })}
		case lang.BinMul:
			return cexpr{isInt: true, i: intBin(li, ri, func(a, b int64) int64 { return a * b })}
		default: // BinDiv
			line, col := x.Pos.Line, x.Pos.Col
			return cexpr{isInt: true, i: func(fr *frame) (int64, error) {
				a, err := li(fr)
				if err != nil {
					return 0, err
				}
				b, err := ri(fr)
				if err != nil {
					return 0, err
				}
				if b == 0 {
					return 0, fr.m.DivZero(line, col)
				}
				return a / b, nil
			}}
		}
	}

	lf, rf := l.asFloat(), r.asFloat()
	switch x.Op {
	case lang.BinAdd:
		return cexpr{f: floatBin(lf, rf, func(a, b float64) float64 { return float64(a + b) })}
	case lang.BinSub:
		return cexpr{f: floatBin(lf, rf, func(a, b float64) float64 { return float64(a - b) })}
	case lang.BinMul:
		return cexpr{f: floatBin(lf, rf, func(a, b float64) float64 { return float64(a * b) })}
	default: // BinDiv
		line, col := x.Pos.Line, x.Pos.Col
		return cexpr{f: func(fr *frame) (float64, error) {
			a, err := lf(fr)
			if err != nil {
				return 0, err
			}
			b, err := rf(fr)
			if err != nil {
				return 0, err
			}
			if b == 0 {
				return 0, fr.m.DivZero(line, col)
			}
			return float64(a / b), nil
		}}
	}
}

func (c *compiler) call(x *lang.Call) cexpr {
	args := make([]cexpr, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.expr(a)
	}
	switch x.Name {
	case "sqrt":
		af := args[0].asFloat()
		return cexpr{f: func(fr *frame) (float64, error) {
			v, err := af(fr)
			if err != nil {
				return 0, err
			}
			return float64(math.Sqrt(v)), nil
		}}
	case "abs":
		if args[0].isInt {
			ai := args[0].i
			return cexpr{isInt: true, i: func(fr *frame) (int64, error) {
				v, err := ai(fr)
				return AbsI(v), err
			}}
		}
		af := args[0].f
		return cexpr{f: func(fr *frame) (float64, error) {
			v, err := af(fr)
			return math.Abs(v), err
		}}
	case "min", "max":
		if args[0].isInt && args[1].isInt {
			fi := MinI
			if x.Name == "max" {
				fi = MaxI
			}
			return cexpr{isInt: true, i: intBin(args[0].i, args[1].i, fi)}
		}
		ff := math.Min
		if x.Name == "max" {
			ff = math.Max
		}
		return cexpr{f: floatBin(args[0].asFloat(), args[1].asFloat(),
			func(a, b float64) float64 { return float64(ff(a, b)) })}
	default:
		panic(fmt.Sprintf("codegen: %s: unknown intrinsic %s", x.Pos, x.Name))
	}
}

func intBin(l, r iop, op func(int64, int64) int64) iop {
	return func(fr *frame) (int64, error) {
		a, err := l(fr)
		if err != nil {
			return 0, err
		}
		b, err := r(fr)
		if err != nil {
			return 0, err
		}
		return op(a, b), nil
	}
}

func floatBin(l, r fop, op func(float64, float64) float64) fop {
	return func(fr *frame) (float64, error) {
		a, err := l(fr)
		if err != nil {
			return 0, err
		}
		b, err := r(fr)
		if err != nil {
			return 0, err
		}
		return op(a, b), nil
	}
}

func intCmp(op lang.BinOp) func(a, b int64) bool {
	switch op {
	case lang.BinEq:
		return func(a, b int64) bool { return a == b }
	case lang.BinNe:
		return func(a, b int64) bool { return a != b }
	case lang.BinLt:
		return func(a, b int64) bool { return a < b }
	case lang.BinLe:
		return func(a, b int64) bool { return a <= b }
	case lang.BinGt:
		return func(a, b int64) bool { return a > b }
	default:
		return func(a, b int64) bool { return a >= b }
	}
}

func floatCmp(op lang.BinOp) func(a, b float64) bool {
	switch op {
	case lang.BinEq:
		return func(a, b float64) bool { return a == b }
	case lang.BinNe:
		return func(a, b float64) bool { return a != b }
	case lang.BinLt:
		return func(a, b float64) bool { return a < b }
	case lang.BinLe:
		return func(a, b float64) bool { return a <= b }
	case lang.BinGt:
		return func(a, b float64) bool { return a > b }
	default:
		return func(a, b float64) bool { return a >= b }
	}
}

// stmts compiles a statement list to one sequenced op. A register a Let in
// the list binds goes out of scope at the list's end.
func (c *compiler) stmts(ss []lang.Stmt) sop {
	ops := make([]sop, len(ss))
	for i, s := range ss {
		ops[i] = c.stmt(s)
	}
	for _, s := range ss {
		if l, ok := s.(*lang.Let); ok {
			delete(c.regSlot, l.Name)
			delete(c.env.regs, l.Name)
		}
	}
	return func(fr *frame) error {
		for _, op := range ops {
			if err := op(fr); err != nil {
				return err
			}
		}
		return nil
	}
}

func (c *compiler) stmt(s lang.Stmt) sop {
	switch x := s.(type) {
	case *lang.Assign:
		return c.assign(x)
	case *lang.For:
		lo := c.intExpr(x.Lo)
		hi := c.intExpr(x.Hi)
		slot := c.pushIter(x.Iter)
		body := c.stmts(x.Body)
		c.popIter(x.Iter)
		line, col := x.Pos.Line, x.Pos.Col
		return func(fr *frame) error {
			l, err := lo(fr)
			if err != nil {
				return err
			}
			h, err := hi(fr)
			if err != nil {
				return err
			}
			for i := l; i <= h; i++ {
				fr.iters[slot] = i
				if err := fr.m.Tick(line, col); err != nil {
					return err
				}
				if err := body(fr); err != nil {
					return err
				}
			}
			return nil
		}
	case *lang.While:
		cond := c.truthy(x.Cond)
		body := c.stmts(x.Body)
		line, col := x.Pos.Line, x.Pos.Col
		return func(fr *frame) error {
			for {
				// Tick per condition check: the budget and cancellation
				// polls must fire even for an empty or non-converging body.
				if err := fr.m.Tick(line, col); err != nil {
					return err
				}
				v, err := cond(fr)
				if err != nil {
					return err
				}
				if !v {
					return nil
				}
				if err := body(fr); err != nil {
					return err
				}
			}
		}
	case *lang.If:
		cond := c.truthy(x.Cond)
		then := c.stmts(x.Then)
		els := c.stmts(x.Else)
		return func(fr *frame) error {
			v, err := cond(fr)
			if err != nil {
				return err
			}
			if v {
				return then(fr)
			}
			return els(fr)
		}
	case *lang.AddToChecksum:
		return c.addToChecksum(x)
	case *lang.Let:
		return c.let(x)
	case *lang.AssertChecksums:
		line, col := x.Pos.Line, x.Pos.Col
		return func(fr *frame) error {
			fr.m.Pair().Flush(&fr.cs)
			return fr.m.Assert(line, col)
		}
	default:
		panic(fmt.Sprintf("codegen: unknown statement %T", s))
	}
}

// accOf maps a source checksum name to its Pair accumulator.
func accOf(cs lang.CSName) checksum.Acc {
	switch cs {
	case lang.DefCS:
		return checksum.AccDef
	case lang.UseCS:
		return checksum.AccUse
	case lang.EDefCS:
		return checksum.AccEDef
	default:
		return checksum.AccEUse
	}
}

func (c *compiler) addToChecksum(x *lang.AddToChecksum) sop {
	val := c.expr(x.Value)
	acc := accOf(x.CS)
	cntX := c.expr(x.Count)
	if !cntX.isInt {
		// The interpreter evaluates the value and the count, then rejects
		// the non-integral count at the count's position.
		vf := val.asFloat()
		cf := cntX.f
		pos := x.Count.ExprPos()
		line, col := pos.Line, pos.Col
		return func(fr *frame) error {
			if _, err := vf(fr); err != nil {
				return err
			}
			if _, err := cf(fr); err != nil {
				return err
			}
			return fr.m.IntExpected(line, col)
		}
	}
	cnt := cntX.i
	if val.isInt {
		vi := val.i
		return func(fr *frame) error {
			v, err := vi(fr)
			if err != nil {
				return err
			}
			n, err := cnt(fr)
			if err != nil {
				return err
			}
			fr.cs.Fold(acc, uint64(v), n)
			return nil
		}
	}
	vf := val.f
	return func(fr *frame) error {
		v, err := vf(fr)
		if err != nil {
			return err
		}
		n, err := cnt(fr)
		if err != nil {
			return err
		}
		fr.cs.Fold(acc, math.Float64bits(v), n)
		return nil
	}
}

// let compiles a register binding: the value, converted to the register's
// type as a store would convert it, lands in the register's frame slot.
func (c *compiler) let(x *lang.Let) sop {
	val := c.expr(x.Value)
	slot := c.nRegs
	c.nRegs++
	c.regSlot[x.Name] = slot
	isInt := x.Type == lang.TypeInt
	c.env.regs[x.Name] = isInt
	switch {
	case isInt && val.isInt:
		vi := val.i
		return func(fr *frame) error {
			v, err := vi(fr)
			fr.regs[slot] = uint64(v)
			return err
		}
	case isInt:
		vf := val.f
		return func(fr *frame) error {
			v, err := vf(fr)
			fr.regs[slot] = uint64(int64(v))
			return err
		}
	}
	vf := val.asFloat()
	return func(fr *frame) error {
		v, err := vf(fr)
		fr.regs[slot] = math.Float64bits(v)
		return err
	}
}

// assign compiles "lhs op= rhs" with the interpreter's exact order: RHS
// first, then the LHS address, then (for compound ops) the current value,
// the zero check, the operation, and the store with the variable's type
// conversion.
func (c *compiler) assign(x *lang.Assign) sop {
	rhs := c.expr(x.RHS)
	ap := c.addr(x.LHS)
	varInt := c.env.vars[x.LHS.Name]
	line, col := x.Pos.Line, x.Pos.Col

	if x.Op == lang.OpSet {
		if varInt {
			if rhs.isInt {
				ri := rhs.i
				return func(fr *frame) error {
					v, err := ri(fr)
					if err != nil {
						return err
					}
					a, err := ap(fr)
					if err != nil {
						return err
					}
					fr.m.Store(a, uint64(v))
					return nil
				}
			}
			rf := rhs.f
			return func(fr *frame) error {
				v, err := rf(fr)
				if err != nil {
					return err
				}
				a, err := ap(fr)
				if err != nil {
					return err
				}
				fr.m.Store(a, uint64(int64(v)))
				return nil
			}
		}
		rf := rhs.asFloat()
		return func(fr *frame) error {
			v, err := rf(fr)
			if err != nil {
				return err
			}
			a, err := ap(fr)
			if err != nil {
				return err
			}
			fr.m.StoreF(a, v)
			return nil
		}
	}

	// Compound assignment. The result type follows numOp: integer iff both
	// the current value (the variable's type) and the RHS are integers.
	if varInt && rhs.isInt {
		ri := rhs.i
		var op func(a, b int64) int64
		switch x.Op {
		case lang.OpAdd:
			op = func(a, b int64) int64 { return a + b }
		case lang.OpSub:
			op = func(a, b int64) int64 { return a - b }
		case lang.OpMul:
			op = func(a, b int64) int64 { return a * b }
		}
		isDiv := x.Op == lang.OpDiv
		return func(fr *frame) error {
			v, err := ri(fr)
			if err != nil {
				return err
			}
			a, err := ap(fr)
			if err != nil {
				return err
			}
			cur := int64(fr.m.Load(a))
			var out int64
			if isDiv {
				if v == 0 {
					return fr.m.DivZero(line, col)
				}
				out = cur / v
			} else {
				out = op(cur, v)
			}
			fr.m.Store(a, uint64(out))
			return nil
		}
	}

	// Float result: the current value and RHS promote to float; an integer
	// variable truncates the float result back on store.
	rf := rhs.asFloat()
	var fpOp func(a, b float64) float64
	switch x.Op {
	case lang.OpAdd:
		fpOp = func(a, b float64) float64 { return float64(a + b) }
	case lang.OpSub:
		fpOp = func(a, b float64) float64 { return float64(a - b) }
	case lang.OpMul:
		fpOp = func(a, b float64) float64 { return float64(a * b) }
	}
	isDiv := x.Op == lang.OpDiv
	return func(fr *frame) error {
		v, err := rf(fr)
		if err != nil {
			return err
		}
		a, err := ap(fr)
		if err != nil {
			return err
		}
		var cur float64
		if varInt {
			cur = float64(int64(fr.m.Load(a)))
		} else {
			cur = fr.m.LoadF(a)
		}
		var out float64
		if isDiv {
			if v == 0 {
				return fr.m.DivZero(line, col)
			}
			out = float64(cur / v)
		} else {
			out = fpOp(cur, v)
		}
		if varInt {
			fr.m.Store(a, uint64(int64(out)))
		} else {
			fr.m.StoreF(a, out)
		}
		return nil
	}
}
