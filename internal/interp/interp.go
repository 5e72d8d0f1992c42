// Package interp executes lang programs against a simulated memory
// subsystem (memsim) under the paper's fault model: loop iterators and
// parameters are register-resident (control flow is protected by other
// means, Section 2.2), as are the registers a Let binds, while every
// declared scalar and array element lives in vulnerable memory. The checksum
// primitives of the language drive a checksum.Pair, and per-operation
// accounting supports the hardware checksum-unit cost model of Section 6.2.2.
package interp

import (
	"fmt"
	"math"

	"defuse/internal/checksum"
	"defuse/internal/lang"
	"defuse/internal/machine"
	"defuse/telemetry"
)

// OpCounts tallies dynamic operations, separating checksum-instrumentation
// work from program work so the hardware-support estimate can discount it.
type OpCounts struct {
	Loads    uint64 // program loads
	Stores   uint64 // program stores
	Arith    uint64 // arithmetic/intrinsic operations
	Compare  uint64 // comparisons and logical operations
	CsOps    uint64 // add_to_chksm executions (each a scale+combine)
	CsLoads  uint64 // loads performed to feed checksum operations (see checksumRegs)
	CsArith  uint64 // arithmetic inside checksum count expressions
	Branches uint64 // if/while condition evaluations
	Stmts    uint64 // statements executed
}

// Total returns the total dynamic operation count including checksum work.
func (c OpCounts) Total() uint64 {
	return c.Loads + c.Stores + c.Arith + c.Compare + c.CsOps + c.CsLoads + c.CsArith + c.Branches
}

// RuntimeError reports an execution failure (bounds, division by zero, ...).
type RuntimeError struct {
	Pos lang.Pos
	Msg string
}

func (e *RuntimeError) Error() string { return fmt.Sprintf("interp: %s: %s", e.Pos, e.Msg) }

// DetectionError reports that assert_checksums() detected a memory error.
type DetectionError struct {
	Pos lang.Pos
	Err error // the underlying *checksum.MismatchError
}

func (e *DetectionError) Error() string {
	return fmt.Sprintf("interp: %s: %v", e.Pos, e.Err)
}

func (e *DetectionError) Unwrap() error { return e.Err }

// CancelError reports that execution was abandoned because the machine's
// context was cancelled (deadline exceeded or caller shutdown). It unwraps to
// the context error, so errors.Is(err, context.DeadlineExceeded) works and
// recovery's DefaultClassify treats it as terminal rather than as a
// detectable memory fault.
type CancelError struct {
	Pos lang.Pos
	Err error
}

func (e *CancelError) Error() string { return fmt.Sprintf("interp: %s: cancelled: %v", e.Pos, e.Err) }

func (e *CancelError) Unwrap() error { return e.Err }

// Machine executes one program instance: a tree-walking evaluator over the
// shared simulated-machine state.
type Machine struct {
	machine.State

	prog  *lang.Program
	iters map[string]int64
	regs  map[string]value // registers bound by Let statements

	// Counts accumulates dynamic operation counts across Run calls.
	Counts OpCounts

	// maxSteps bounds the number of executed statements (guards against
	// non-converging while loops). Zero means the default of 500M.
	maxSteps uint64

	inChecksum bool
	csRegs     map[string]bool // registers only add_to_chksm statements read
}

// options collects what New's options configure.
type options struct {
	machine.Config
	maxSteps uint64
}

// Option configures a Machine.
type Option func(*options)

// WithChecksumKind selects the checksum operator (default ModAdd).
func WithChecksumKind(k checksum.Kind) Option { return func(o *options) { o.Kind = k } }

// WithMaxSteps bounds statement execution.
func WithMaxSteps(n uint64) Option { return func(o *options) { o.maxSteps = n } }

// WithMetrics publishes dynamic operation counts and verification outcomes
// into r after each Run or epoch.
func WithMetrics(r *telemetry.Registry) Option { return func(o *options) { o.Metrics = r } }

// WithTracer records causally linked spans: a root "run" span per Supervise
// call with per-epoch-attempt, verification, recovery, and WAL children, and
// point spans for injected faults (with bit/word coordinates), verification
// outcomes (verify.ok/mismatch) under the machine's current span (SetSpan).
// A nil tracer costs nothing.
func WithTracer(t *telemetry.Tracer) Option { return func(o *options) { o.Tracer = t } }

// WithBaseOffset shifts every declared array's base address by pad unused
// words, so two machines with different offsets place each logical element
// at a different physical address. The epoch plan's fingerprint covers the
// offset, and a durable run resumes only on the layout that sealed it.
func WithBaseOffset(pad int) Option { return func(o *options) { o.BaseOffset = pad } }

// New builds a machine for prog with the given integer parameter values,
// type-checking the program and allocating all declared variables.
func New(prog *lang.Program, params map[string]int64, opts ...Option) (*Machine, error) {
	if err := lang.Check(prog); err != nil {
		return nil, err
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	st, err := machine.New("interp", o.Config, prog, params)
	if err != nil {
		return nil, err
	}
	m := &Machine{State: st, prog: prog, iters: map[string]int64{}, regs: map[string]value{},
		maxSteps: o.maxSteps, csRegs: checksumRegs(prog)}
	if err := m.Alloc(prog, m.evalInt); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset returns a pooled machine to its post-New state so it can be reused
// for a fresh request: memory zeroed, checksum accumulators re-derived,
// iterators, registers, operation counts, hooks, context, and cached loop
// bounds cleared. The program, parameter bindings, and variable layout are
// preserved — Reset does not re-run initialization, the next user does.
func (m *Machine) Reset() {
	m.State.Reset()
	clear(m.iters)
	clear(m.regs)
	m.Counts = OpCounts{}
	m.inChecksum = false
}

// checksumRegs names the registers that only add_to_chksm statements read.
// A load into one of them is checksum work, as a load inside an add_to_chksm
// is: the instrumenter binds such a register when several folds of one cell
// share a single load.
func checksumRegs(prog *lang.Program) map[string]bool {
	regs := map[string]bool{}
	read := map[string]bool{} // names some other statement reads
	note := func(es ...lang.Expr) {
		for _, e := range es {
			lang.WalkExpr(e, func(x lang.Expr) bool {
				if r, ok := x.(*lang.Ref); ok {
					read[r.Name] = true
				}
				return true
			})
		}
	}
	lang.WalkStmts(prog.Body, func(s lang.Stmt) bool {
		switch x := s.(type) {
		case *lang.Let:
			regs[x.Name] = true
			note(x.Value)
		case *lang.Assign:
			note(x.LHS, x.RHS)
		case *lang.If:
			note(x.Cond)
		case *lang.While:
			note(x.Cond)
		case *lang.For:
			note(x.Lo, x.Hi)
		}
		return true
	})
	for name := range read {
		delete(regs, name)
	}
	return regs
}

// addrOf resolves a variable reference to a memory address.
func (m *Machine) addrOf(r *lang.Ref) (int, error) {
	vi := m.LookupVar(r.Name)
	if vi == nil {
		return 0, &RuntimeError{Pos: r.Pos, Msg: fmt.Sprintf("unknown variable %q", r.Name)}
	}
	addr := int64(0)
	for k, ixExpr := range r.Indices {
		ix, err := m.evalInt(ixExpr)
		if err != nil {
			return 0, err
		}
		if ix < 0 || ix >= vi.Dims[k] {
			return 0, &RuntimeError{Pos: r.Pos, Msg: fmt.Sprintf(
				"index %d out of bounds [0,%d) in dimension %d of %q", ix, vi.Dims[k], k, r.Name)}
		}
		addr = addr*vi.Dims[k] + ix
	}
	return vi.Region.Base + int(addr), nil
}

// value is a runtime value: integer or float.
type value struct {
	isInt bool
	i     int64
	f     float64
}

func intVal(i int64) value     { return value{isInt: true, i: i} }
func floatVal(f float64) value { return value{f: f} }

func (v value) toFloat() float64 {
	if v.isInt {
		return float64(v.i)
	}
	return v.f
}

// bits returns the raw pattern the checksum scheme protects.
func (v value) bits() uint64 {
	if v.isInt {
		return uint64(v.i)
	}
	return math.Float64bits(v.f)
}

// as converts v to an int or float value, as a store to a variable of that
// type does.
func (v value) as(isInt bool) value {
	switch {
	case isInt && !v.isInt:
		return intVal(int64(v.f))
	case !isInt:
		return floatVal(v.toFloat())
	}
	return v
}

func (v value) truthy() bool {
	if v.isInt {
		return v.i != 0
	}
	return v.f != 0
}

// Run executes the program body. It returns a *DetectionError if a checksum
// assertion fired, a *RuntimeError for execution faults, or nil.
func (m *Machine) Run() error {
	err := m.execStmts(m.prog.Body, m.stepBudget())
	m.publishMetrics()
	return err
}

// stepBudget returns the effective statement limit.
func (m *Machine) stepBudget() uint64 {
	if m.maxSteps == 0 {
		return 500_000_000
	}
	return m.maxSteps
}

// publishMetrics exports the cumulative dynamic operation counts as gauges
// (Counts accumulates across Run calls, so gauges rather than counters).
func (m *Machine) publishMetrics() {
	reg := m.Metrics()
	if reg == nil {
		return
	}
	c := m.Counts
	for _, kv := range []struct {
		op string
		v  uint64
	}{
		{"loads", c.Loads}, {"stores", c.Stores}, {"arith", c.Arith},
		{"compare", c.Compare}, {"cs_ops", c.CsOps}, {"cs_loads", c.CsLoads},
		{"cs_arith", c.CsArith}, {"branches", c.Branches}, {"stmts", c.Stmts},
	} {
		reg.Gauge("defuse_interp_ops",
			telemetry.Label{Key: "op", Value: kv.op}).Set(float64(kv.v))
	}
}

func (m *Machine) execStmts(ss []lang.Stmt, max uint64) error {
	for _, s := range ss {
		if err := m.execStmt(s, max); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) execStmt(s lang.Stmt, max uint64) error {
	m.Counts.Stmts++
	if m.Counts.Stmts > max {
		return &RuntimeError{Pos: s.StmtPos(), Msg: fmt.Sprintf("step limit %d exceeded", max)}
	}
	if err := m.Poll(m.Counts.Stmts); err != nil {
		return &CancelError{Pos: s.StmtPos(), Err: err}
	}
	switch x := s.(type) {
	case *lang.Assign:
		return m.execAssign(x)
	case *lang.For:
		lo, err := m.evalInt(x.Lo)
		if err != nil {
			return err
		}
		hi, err := m.evalInt(x.Hi)
		if err != nil {
			return err
		}
		for i := lo; i <= hi; i++ {
			m.iters[x.Iter] = i
			if err := m.execStmts(x.Body, max); err != nil {
				delete(m.iters, x.Iter)
				return err
			}
		}
		delete(m.iters, x.Iter)
		return nil
	case *lang.While:
		for {
			m.Counts.Branches++
			cond, err := m.eval(x.Cond)
			if err != nil {
				return err
			}
			if !cond.truthy() {
				return nil
			}
			if err := m.execStmts(x.Body, max); err != nil {
				return err
			}
		}
	case *lang.If:
		m.Counts.Branches++
		cond, err := m.eval(x.Cond)
		if err != nil {
			return err
		}
		if cond.truthy() {
			return m.execStmts(x.Then, max)
		}
		return m.execStmts(x.Else, max)
	case *lang.AddToChecksum:
		return m.execChecksum(x)
	case *lang.Let:
		m.inChecksum = m.csRegs[x.Name]
		v, err := m.eval(x.Value)
		m.inChecksum = false
		if err != nil {
			return err
		}
		m.regs[x.Name] = v.as(x.Type == lang.TypeInt)
		return nil
	case *lang.AssertChecksums:
		if err := m.VerifyChecksums(); err != nil {
			return &DetectionError{Pos: x.Pos, Err: err}
		}
		return nil
	}
	return &RuntimeError{Pos: s.StmtPos(), Msg: fmt.Sprintf("unknown statement %T", s)}
}

func (m *Machine) execAssign(x *lang.Assign) error {
	rhs, err := m.eval(x.RHS)
	if err != nil {
		return err
	}
	if _, ok := m.regs[x.LHS.Name]; ok && len(x.LHS.Indices) == 0 {
		// An int register, assigned by "=" (lang.Check): no memory access.
		m.regs[x.LHS.Name] = rhs.as(true)
		return nil
	}
	addr, err := m.addrOf(x.LHS)
	if err != nil {
		return err
	}
	vi := m.LookupVar(x.LHS.Name)
	var out value
	if x.Op == lang.OpSet {
		out = rhs
	} else {
		cur := m.loadVar(vi, addr)
		m.Counts.Arith++
		switch x.Op {
		case lang.OpAdd:
			out = numOp(cur, rhs, func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b })
		case lang.OpSub:
			out = numOp(cur, rhs, func(a, b int64) int64 { return a - b }, func(a, b float64) float64 { return a - b })
		case lang.OpMul:
			out = numOp(cur, rhs, func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b })
		case lang.OpDiv:
			if (rhs.isInt && cur.isInt && rhs.i == 0) || (!(rhs.isInt && cur.isInt) && rhs.toFloat() == 0) {
				return &RuntimeError{Pos: x.Pos, Msg: "division by zero"}
			}
			out = numOp(cur, rhs, func(a, b int64) int64 { return a / b }, func(a, b float64) float64 { return a / b })
		}
	}
	m.storeVar(vi, addr, out)
	return nil
}

// loadVar loads and decodes a variable's value.
func (m *Machine) loadVar(vi *machine.Var, addr int) value {
	raw := m.Load(addr)
	if m.inChecksum {
		m.Counts.CsLoads++
	} else {
		m.Counts.Loads++
	}
	if vi.Int {
		return intVal(int64(raw))
	}
	return floatVal(math.Float64frombits(raw))
}

// storeVar encodes and stores a value into a variable.
func (m *Machine) storeVar(vi *machine.Var, addr int, v value) {
	m.Store(addr, v.as(vi.Int).bits())
	m.Counts.Stores++
}

func (m *Machine) execChecksum(x *lang.AddToChecksum) error {
	m.inChecksum = true
	val, err := m.eval(x.Value)
	if err != nil {
		m.inChecksum = false
		return err
	}
	arithBefore := m.Counts.Arith
	cnt, err := m.evalInt(x.Count)
	m.Counts.CsArith += m.Counts.Arith - arithBefore
	m.Counts.Arith = arithBefore
	m.inChecksum = false
	if err != nil {
		return err
	}
	m.Counts.CsOps++
	bits := val.bits()
	// Fold through ScaleFold so the Pair's redundant shadow copies stay in
	// step; writing the exported fields directly would strand the shadows
	// and make every later Scrub report a phantom detector fault.
	switch x.CS {
	case lang.DefCS:
		m.Fold(checksum.AccDef, bits, cnt)
	case lang.UseCS:
		m.Fold(checksum.AccUse, bits, cnt)
	case lang.EDefCS:
		m.Fold(checksum.AccEDef, bits, cnt)
	case lang.EUseCS:
		m.Fold(checksum.AccEUse, bits, cnt)
	}
	return nil
}

func numOp(a, b value, fi func(int64, int64) int64, ff func(float64, float64) float64) value {
	if a.isInt && b.isInt {
		return intVal(fi(a.i, b.i))
	}
	return floatVal(ff(a.toFloat(), b.toFloat()))
}

func boolVal(b bool) value {
	if b {
		return intVal(1)
	}
	return intVal(0)
}

func (m *Machine) eval(e lang.Expr) (value, error) {
	switch x := e.(type) {
	case *lang.IntLit:
		return intVal(x.Val), nil
	case *lang.FloatLit:
		return floatVal(x.Val), nil
	case *lang.Ref:
		if v, ok := m.iters[x.Name]; ok && len(x.Indices) == 0 {
			return intVal(v), nil // register-resident iterator
		}
		if v, ok := m.regs[x.Name]; ok && len(x.Indices) == 0 {
			return v, nil
		}
		if v, ok := m.LookupParam(x.Name); ok && len(x.Indices) == 0 {
			return intVal(v), nil // register-resident parameter
		}
		addr, err := m.addrOf(x)
		if err != nil {
			return value{}, err
		}
		return m.loadVar(m.LookupVar(x.Name), addr), nil
	case *lang.Bin:
		return m.evalBin(x)
	case *lang.Un:
		v, err := m.eval(x.X)
		if err != nil {
			return value{}, err
		}
		m.Counts.Arith++
		if x.Op == lang.UnNot {
			return boolVal(!v.truthy()), nil
		}
		if v.isInt {
			return intVal(-v.i), nil
		}
		return floatVal(-v.f), nil
	case *lang.Call:
		args := make([]value, len(x.Args))
		for i, a := range x.Args {
			v, err := m.eval(a)
			if err != nil {
				return value{}, err
			}
			args[i] = v
		}
		m.Counts.Arith++
		switch x.Name {
		case "sqrt":
			return floatVal(math.Sqrt(args[0].toFloat())), nil
		case "abs":
			if args[0].isInt {
				if args[0].i < 0 {
					return intVal(-args[0].i), nil
				}
				return args[0], nil
			}
			return floatVal(math.Abs(args[0].f)), nil
		case "min":
			return numOp(args[0], args[1], minI, math.Min), nil
		case "max":
			return numOp(args[0], args[1], maxI, math.Max), nil
		}
		return value{}, &RuntimeError{Pos: x.Pos, Msg: "unknown intrinsic " + x.Name}
	}
	return value{}, &RuntimeError{Msg: fmt.Sprintf("unknown expression %T", e)}
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func (m *Machine) evalBin(x *lang.Bin) (value, error) {
	// Short-circuit logical operators.
	if x.Op == lang.BinAnd || x.Op == lang.BinOr {
		l, err := m.eval(x.L)
		if err != nil {
			return value{}, err
		}
		m.Counts.Compare++
		if x.Op == lang.BinAnd && !l.truthy() {
			return boolVal(false), nil
		}
		if x.Op == lang.BinOr && l.truthy() {
			return boolVal(true), nil
		}
		r, err := m.eval(x.R)
		if err != nil {
			return value{}, err
		}
		return boolVal(r.truthy()), nil
	}

	l, err := m.eval(x.L)
	if err != nil {
		return value{}, err
	}
	r, err := m.eval(x.R)
	if err != nil {
		return value{}, err
	}
	if x.Op.IsComparison() {
		m.Counts.Compare++
		if l.isInt && r.isInt {
			return boolVal(cmpI(x.Op, l.i, r.i)), nil
		}
		return boolVal(cmpF(x.Op, l.toFloat(), r.toFloat())), nil
	}
	m.Counts.Arith++
	switch x.Op {
	case lang.BinAdd:
		return numOp(l, r, func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b }), nil
	case lang.BinSub:
		return numOp(l, r, func(a, b int64) int64 { return a - b }, func(a, b float64) float64 { return a - b }), nil
	case lang.BinMul:
		return numOp(l, r, func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b }), nil
	case lang.BinDiv:
		if l.isInt && r.isInt {
			if r.i == 0 {
				return value{}, &RuntimeError{Pos: x.Pos, Msg: "division by zero"}
			}
			return intVal(l.i / r.i), nil
		}
		if r.toFloat() == 0 {
			return value{}, &RuntimeError{Pos: x.Pos, Msg: "division by zero"}
		}
		return floatVal(l.toFloat() / r.toFloat()), nil
	case lang.BinMod:
		if !l.isInt || !r.isInt {
			return value{}, &RuntimeError{Pos: x.Pos, Msg: "% requires integer operands"}
		}
		if r.i == 0 {
			return value{}, &RuntimeError{Pos: x.Pos, Msg: "modulo by zero"}
		}
		return intVal(l.i % r.i), nil
	}
	return value{}, &RuntimeError{Pos: x.Pos, Msg: "unknown operator " + x.Op.String()}
}

func cmpI(op lang.BinOp, a, b int64) bool {
	switch op {
	case lang.BinEq:
		return a == b
	case lang.BinNe:
		return a != b
	case lang.BinLt:
		return a < b
	case lang.BinLe:
		return a <= b
	case lang.BinGt:
		return a > b
	default:
		return a >= b
	}
}

func cmpF(op lang.BinOp, a, b float64) bool {
	switch op {
	case lang.BinEq:
		return a == b
	case lang.BinNe:
		return a != b
	case lang.BinLt:
		return a < b
	case lang.BinLe:
		return a <= b
	case lang.BinGt:
		return a > b
	default:
		return a >= b
	}
}

// evalInt evaluates an expression required to be integral.
func (m *Machine) evalInt(e lang.Expr) (int64, error) {
	v, err := m.eval(e)
	if err != nil {
		return 0, err
	}
	if !v.isInt {
		return 0, &RuntimeError{Pos: e.ExprPos(), Msg: "expected integer value"}
	}
	return v.i, nil
}
