// Package interp executes lang programs against a simulated memory
// subsystem (memsim) under the paper's fault model: loop iterators and
// parameters are register-resident (control flow is protected by other
// means, Section 2.2), while every scalar and array element lives in
// vulnerable memory. The checksum primitives of the language drive a
// checksum.Pair, and per-operation accounting supports the hardware
// checksum-unit cost model of Section 6.2.2.
package interp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"defuse/internal/addrsum"
	"defuse/internal/checksum"
	"defuse/internal/lang"
	"defuse/internal/memsim"
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
	CsLoads  uint64 // loads performed to feed checksum operations
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

// ctxCheckInterval is how many executed statements pass between context
// polls. Polling every statement would put an atomic load on the hottest
// path; every 256th statement bounds cancellation latency to microseconds
// while keeping the overhead unmeasurable.
const ctxCheckInterval = 256

// varInfo locates a program variable in simulated memory.
type varInfo struct {
	decl   *lang.VarDecl
	region memsim.Region
	dims   []int64 // concrete dimension sizes
}

// Machine executes one program instance.
type Machine struct {
	prog   *lang.Program
	mem    *memsim.Memory
	params map[string]int64
	vars   map[string]*varInfo
	iters  map[string]int64
	pair   *checksum.Pair

	// Counts accumulates dynamic operation counts across Run calls.
	Counts OpCounts

	// MaxSteps bounds the number of executed statements (guards against
	// non-converging while loops). Zero means the default of 500M.
	MaxSteps uint64

	stepHook   func(step uint64)
	inChecksum bool

	ctx      context.Context
	ctxCheck uint64 // statement count at which to poll ctx next

	trace   telemetry.Sink
	metrics *telemetry.Registry
	tracer  *telemetry.Tracer

	// addr, when non-nil, receives the (intent, effective) index pair of
	// every memory access the program performs — the instrumenter's data
	// checksums and the address-stream checksums are emitted side by side.
	addr *addrsum.Tracker
	// basePad shifts every array's base address by allocating unused guard
	// words first; internal/dme runs two machines with different pads so a
	// physical-address fault lands at different logical coordinates.
	basePad int
}

// Option configures a Machine.
type Option func(*Machine)

// WithChecksumKind selects the checksum operator (default ModAdd).
func WithChecksumKind(k checksum.Kind) Option {
	return func(m *Machine) { m.pair = checksum.NewPair(k) }
}

// WithMaxSteps bounds statement execution.
func WithMaxSteps(n uint64) Option {
	return func(m *Machine) { m.MaxSteps = n }
}

// WithTrace streams execution events (fault.injected with bit/word
// coordinates, detection, verify.ok/mismatch) to s.
func WithTrace(s telemetry.Sink) Option {
	return func(m *Machine) { m.trace = s }
}

// WithMetrics publishes dynamic operation counts and verification outcomes
// into r after each Run.
func WithMetrics(r *telemetry.Registry) Option {
	return func(m *Machine) { m.metrics = r }
}

// WithTracer records causally linked spans for supervised execution: a root
// "run" span per Supervise call with per-epoch-attempt, verification,
// recovery, and WAL children. A nil tracer costs nothing.
func WithTracer(t *telemetry.Tracer) Option {
	return func(m *Machine) { m.tracer = t }
}

// WithAddrStream folds every memory access's (intended, effective) address
// pair into at, emitting the PRESAGE-style address-stream checksums
// alongside the program's data checksums. The caller verifies at at its
// chosen boundaries (at.Verify / at.EndEpoch).
func WithAddrStream(at *addrsum.Tracker) Option {
	return func(m *Machine) { m.addr = at }
}

// WithBaseOffset shifts every declared array's base address by pad unused
// words. Two machines running the same program with different offsets are
// structurally decorrelated: a fault at one physical address corrupts
// different logical elements in each, which is what lets internal/dme
// cross-check them.
func WithBaseOffset(pad int) Option {
	return func(m *Machine) { m.basePad = pad }
}

// New builds a machine for prog with the given integer parameter values,
// type-checking the program and allocating all declared variables.
func New(prog *lang.Program, params map[string]int64, opts ...Option) (*Machine, error) {
	if err := lang.Check(prog); err != nil {
		return nil, err
	}
	m := &Machine{
		prog:   prog,
		params: map[string]int64{},
		vars:   map[string]*varInfo{},
		iters:  map[string]int64{},
		pair:   checksum.NewPair(checksum.ModAdd),
		mem:    memsim.New(0),
	}
	for _, p := range prog.Params {
		v, ok := params[p]
		if !ok {
			return nil, fmt.Errorf("interp: parameter %q not supplied", p)
		}
		m.params[p] = v
	}
	for _, opt := range opts {
		opt(m)
	}
	alloc := memsim.NewAllocator(m.mem)
	if m.basePad > 0 {
		alloc.Alloc(m.basePad)
	}
	for _, d := range prog.Decls {
		vi := &varInfo{decl: d}
		size := int64(1)
		for _, dim := range d.Dims {
			dv, err := m.evalInt(dim)
			if err != nil {
				return nil, fmt.Errorf("interp: sizing %q: %w", d.Name, err)
			}
			if dv < 0 {
				return nil, fmt.Errorf("interp: array %q has negative dimension %d", d.Name, dv)
			}
			vi.dims = append(vi.dims, dv)
			size *= dv
		}
		vi.region = alloc.Alloc(int(size))
		m.vars[d.Name] = vi
	}
	if m.addr != nil {
		at := m.addr
		m.mem.SetAccessHook(func(store bool, intent, effective int) {
			if store {
				at.Store(intent, effective)
			} else {
				at.Load(intent, effective)
			}
		})
	}
	if m.trace != nil {
		// Stream every bit flip the harness injects, with both the raw
		// word address and the owning array's coordinates.
		m.mem.SetFaultHook(func(addr, bit int) {
			fields := map[string]any{"addr": addr, "bit": bit}
			if name, idx, ok := m.varAt(addr); ok {
				fields["array"] = name
				fields["index"] = idx
			}
			telemetry.Emit(m.trace, telemetry.EvFaultInjected, fields)
		})
	}
	return m, nil
}

// varAt reverse-maps a word address to the owning variable and flat index.
func (m *Machine) varAt(addr int) (name string, index int, ok bool) {
	for n, vi := range m.vars {
		if addr >= vi.region.Base && addr < vi.region.Base+vi.region.Size {
			return n, addr - vi.region.Base, true
		}
	}
	return "", 0, false
}

// Mem exposes the simulated memory (for fault injection).
func (m *Machine) Mem() *memsim.Memory { return m.mem }

// Pair exposes the checksum accumulators.
func (m *Machine) Pair() *checksum.Pair { return m.pair }

// Addr exposes the address-stream tracker armed via WithAddrStream, or nil.
func (m *Machine) Addr() *addrsum.Tracker { return m.addr }

// SetStepHook installs a callback invoked before each executed statement
// with the running statement count; fault-injection experiments use it to
// corrupt memory at a chosen point.
func (m *Machine) SetStepHook(h func(step uint64)) { m.stepHook = h }

// SetContext arms (or, with nil, disarms) deadline/cancellation propagation:
// execution polls ctx every ctxCheckInterval statements and aborts with a
// *CancelError once it is done. A service uses this to put a hard per-request
// deadline on kernel execution without trusting the kernel to terminate.
func (m *Machine) SetContext(ctx context.Context) {
	m.ctx = ctx
	m.ctxCheck = 0
}

// Reset returns a pooled machine to its post-New state so it can be reused
// for a fresh request: memory zeroed, checksum accumulators re-derived,
// iterators, operation counts, hooks, and context cleared. The program,
// parameter bindings, and variable layout are preserved — Reset does not
// re-run initialization, the next user does.
func (m *Machine) Reset() {
	m.mem.Zero()
	m.mem.SetLoadHook(nil)
	m.mem.SetRedirect(nil)
	m.pair.Reset()
	if m.addr != nil {
		m.addr.Reset()
	}
	for k := range m.iters {
		delete(m.iters, k)
	}
	m.Counts = OpCounts{}
	m.stepHook = nil
	m.inChecksum = false
	m.ctx = nil
	m.ctxCheck = 0
}

// addrOf resolves a variable reference to a memory address.
func (m *Machine) addrOf(r *lang.Ref) (int, error) {
	vi := m.vars[r.Name]
	if vi == nil {
		return 0, &RuntimeError{Pos: r.Pos, Msg: fmt.Sprintf("unknown variable %q", r.Name)}
	}
	addr := int64(0)
	for k, ixExpr := range r.Indices {
		ix, err := m.evalInt(ixExpr)
		if err != nil {
			return 0, err
		}
		if ix < 0 || ix >= vi.dims[k] {
			return 0, &RuntimeError{Pos: r.Pos, Msg: fmt.Sprintf(
				"index %d out of bounds [0,%d) in dimension %d of %q", ix, vi.dims[k], k, r.Name)}
		}
		addr = addr*vi.dims[k] + ix
	}
	return vi.region.Base + int(addr), nil
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
	if m.MaxSteps == 0 {
		return 500_000_000
	}
	return m.MaxSteps
}

// publishMetrics exports the cumulative dynamic operation counts as gauges
// (Counts accumulates across Run calls, so gauges rather than counters).
func (m *Machine) publishMetrics() {
	if m.metrics == nil {
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
		m.metrics.Gauge("defuse_interp_ops",
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
	if m.ctx != nil && m.Counts.Stmts >= m.ctxCheck {
		m.ctxCheck = m.Counts.Stmts + ctxCheckInterval
		if err := m.ctx.Err(); err != nil {
			return &CancelError{Pos: s.StmtPos(), Err: err}
		}
	}
	if m.stepHook != nil {
		m.stepHook(m.Counts.Stmts)
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
	case *lang.AssertChecksums:
		if err := m.pair.Verify(); err != nil {
			m.emitVerify(err)
			return &DetectionError{Pos: x.Pos, Err: err}
		}
		m.emitVerify(nil)
		return nil
	}
	return &RuntimeError{Pos: s.StmtPos(), Msg: fmt.Sprintf("unknown statement %T", s)}
}

// emitVerify streams the outcome of a checksum verification: verify.ok on a
// match, verify.mismatch plus a detection event (with the mismatching pair
// and both values) on a caught memory error.
func (m *Machine) emitVerify(err error) {
	if m.trace == nil && m.metrics == nil {
		return
	}
	if err == nil {
		telemetry.Emit(m.trace, telemetry.EvVerifyOK, map[string]any{
			"def": m.pair.Def, "use": m.pair.Use,
			"e_def": m.pair.EDef, "e_use": m.pair.EUse,
		})
		m.metrics.Counter("defuse_verifications_total",
			telemetry.Label{Key: "result", Value: "ok"}).Inc()
		return
	}
	fields := map[string]any{"error": err.Error()}
	var mm *checksum.MismatchError
	if errors.As(err, &mm) {
		fields["which"] = mm.Which
		fields["expected"] = mm.Expected
		fields["observed"] = mm.Observed
	}
	telemetry.Emit(m.trace, telemetry.EvVerifyMismatch, fields)
	telemetry.Emit(m.trace, telemetry.EvDetection, fields)
	m.metrics.Counter("defuse_verifications_total",
		telemetry.Label{Key: "result", Value: "mismatch"}).Inc()
	m.metrics.Counter("defuse_detections_total").Inc()
}

func (m *Machine) execAssign(x *lang.Assign) error {
	rhs, err := m.eval(x.RHS)
	if err != nil {
		return err
	}
	addr, err := m.addrOf(x.LHS)
	if err != nil {
		return err
	}
	vi := m.vars[x.LHS.Name]
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
	m.storeVar(vi, addr, out, x.Pos)
	return nil
}

// loadVar loads and decodes a variable's value.
func (m *Machine) loadVar(vi *varInfo, addr int) value {
	raw := m.mem.Load(addr)
	if m.inChecksum {
		m.Counts.CsLoads++
	} else {
		m.Counts.Loads++
	}
	if vi.decl.Type == lang.TypeInt {
		return intVal(int64(raw))
	}
	return floatVal(math.Float64frombits(raw))
}

// storeVar encodes and stores a value into a variable.
func (m *Machine) storeVar(vi *varInfo, addr int, v value, pos lang.Pos) {
	var raw uint64
	if vi.decl.Type == lang.TypeInt {
		if v.isInt {
			raw = uint64(v.i)
		} else {
			raw = uint64(int64(v.f))
		}
	} else {
		raw = math.Float64bits(v.toFloat())
	}
	m.mem.Store(addr, raw)
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
		m.pair.ScaleFold(checksum.AccDef, bits, cnt)
	case lang.UseCS:
		m.pair.ScaleFold(checksum.AccUse, bits, cnt)
	case lang.EDefCS:
		m.pair.ScaleFold(checksum.AccEDef, bits, cnt)
	case lang.EUseCS:
		m.pair.ScaleFold(checksum.AccEUse, bits, cnt)
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
		if v, ok := m.params[x.Name]; ok && len(x.Indices) == 0 {
			return intVal(v), nil // register-resident parameter
		}
		addr, err := m.addrOf(x)
		if err != nil {
			return value{}, err
		}
		return m.loadVar(m.vars[x.Name], addr), nil
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
