package codegen

import (
	"context"
	"errors"
	"fmt"
	"math"

	"defuse/internal/checksum"
	"defuse/internal/lang"
	"defuse/internal/memsim"
	"defuse/telemetry"
)

// tickCheckInterval is how many loop-iteration ticks pass between context
// polls, mirroring interp's per-statement interval. Native code ticks once
// per loop iteration instead of once per statement, so cancellation latency
// is a few hundred iterations either way.
const tickCheckInterval = 256

// VarSpec declares one program variable for machine construction: generated
// code computes the concrete dimension sizes from the parameters and passes
// them here, reproducing the interpreter's layout without carrying the AST.
type VarSpec struct {
	Name string
	// Int marks an int-typed variable (default float, as in lang).
	Int bool
	// Dims are the concrete dimension sizes; empty for scalars.
	Dims []int64
}

// varInfo locates a variable in simulated memory.
type varInfo struct {
	region memsim.Region
	dims   []int64
	isInt  bool
}

// Machine is the native backend's execution state: the same simulated
// memory, checksum pair, and telemetry wiring as interp.Machine, without the
// tree-walking interpreter on top. Compiled closures and generated code run
// against it through the Fn ABI.
type Machine struct {
	mem    *memsim.Memory
	pair   *checksum.Pair
	params map[string]int64
	vars   map[string]*varInfo
	order  []string

	// MaxTicks bounds the number of loop-iteration ticks (guards against
	// non-converging while loops). Zero means the default of 500M.
	MaxTicks uint64

	ticks    uint64
	stepHook func(step uint64)

	ctx      context.Context
	ctxCheck uint64

	// Cached outermost-loop bounds, evaluated when epoch 0 executes (they
	// may depend on scalars the prologue computes) — the native analogue of
	// interp.EpochPlan's lo/hi/haveBounds.
	lo, hi     int64
	haveBounds bool

	trace   telemetry.Sink
	metrics *telemetry.Registry
	tracer  *telemetry.Tracer

	basePad int
}

// Option configures a Machine.
type Option func(*Machine)

// WithChecksumKind selects the checksum operator (default ModAdd).
func WithChecksumKind(k checksum.Kind) Option {
	return func(m *Machine) { m.pair = checksum.NewPair(k) }
}

// WithMaxTicks bounds loop-iteration execution.
func WithMaxTicks(n uint64) Option {
	return func(m *Machine) { m.MaxTicks = n }
}

// WithTrace streams execution events (fault.injected, verify.ok/mismatch,
// detection) to s, mirroring interp.WithTrace.
func WithTrace(s telemetry.Sink) Option {
	return func(m *Machine) { m.trace = s }
}

// WithMetrics publishes verification outcomes into r.
func WithMetrics(r *telemetry.Registry) Option {
	return func(m *Machine) { m.metrics = r }
}

// WithTracer records causally linked spans for supervised execution.
func WithTracer(t *telemetry.Tracer) Option {
	return func(m *Machine) { m.tracer = t }
}

// WithBaseOffset shifts every declared variable's base address by pad unused
// words, mirroring interp.WithBaseOffset so decorrelated layouts carry
// across backends.
func WithBaseOffset(pad int) Option {
	return func(m *Machine) { m.basePad = pad }
}

// NewMachine builds a machine from concrete variable specs, allocating the
// variables in declaration order exactly as interp.New does, so a word
// address in one backend names the same logical array element in the other.
func NewMachine(params map[string]int64, specs []VarSpec, opts ...Option) (*Machine, error) {
	m := &Machine{
		params: map[string]int64{},
		vars:   map[string]*varInfo{},
		pair:   checksum.NewPair(checksum.ModAdd),
		mem:    memsim.New(0),
	}
	for k, v := range params {
		m.params[k] = v
	}
	for _, opt := range opts {
		opt(m)
	}
	alloc := memsim.NewAllocator(m.mem)
	if m.basePad > 0 {
		alloc.Alloc(m.basePad)
	}
	for _, sp := range specs {
		if m.vars[sp.Name] != nil {
			return nil, fmt.Errorf("codegen: duplicate variable %q", sp.Name)
		}
		size := int64(1)
		for _, d := range sp.Dims {
			if d < 0 {
				return nil, fmt.Errorf("codegen: array %q has negative dimension %d", sp.Name, d)
			}
			size *= d
		}
		vi := &varInfo{dims: sp.Dims, isInt: sp.Int}
		vi.region = alloc.Alloc(int(size))
		m.vars[sp.Name] = vi
		m.order = append(m.order, sp.Name)
	}
	if m.trace != nil {
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

// MachineFor builds a machine for a checked program, evaluating the
// declaration dimensions from the parameters — the closure-backend analogue
// of interp.New's allocation pass.
func MachineFor(prog *lang.Program, params map[string]int64, opts ...Option) (*Machine, error) {
	if err := lang.Check(prog); err != nil {
		return nil, err
	}
	bound := map[string]int64{}
	for _, p := range prog.Params {
		v, ok := params[p]
		if !ok {
			return nil, fmt.Errorf("codegen: parameter %q not supplied", p)
		}
		bound[p] = v
	}
	specs := make([]VarSpec, 0, len(prog.Decls))
	for _, d := range prog.Decls {
		sp := VarSpec{Name: d.Name, Int: d.Type == lang.TypeInt}
		for _, dim := range d.Dims {
			dv, err := evalConstInt(dim, bound)
			if err != nil {
				return nil, fmt.Errorf("codegen: sizing %q: %w", d.Name, err)
			}
			sp.Dims = append(sp.Dims, dv)
		}
		specs = append(specs, sp)
	}
	return NewMachine(bound, specs, opts...)
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

// SetStepHook installs a callback invoked on every loop-iteration tick with
// the running tick count; fault-injection experiments use it to corrupt
// memory at a chosen point.
func (m *Machine) SetStepHook(h func(step uint64)) { m.stepHook = h }

// SetContext arms (or, with nil, disarms) deadline/cancellation propagation:
// execution polls ctx every tickCheckInterval loop iterations and aborts
// with a *CancelError once it is done.
func (m *Machine) SetContext(ctx context.Context) {
	m.ctx = ctx
	m.ctxCheck = 0
}

// Reset returns a pooled machine to its post-construction state: memory
// zeroed, checksum accumulators re-derived, tick count, hooks, context, and
// cached loop bounds cleared. The parameter bindings and variable layout are
// preserved.
func (m *Machine) Reset() {
	m.mem.Zero()
	m.mem.SetLoadHook(nil)
	m.mem.SetRedirect(nil)
	m.pair.Reset()
	m.ticks = 0
	m.stepHook = nil
	m.ctx = nil
	m.ctxCheck = 0
	m.lo, m.hi, m.haveBounds = 0, 0, false
}

// Param returns a parameter's value. Generated code binds parameters once at
// function entry; a missing name is a code-generation bug, not a runtime
// condition, hence the panic.
func (m *Machine) Param(name string) int64 {
	v, ok := m.params[name]
	if !ok {
		panic(fmt.Sprintf("codegen: parameter %q not bound", name))
	}
	return v
}

// Var returns a variable's base address and concrete dimension sizes.
func (m *Machine) Var(name string) (base int, dims []int64) {
	vi := m.vars[name]
	if vi == nil {
		panic(fmt.Sprintf("codegen: variable %q not allocated", name))
	}
	return vi.region.Base, vi.dims
}

// SetBounds caches the outermost loop's bounds, evaluated by epoch 0.
func (m *Machine) SetBounds(lo, hi int64) {
	m.lo, m.hi, m.haveBounds = lo, hi, true
}

// Bounds returns the cached outermost-loop bounds; ok is false before epoch
// 0 has evaluated them.
func (m *Machine) Bounds() (lo, hi int64, ok bool) { return m.lo, m.hi, m.haveBounds }

// ErrNoBounds reports an epoch run before epoch 0 cached the loop bounds,
// with interp's message text.
func ErrNoBounds(epoch int) error {
	return fmt.Errorf("codegen: epoch %d run before epoch 0 evaluated loop bounds", epoch)
}

// Tick advances the loop-iteration budget: it enforces MaxTicks, polls the
// armed context, and feeds the step hook. Compiled code calls it once per
// loop iteration.
func (m *Machine) Tick(line, col int) error {
	m.ticks++
	max := m.tickBudget()
	if m.ticks > max {
		return &RuntimeError{Pos: lang.Pos{Line: line, Col: col}, Msg: fmt.Sprintf("step limit %d exceeded", max)}
	}
	if m.ctx != nil && m.ticks >= m.ctxCheck {
		m.ctxCheck = m.ticks + tickCheckInterval
		if err := m.ctx.Err(); err != nil {
			return &CancelError{Pos: lang.Pos{Line: line, Col: col}, Err: err}
		}
	}
	if m.stepHook != nil {
		m.stepHook(m.ticks)
	}
	return nil
}

func (m *Machine) tickBudget() uint64 {
	if m.MaxTicks == 0 {
		return 500_000_000
	}
	return m.MaxTicks
}

// Load reads a raw word through the simulated memory (hooks and access
// accounting included, exactly as interpreted loads).
func (m *Machine) Load(addr int) uint64 { return m.mem.Load(addr) }

// LoadF reads a float64 value.
func (m *Machine) LoadF(addr int) float64 { return math.Float64frombits(m.mem.Load(addr)) }

// Store writes a raw word through the simulated memory.
func (m *Machine) Store(addr int, v uint64) { m.mem.Store(addr, v) }

// StoreF writes a float64 value.
func (m *Machine) StoreF(addr int, v float64) { m.mem.Store(addr, math.Float64bits(v)) }

// Fold folds a raw value into the selected accumulator n times through
// checksum.Pair.ScaleFold, keeping the shadow copies in step.
func (m *Machine) Fold(a checksum.Acc, v uint64, n int64) { m.pair.ScaleFold(a, v, n) }

// Assert is assert_checksums(): verify the pair, stream the verification
// outcome, and surface a detection as a *DetectionError at the statement's
// source position.
func (m *Machine) Assert(line, col int) error {
	if err := m.pair.Verify(); err != nil {
		m.emitVerify(err)
		return &DetectionError{Pos: lang.Pos{Line: line, Col: col}, Err: err}
	}
	m.emitVerify(nil)
	return nil
}

// OOB reports a subscript out of bounds with interp's message text.
func (m *Machine) OOB(ix, dim int64, k int, name string, line, col int) error {
	return &RuntimeError{Pos: lang.Pos{Line: line, Col: col}, Msg: fmt.Sprintf(
		"index %d out of bounds [0,%d) in dimension %d of %q", ix, dim, k, name)}
}

// DivZero reports a division by zero with interp's message text.
func (m *Machine) DivZero(line, col int) error {
	return &RuntimeError{Pos: lang.Pos{Line: line, Col: col}, Msg: "division by zero"}
}

// ModZero reports a modulo by zero with interp's message text.
func (m *Machine) ModZero(line, col int) error {
	return &RuntimeError{Pos: lang.Pos{Line: line, Col: col}, Msg: "modulo by zero"}
}

// ModFloat reports % applied to non-integer operands, interp's message text.
func (m *Machine) ModFloat(line, col int) error {
	return &RuntimeError{Pos: lang.Pos{Line: line, Col: col}, Msg: "% requires integer operands"}
}

// IntExpected reports a value required to be integral (checksum counts),
// interp's message text.
func (m *Machine) IntExpected(line, col int) error {
	return &RuntimeError{Pos: lang.Pos{Line: line, Col: col}, Msg: "expected integer value"}
}

// emitVerify mirrors interp.Machine.emitVerify: verify.ok on a match,
// verify.mismatch plus a detection event on a caught memory error.
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
