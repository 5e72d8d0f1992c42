// Package machine is the simulated-machine state the execution backends
// share: the memsim memory and checksum.Pair, the variable layout, the host
// data accessors, the common options and telemetry wiring, and the epoch
// layer (chunk arithmetic, checkpoint/rollback, scrub→verify, supervision,
// the durable state encoding and the run fingerprint). interp.Machine and
// codegen.Machine embed a State by value and differ only in how they
// evaluate a program: a tree walk or a compiled Fn. One layout and one
// durable format mean a fault coordinate, a checkpoint or a WAL record from
// one backend means the same thing under the other.
package machine

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

// pollInterval is how many steps pass between context polls. Polling every
// step would put an atomic load on the hottest path; every 256th step bounds
// cancellation latency to microseconds while keeping the overhead
// unmeasurable.
const pollInterval = 256

// Config holds the options both backends accept.
type Config struct {
	// Kind selects the checksum operator (zero value: ModAdd).
	Kind checksum.Kind
	// Metrics receives verification outcomes and supervisor metrics.
	Metrics *telemetry.Registry
	// Tracer records causally linked spans for supervised runs, and marks
	// fault.injected and verify.ok/mismatch point spans under the machine's
	// current span (SetSpan).
	Tracer *telemetry.Tracer
	// BaseOffset shifts every variable's base address by that many unused
	// words. Two machines running the same program with different offsets
	// are structurally decorrelated: a fault at one physical address
	// corrupts different logical elements in each.
	BaseOffset int
}

// Var locates an allocated variable in simulated memory.
type Var struct {
	Region memsim.Region
	Dims   []int64
	Int    bool
}

// State is one program instance's simulated machine.
type State struct {
	mem    *memsim.Memory
	pair   *checksum.Pair
	params map[string]int64
	vars   map[string]*Var

	stepHook func(step uint64)
	ctx      context.Context
	ctxCheck uint64 // step at which to poll ctx next

	// Cached outermost-loop bounds, evaluated when epoch 0 executes (they
	// may depend on scalars the prologue computes).
	lo, hi     int64
	haveBounds bool

	cfg     Config
	span    telemetry.SpanContext // parent of the machine's point spans
	backend string                // error prefix and trial label: "interp" or "codegen"
}

// New returns a State for backend with prog's parameters bound from params
// and no variables allocated yet; Alloc lays them out.
func New(backend string, cfg Config, prog *lang.Program, params map[string]int64) (State, error) {
	bound := make(map[string]int64, len(prog.Params))
	for _, p := range prog.Params {
		v, ok := params[p]
		if !ok {
			return State{}, fmt.Errorf("%s: parameter %q not supplied", backend, p)
		}
		bound[p] = v
	}
	return State{
		mem:     memsim.New(0),
		pair:    checksum.NewPair(cfg.Kind),
		params:  bound,
		vars:    map[string]*Var{},
		cfg:     cfg,
		backend: backend,
	}, nil
}

// Alloc allocates prog's variables in declaration order after
// cfg.BaseOffset guard words, so a word address names the same logical
// element under every backend. dim is the backend's evaluator for the
// integer dimension expressions. With tracing on, every injected bit flip is
// marked with its word address and owning array coordinates.
func (m *State) Alloc(prog *lang.Program, dim func(lang.Expr) (int64, error)) error {
	alloc := memsim.NewAllocator(m.mem)
	if m.cfg.BaseOffset > 0 {
		alloc.Alloc(m.cfg.BaseOffset)
	}
	for _, d := range prog.Decls {
		v := &Var{Int: d.Type == lang.TypeInt}
		size := int64(1)
		for _, e := range d.Dims {
			n, err := dim(e)
			if err != nil {
				return fmt.Errorf("%s: sizing %q: %w", m.backend, d.Name, err)
			}
			if n < 0 {
				return fmt.Errorf("%s: array %q has negative dimension %d", m.backend, d.Name, n)
			}
			v.Dims = append(v.Dims, n)
			size *= n
		}
		v.Region = alloc.Alloc(int(size))
		m.vars[d.Name] = v
	}
	if m.cfg.Tracer.Enabled() {
		m.mem.SetFaultHook(func(addr, bit int) {
			attrs := []telemetry.Attr{telemetry.Int("addr", addr), telemetry.Int("bit", bit)}
			if name, idx, ok := m.varAt(addr); ok {
				attrs = append(attrs, telemetry.String("array", name), telemetry.Int("index", idx))
			}
			m.Mark(telemetry.EvFaultInjected, attrs...)
		})
	}
	return nil
}

// varAt reverse-maps a word address to the owning variable and flat index.
func (m *State) varAt(addr int) (name string, index int, ok bool) {
	for n, v := range m.vars {
		if addr >= v.Region.Base && addr < v.Region.Base+v.Region.Size {
			return n, addr - v.Region.Base, true
		}
	}
	return "", 0, false
}

// Backend names the execution backend that owns the state.
func (m *State) Backend() string { return m.backend }

// Mem exposes the simulated memory (for fault injection).
func (m *State) Mem() *memsim.Memory { return m.mem }

// Pair exposes the checksum accumulators.
func (m *State) Pair() *checksum.Pair { return m.pair }

// Tracer returns the configured tracer, or nil.
func (m *State) Tracer() *telemetry.Tracer { return m.cfg.Tracer }

// SetSpan sets the span the machine's point spans attach to — the run or
// request executing on it; the zero context makes each a root of its own.
func (m *State) SetSpan(sc telemetry.SpanContext) { m.span = sc }

// Mark records a point span under the machine's current span. Its
// attributes are built even when tracing is off: hot paths guard with
// Tracer().Enabled().
func (m *State) Mark(name string, attrs ...telemetry.Attr) {
	m.cfg.Tracer.Mark(m.span, name, attrs...)
}

// Metrics returns the configured metrics registry, or nil.
func (m *State) Metrics() *telemetry.Registry { return m.cfg.Metrics }

// LookupParam returns a parameter's value.
func (m *State) LookupParam(name string) (int64, bool) {
	v, ok := m.params[name]
	return v, ok
}

// LookupVar returns an allocated variable, or nil.
func (m *State) LookupVar(name string) *Var { return m.vars[name] }

// SetStepHook installs a callback invoked on every step with the running
// step count; fault-injection experiments use it to corrupt memory at a
// chosen point. What a step is belongs to the backend.
func (m *State) SetStepHook(h func(step uint64)) { m.stepHook = h }

// SetContext arms (or, with nil, disarms) deadline/cancellation propagation:
// execution polls ctx every 256 steps and aborts once it is done. A
// service uses this to put a hard per-request deadline on kernel execution
// without trusting the kernel to terminate.
func (m *State) SetContext(ctx context.Context) {
	m.ctx = ctx
	m.ctxCheck = 0
}

// Poll is the per-step bookkeeping both backends share: it polls the armed
// context every 256 steps, returning its error once it is done, and
// feeds the step hook. With neither armed it inlines to two nil checks.
func (m *State) Poll(step uint64) error {
	if m.ctx == nil && m.stepHook == nil {
		return nil
	}
	return m.poll(step)
}

func (m *State) poll(step uint64) error {
	if m.ctx != nil && step >= m.ctxCheck {
		m.ctxCheck = step + pollInterval
		if err := m.ctx.Err(); err != nil {
			return err
		}
	}
	if m.stepHook != nil {
		m.stepHook(step)
	}
	return nil
}

// Reset returns a pooled state to its post-Alloc form: memory zeroed,
// checksum accumulators re-derived, hooks, context and cached loop bounds
// cleared. Parameters and layout are preserved.
func (m *State) Reset() {
	m.mem.Zero()
	m.mem.SetLoadHook(nil)
	m.pair.Reset()
	m.stepHook = nil
	m.ctx = nil
	m.ctxCheck = 0
	m.ClearBounds()
}

// SetBounds caches the kernel loop's bounds, evaluated by epoch 0.
func (m *State) SetBounds(lo, hi int64) {
	m.lo, m.hi, m.haveBounds = lo, hi, true
}

// Bounds returns the cached kernel-loop bounds; ok is false before epoch
// 0 has evaluated them.
func (m *State) Bounds() (lo, hi int64, ok bool) { return m.lo, m.hi, m.haveBounds }

// ClearBounds forgets the cached bounds, so epoch 0 re-evaluates them.
func (m *State) ClearBounds() { m.lo, m.hi, m.haveBounds = 0, 0, false }

// Load reads a raw word through the simulated memory (hooks and access
// accounting included).
func (m *State) Load(addr int) uint64 { return m.mem.Load(addr) }

// LoadF reads a float64 value.
func (m *State) LoadF(addr int) float64 { return math.Float64frombits(m.mem.Load(addr)) }

// Store writes a raw word through the simulated memory.
func (m *State) Store(addr int, v uint64) { m.mem.Store(addr, v) }

// StoreF writes a float64 value.
func (m *State) StoreF(addr int, v float64) { m.mem.Store(addr, math.Float64bits(v)) }

// Fold folds a raw value into the selected accumulator n times through
// checksum.Pair.ScaleFold, keeping the shadow copies in step. It is the
// interpreter's add_to_chksm; compiled code folds into a checksum.Folds and
// flushes it into the Pair instead.
func (m *State) Fold(a checksum.Acc, v uint64, n int64) { m.pair.ScaleFold(a, v, n) }

// VerifyChecksums is assert_checksums(): it verifies the pair and reports
// the outcome. The backend wraps a mismatch with its statement position.
func (m *State) VerifyChecksums() error {
	err := m.pair.Verify()
	m.emitVerify(err)
	return err
}

// emitVerify reports the outcome of a checksum verification: a verify.ok
// mark on a match, a verify.mismatch mark (with the mismatching pair and
// both values) on a caught memory error, and the verification counters.
func (m *State) emitVerify(err error) {
	tracing, reg := m.cfg.Tracer.Enabled(), m.cfg.Metrics
	if !tracing && reg == nil {
		return
	}
	if err == nil {
		if tracing {
			m.Mark(telemetry.EvVerifyOK,
				telemetry.Attr{Key: "def", Value: m.pair.Def}, telemetry.Attr{Key: "use", Value: m.pair.Use},
				telemetry.Attr{Key: "e_def", Value: m.pair.EDef}, telemetry.Attr{Key: "e_use", Value: m.pair.EUse})
		}
		reg.Counter("defuse_verifications_total",
			telemetry.Label{Key: "result", Value: "ok"}).Inc()
		return
	}
	if tracing {
		attrs := []telemetry.Attr{telemetry.String("error", err.Error())}
		var mm *checksum.MismatchError
		if errors.As(err, &mm) {
			attrs = append(attrs, telemetry.String("which", mm.Which),
				telemetry.Attr{Key: "expected", Value: mm.Expected}, telemetry.Attr{Key: "observed", Value: mm.Observed})
		}
		m.Mark(telemetry.EvVerifyMismatch, attrs...)
	}
	reg.Counter("defuse_verifications_total",
		telemetry.Label{Key: "result", Value: "mismatch"}).Inc()
	reg.Counter("defuse_detections_total").Inc()
}
