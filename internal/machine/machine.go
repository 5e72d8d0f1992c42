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
	// Trace receives fault.injected, verify.ok/mismatch and detection
	// events, plus the supervisor's epoch and recovery events.
	Trace telemetry.Sink
	// Metrics receives verification outcomes and supervisor metrics.
	Metrics *telemetry.Registry
	// Tracer records causally linked spans for supervised runs.
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
	backend string // error prefix and trial label: "interp" or "codegen"
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
// integer dimension expressions. With a trace sink configured, every
// injected bit flip is streamed with its word address and owning array
// coordinates.
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
	if m.cfg.Trace != nil {
		m.mem.SetFaultHook(func(addr, bit int) {
			fields := map[string]any{"addr": addr, "bit": bit}
			if name, idx, ok := m.varAt(addr); ok {
				fields["array"] = name
				fields["index"] = idx
			}
			telemetry.Emit(m.cfg.Trace, telemetry.EvFaultInjected, fields)
		})
	}
	return nil
}

// Fork returns a worker's view of m: parameters and layout shared
// (read-only during execution), a SharedView of the memory with private
// access counters, and a private checksum shard. The fork inherits no
// telemetry, hooks or context.
func (m *State) Fork() State {
	return State{
		mem:     m.mem.SharedView(),
		pair:    checksum.NewPair(m.pair.Kind()),
		params:  m.params,
		vars:    m.vars,
		cfg:     Config{Kind: m.cfg.Kind, BaseOffset: m.cfg.BaseOffset},
		backend: m.backend,
	}
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

// Trace returns the configured trace sink, or nil.
func (m *State) Trace() telemetry.Sink { return m.cfg.Trace }

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
	m.mem.SetRedirect(nil)
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

// VerifyChecksums is assert_checksums(): it verifies the pair and streams
// the outcome. The backend wraps a mismatch with its statement position.
func (m *State) VerifyChecksums() error {
	err := m.pair.Verify()
	m.emitVerify(err)
	return err
}

// emitVerify streams the outcome of a checksum verification: verify.ok on a
// match, verify.mismatch plus a detection event (with the mismatching pair
// and both values) on a caught memory error.
func (m *State) emitVerify(err error) {
	tr, reg := m.cfg.Trace, m.cfg.Metrics
	if tr == nil && reg == nil {
		return
	}
	if err == nil {
		telemetry.Emit(tr, telemetry.EvVerifyOK, map[string]any{
			"def": m.pair.Def, "use": m.pair.Use,
			"e_def": m.pair.EDef, "e_use": m.pair.EUse,
		})
		reg.Counter("defuse_verifications_total",
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
	telemetry.Emit(tr, telemetry.EvVerifyMismatch, fields)
	telemetry.Emit(tr, telemetry.EvDetection, fields)
	reg.Counter("defuse_verifications_total",
		telemetry.Label{Key: "result", Value: "mismatch"}).Inc()
	reg.Counter("defuse_detections_total").Inc()
}
