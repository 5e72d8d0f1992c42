package machine

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"defuse/internal/checksum"
	"defuse/internal/lang"
	"defuse/internal/memsim"
	"defuse/internal/recovery"
	"defuse/telemetry"
)

// The epoch layer. The instrumenter places the paper's verification at a
// post-dominator of all defs and uses; an epoch plan refines that placement
// to iteration blocks of the program's kernel loop (lang.KernelLoop), so a
// supervisor can verify, checkpoint, and — on a detected corruption — roll
// back and re-execute one block instead of discarding the whole run. Durable
// supervision seals the checkpointed state into a write-ahead log at every
// verified boundary, so a process killed mid-run resumes from the newest
// valid record with memory words, accumulators and shadows rebuilt exactly.

// Slice returns the inclusive iteration sub-range of [lo,hi] assigned to
// epoch k of n: chunk = ceil(count/n), start = lo + k*chunk, end =
// min(start+chunk-1, hi). An empty range (hi < lo) yields start > end for
// every epoch.
func Slice(lo, hi int64, k, n int) (start, end int64) {
	count := hi - lo + 1
	if count < 0 {
		count = 0
	}
	chunk := (count + int64(n) - 1) / int64(n)
	start = lo + int64(k)*chunk
	end = start + chunk - 1
	if end > hi {
		end = hi
	}
	return start, end
}

// Plan partitions a program's kernel loop (lang.KernelLoop) into n
// contiguous iteration blocks (epochs). Statements before the loop belong to
// epoch 0 and statements after it to the last epoch, so running epochs
// 0..n-1 in order is one full run. The backend supplies the epoch body,
// which must split the program with lang.KernelLoop too.
type Plan struct {
	m      *State
	prog   *lang.Program
	n      int
	anchor int // the kernel loop's index in prog.Body, or -1
	body   func(k, n int) error
}

// NewPlan builds an n-epoch plan over m. body runs epoch k of n; a program
// with no top-level for loop collapses to a single epoch.
func NewPlan(m *State, prog *lang.Program, n int, body func(k, n int) error) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("%s: PlanEpochs needs n >= 1, got %d", m.backend, n)
	}
	pre, loop, _ := lang.KernelLoop(prog.Body)
	anchor := len(pre)
	if loop == nil {
		n, anchor = 1, -1
	}
	return &Plan{m: m, prog: prog, n: n, anchor: anchor, body: body}, nil
}

// Epochs returns the number of epochs in the plan.
func (p *Plan) Epochs() int { return p.n }

// State returns the machine state the plan runs on.
func (p *Plan) State() *State { return p.m }

// Reset clears the cached loop bounds so a pooled plan can be reused for a
// fresh request. Pair with the machine's Reset.
func (p *Plan) Reset() { p.m.ClearBounds() }

// RunEpoch executes epoch k. Epochs must be started in order the first
// time, but any epoch may be re-executed after the state is restored to
// that epoch's entry checkpoint.
func (p *Plan) RunEpoch(k int) error { return p.body(k, p.n) }

// checkpoint is everything an epoch mutates: the simulated memory (as a
// digest-sealed snapshot), the checksum accumulators with their shadows,
// and the cached loop bounds (so a full restart re-evaluates them in epoch
// 0).
type checkpoint struct {
	mem        memsim.Snapshot
	pair       checksum.Pair
	lo, hi     int64
	haveBounds bool
}

// Checkpoint captures the state at an epoch boundary.
func (p *Plan) Checkpoint() any {
	m := p.m
	return checkpoint{mem: m.mem.Snapshot(), pair: *m.pair, lo: m.lo, hi: m.hi, haveBounds: m.haveBounds}
}

// Restore reinstates a Checkpoint, re-verifying the memory snapshot's
// digest.
func (p *Plan) Restore(snap any) error {
	s := snap.(checkpoint)
	m := p.m
	if err := m.mem.Restore(s.mem); err != nil {
		return err
	}
	*m.pair = s.pair
	m.lo, m.hi, m.haveBounds = s.lo, s.hi, s.haveBounds
	return nil
}

// verify is the boundary check. Scrub first: a diverged accumulator copy
// means the def/use comparison cannot be trusted, and the supervisor must
// treat the failure as a detector fault, not a data fault.
func (p *Plan) verify(int) error {
	if err := p.m.pair.Scrub(); err != nil {
		return err
	}
	return p.m.VerifyChecksums()
}

// Config is the supervisor configuration Supervise runs under span: the
// plan's epochs, checkpoint, restore, and boundary verification, with the
// machine's metrics registry and tracer. A caller that runs the plan under
// its own supervisor overrides only what it changes.
func (p *Plan) Config(pol recovery.Policy, span telemetry.SpanContext) recovery.Config {
	return recovery.Config{
		Epochs:     p.n,
		Run:        p.RunEpoch,
		Verify:     p.verify,
		Checkpoint: p.Checkpoint,
		Restore:    p.Restore,
		Policy:     pol,
		Metrics:    p.m.cfg.Metrics,
		Tracer:     p.m.cfg.Tracer,
		Span:       span,
	}
}

// Supervise runs the plan under a checkpoint/rollback recovery supervisor,
// verifying the def/use checksums at every epoch boundary. The verification
// is sound when the instrumentation is epoch-balanced — every value defined
// in an iteration block has its checksum contributions completed by the
// block's end, which is exactly the paper's post-dominator condition applied
// per block. The configured metrics registry and tracer receive the
// supervisor's telemetry: one "run" span holding the epoch, recovery and
// verification spans and the machine's own marks.
func (p *Plan) Supervise(ctx context.Context, pol recovery.Policy) (recovery.Outcome, error) {
	run := p.m.cfg.Tracer.Start(telemetry.SpanContext{}, "run", telemetry.Int("epochs", p.n))
	defer p.m.underSpan(run.Context())()
	out, err := recovery.Supervise(ctx, p.Config(pol, run.Context()))
	run.End(telemetry.Bool("detected", out.Detected), telemetry.Bool("tainted", out.Tainted))
	return out, err
}

// underSpan makes sc the parent of the machine's marks and returns the
// function that restores the previous parent.
func (m *State) underSpan(sc telemetry.SpanContext) func() {
	prev := m.span
	m.span = sc
	return func() { m.span = prev }
}

// SuperviseDurable is Supervise with durable checkpoints: every verified
// epoch is sealed into the write-ahead log at walPath, and a fresh process
// pointed at the same log resumes from the newest valid record instead of
// restarting from scratch. The state must be at its epoch-0 entry when
// called; if the log holds a usable checkpoint, that state is replaced by
// the resumed one before any epoch runs. A log sealed by either backend
// resumes under the other.
func (p *Plan) SuperviseDurable(ctx context.Context, pol recovery.Policy, walPath string) (recovery.DurableOutcome, error) {
	run := p.m.cfg.Tracer.Start(telemetry.SpanContext{}, "run",
		telemetry.Int("epochs", p.n), telemetry.Bool("durable", true))
	defer p.m.underSpan(run.Context())()
	d := &recovery.DurableSupervisor{
		Config:      p.Config(pol, run.Context()),
		Path:        walPath,
		Fingerprint: p.Fingerprint(),
		EncodeState: p.encodeState,
		DecodeState: p.decodeState,
	}
	out, err := d.Run(ctx)
	run.End(telemetry.Bool("detected", out.Detected), telemetry.Bool("resumed", out.Resumed))
	return out, err
}

// stateHeader is the fixed prefix of the encoded state: checksum kind, four
// accumulators, four shadow words, the cached loop bounds, and the
// haveBounds flag — twelve little-endian uint64 words, followed by the
// encoded memory snapshot (which carries its own digest).
const stateHeader = 12 * 8

// encodeState renders the state at an epoch boundary.
func (p *Plan) encodeState() ([]byte, error) {
	m := p.m
	snap := m.mem.Snapshot()
	mem, err := snap.Encode()
	if err != nil {
		return nil, err
	}
	b := make([]byte, stateHeader, stateHeader+len(mem))
	sh := m.pair.Shadows()
	have := uint64(0)
	if m.haveBounds {
		have = 1
	}
	for i, w := range [...]uint64{
		uint64(m.pair.Kind()),
		m.pair.Def, m.pair.Use, m.pair.EDef, m.pair.EUse,
		sh[0], sh[1], sh[2], sh[3],
		uint64(m.lo), uint64(m.hi), have,
	} {
		binary.LittleEndian.PutUint64(b[i*8:], w)
	}
	return append(b, mem...), nil
}

// decodeState installs previously encoded state. The memory snapshot's
// integrity digest is re-verified by DecodeSnapshot and again by Restore. A
// checksum-kind or memory-size mismatch means the record belongs to a
// different configuration and is refused; the fingerprint should already
// have caught it, and the checks here keep decode safe on its own.
func (p *Plan) decodeState(b []byte) error {
	m := p.m
	if len(b) < stateHeader {
		return fmt.Errorf("%s: durable state of %d bytes: %w", m.backend, len(b), memsim.ErrCheckpointCorrupt)
	}
	w := func(i int) uint64 { return binary.LittleEndian.Uint64(b[i*8:]) }
	if kind := w(0); kind != uint64(m.pair.Kind()) {
		return fmt.Errorf("%s: durable state for checksum kind %d, machine uses %d: %w",
			m.backend, kind, m.pair.Kind(), memsim.ErrCheckpointCorrupt)
	}
	snap, err := memsim.DecodeSnapshot(b[stateHeader:])
	if err != nil {
		return err
	}
	if snap.Len() != m.mem.Size() {
		return fmt.Errorf("%s: durable state of %d words, machine has %d: %w",
			m.backend, snap.Len(), m.mem.Size(), memsim.ErrCheckpointCorrupt)
	}
	if err := m.mem.Restore(snap); err != nil {
		return err
	}
	m.pair.SetState(w(1), w(2), w(3), w(4), [4]uint64{w(5), w(6), w(7), w(8)})
	m.lo, m.hi = int64(w(9)), int64(w(10))
	m.haveBounds = w(11) != 0
	return nil
}

// Fingerprint identifies the run configuration: the program text, the
// concrete parameters (in sorted order), the checksum operator, the epoch
// count, the base offset and the kernel loop's statement index (a record
// sealed under another anchor caches another loop's bounds). Two runs with
// equal fingerprints execute the same work over the same layout, so a
// durable checkpoint from one is a valid resume point for the other,
// whichever backend wrote it; anything else must not be resumed.
func (p *Plan) Fingerprint() uint64 {
	m := p.m
	h := fnv.New64a()
	fmt.Fprintf(h, "epochs=%d kind=%d base=%d anchor=%d\n", p.n, m.pair.Kind(), m.cfg.BaseOffset, p.anchor)
	h.Write([]byte(lang.Print(p.prog)))
	names := make([]string, 0, len(m.params))
	for name := range m.params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%d\n", name, m.params[name])
	}
	return h.Sum64()
}
