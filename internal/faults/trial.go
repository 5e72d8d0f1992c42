package faults

import (
	"context"
	"fmt"
	"math/bits"

	"defuse/internal/addrsum"
	"defuse/internal/checksum"
	"defuse/internal/dme"
	"defuse/internal/memsim"
	"defuse/internal/recovery"
	"defuse/rt"
	"defuse/telemetry"
)

// This file runs one epoch-structured injection trial: the epoch workload of
// workload.go with one fault injected inside a random epoch. With
// every-boundary verification the fault either aliases or is detected at its
// own epoch's boundary (latency zero); EndOnlyVerify verifies only at the
// final boundary, measuring the latency the epoch scheme removes; Recover
// runs the trial under the checkpoint/rollback supervisor and reports
// whether the corrupted run was steered back to the correct final state. A
// non-data Target aims the fault at the detector itself (see coverage.go),
// and Hardened selects the detector's self-checks — boundary scrubs and
// digest-verified restores — or the unchecked baseline.
//
// One runner serves every backend. A backend is a trialDetector whose
// methods each cover a span of an epoch or a whole boundary, so the per-word
// loop makes no interface call. Every backend consumes the same draws, so
// per-backend cells differ only in the detector.
//
// The same runner, through its config method, supervises every other run of
// the word workload: the resident service's verify jobs (RunLive, whose
// LivePlan maps to a flip or an AddrWrong at the plan's coordinates) and the
// crash campaign's child (crash.go, whose strike is a SIGKILL). Only the
// classic Table 1 runner (campaign.go) and the kernel trials
// (kerneltrial.go) keep their own.

// trialDetector is one detection backend running the epoch workload.
type trialDetector interface {
	epochBody
	// FlipBit strikes word i of the protected data.
	FlipBit(i, bit int)
	// Boundary closes an epoch; check runs on the quiescent detector just
	// before its verdict.
	Boundary(last bool, check func() error) error
	Checkpoint() any
	Restore(snap any, checked bool) error
	// Holds reports whether the protected data is exactly want.
	Holds(want []uint64) bool
}

// trialDraws are one trial's coordinates, drawn in a fixed order for every
// backend and target so each cell sees the same stream. Draws added later
// come last, so pre-existing cells stay byte-stable.
type trialDraws struct {
	init        []uint64
	epoch, word int // where the fault lands
	flips       []BitFlip
	// Detector-target coordinates.
	acc            checksum.Acc
	accBit, ctrBit uint
	ckPos, ckBit   int
	// Address-fault coordinates: the effective index, or a skip when the
	// region is too small to model the fault.
	addr     int
	addrSkip bool
}

// drawTrial draws trial's coordinates from its sub-seed.
func drawTrial(cfg CoverageConfig, trial int) trialDraws {
	in := NewInjector(trialSeed(cfg.Seed, trial))
	d := trialDraws{init: make([]uint64, cfg.Words)}
	in.Fill(d.init, cfg.Pattern)
	d.epoch = in.Intn(cfg.Epochs)
	d.word = in.Intn(cfg.Words)
	d.flips = in.PickBits(cfg.Words, cfg.BitFlips)
	d.acc = checksum.Acc(in.Intn(4))
	d.accBit = uint(in.Intn(64))
	d.ctrBit = uint(in.Intn(64))
	d.ckPos = in.Intn(cfg.Words + 4)
	d.ckBit = in.Intn(64)
	d.addr, d.addrSkip = drawAddrFault(in, cfg.AddrFault, d.word, cfg.Words)
	return d
}

// drawAddrFault resolves an address-fault cell's effective target index. Both
// underlying draws are consumed unconditionally and in a fixed order so every
// AddrFault value sees the same downstream random stream. The bool reports a
// skip: the region is too small to model the fault (tallied, not an error).
func drawAddrFault(in *Injector, af AddrFault, injWord, words int) (int, bool) {
	wrongIdx, wrongErr := in.WrongAddress(injWord, words)
	idxBitDraw := in.Intn(64)
	switch af {
	case AddrWrong, AddrAlias:
		if wrongErr != nil {
			return injWord, true
		}
		return wrongIdx, false
	case AddrIndexBit:
		return indexBitFlip(injWord, words, idxBitDraw)
	default: // AddrNone
		return injWord, false
	}
}

// indexBitFlip models a single bit flip in the index register: it flips one
// bit of idx, chosen from the draw, cycling positions until the result stays
// inside the region. For words >= 2 a valid bit always exists (the lowest set
// bit of idx maps downward; for idx 0, bit 0 maps to 1), so the only skip is
// the degenerate 1-word region.
func indexBitFlip(idx, words, draw int) (int, bool) {
	if words < 2 {
		return idx, true
	}
	nbits := bits.Len(uint(words - 1))
	for t := 0; t < nbits; t++ {
		b := (draw + t) % nbits
		if j := idx ^ (1 << uint(b)); j < words {
			return j, false
		}
	}
	return idx, true
}

// trialRetries bounds rollback re-executions per epoch in a recovering cell.
const trialRetries = 2

// trialPolicy is the recovery policy of a cell: none, or bounded retries and
// one restart. No backoff pause inside the simulation: a retry re-executes
// immediately so campaigns stay fast and deterministic in wall time.
func trialPolicy(cfg CoverageConfig) recovery.Policy {
	if !cfg.Recover {
		return recovery.Policy{}
	}
	return recovery.Policy{MaxRetries: trialRetries, MaxRestarts: 1}
}

// epochTrial is one running trial.
type epochTrial struct {
	cfg CoverageConfig
	d   trialDraws
	det trialDetector
	// w is the checksum backend's workload, which the detector targets
	// strike; nil for the other backends.
	w *wordWorkload
	// kill makes the strike a SIGKILL of the whole process: the crash
	// campaign's child (crash.go).
	kill bool
	// scrub cross-checks the detector's own state; nil when the backend has
	// none.
	scrub func() error
	inst  cellInstruments
	// span is the trial's span: the parent of its fault and scrub marks.
	span telemetry.SpanContext

	injected, maskTried, sawInitial, ckDone bool
}

// arm builds cfg's backend over the trial's initial words. The checksum
// backend folds through the worker's reusable tracker for the cell's
// operator and the addrsum backend through its ModAdd tracker, Reset on
// entry; the DME backend runs its own variants.
func (t *epochTrial) arm(ws *workerState) {
	init := t.d.init
	switch t.cfg.Backend {
	case BackendDME:
		t.det = newDMEDetector(init)
		return
	case BackendAddrsum:
		tr := ws.tracker(checksum.ModAdd)
		tr.Reset()
		t.scrub = tr.ScrubDetector
		d := &addrDetector{mem: memsim.New(len(init)), tr: tr}
		for i, v := range init {
			d.mem.Poke(i, v)
		}
		t.det = d
		return
	}
	tr := ws.tracker(t.cfg.Kind)
	tr.Reset()
	t.armWords(tr, ws.zeroCounters(len(init)))
}

// armWords builds the checksum backend: the word workload over the trial's
// initial words, folding through tr, which must arrive Reset, with zeroed
// counters.
func (t *epochTrial) armWords(tr *rt.Tracker, counters []rt.Counter) {
	t.scrub = tr.ScrubDetector
	t.w = newWordWorkload(t.d.init, tr, counters)
	t.det = t.w
}

// newWordTrial returns a trial of cfg that belongs to no campaign cell: the
// word workload over init, folding through tr (which must arrive Reset),
// with no fault armed until the caller sets the strike coordinates.
func newWordTrial(cfg CoverageConfig, init []uint64, tr *rt.Tracker) *epochTrial {
	cfg.Words = len(init)
	t := &epochTrial{cfg: cfg, d: trialDraws{init: init, epoch: -1}, inst: detachedInstruments}
	t.armWords(tr, make([]rt.Counter, len(init)))
	return t
}

// runEpochTrial executes one supervised epoch trial and tallies its outcome.
// inst carries the cell's pre-resolved telemetry instruments; span is the
// parent the supervisor's spans attach to (the campaign's per-trial span),
// the zero context when untraced. ws is the running worker's scratch.
func runEpochTrial(ctx context.Context, cfg CoverageConfig, trial int, ws *workerState, inst cellInstruments, span telemetry.SpanContext) (Tally, error) {
	t := &epochTrial{cfg: cfg, d: drawTrial(cfg, trial), inst: inst, span: span}
	t.arm(ws)
	out, err := recovery.Supervise(ctx, t.config())
	if err != nil {
		return Tally{}, err
	}
	return t.classify(out), nil
}

// config is the supervisor configuration that runs the trial: Run with the
// one-shot strike armed at (epoch, word), Verify at the cell's verifying
// boundaries, Checkpoint, and a checked (hardened) or unchecked Restore.
// Every word-workload run — campaign trial, service verify job, crash
// child — is supervised through it.
func (t *epochTrial) config() recovery.Config {
	return recovery.Config{
		Epochs:     t.cfg.Epochs,
		Run:        t.run,
		Verify:     t.verify,
		Checkpoint: t.checkpoint,
		Restore:    func(snap any) error { return t.det.Restore(snap, t.cfg.Hardened) },
		Policy:     trialPolicy(t.cfg),
		Metrics:    t.cfg.Metrics,
		Tracer:     t.cfg.Tracer,
		Span:       t.span,
	}
}

// run executes epoch k, arming the trial's one-shot fault in its epoch.
func (t *epochTrial) run(k int) error {
	at := -1
	if !t.injected && k == t.d.epoch {
		at = t.d.word
	}
	runEpoch(t.det, t.cfg.Words, at, t.strike)
	return nil
}

// strike injects the trial's fault just before iteration i and returns the
// iteration's effective load and store indices. An address fault diverges
// them from i for exactly this iteration (the transient corrupted-register
// model); every other fault strikes memory or the detector state.
func (t *epochTrial) strike(i int) (load, store int) {
	t.injected = true
	cfg, d := t.cfg, t.d
	load, store = i, i
	switch {
	case t.kill:
		killSelf()
	case cfg.AddrFault != AddrNone:
		if d.addrSkip {
			return i, i // nothing to inject: the trial runs clean
		}
		load = d.addr
		if cfg.AddrFault == AddrAlias {
			// The register was corrupted before the load and reused for the
			// store: the whole read-modify-write lands on the wrong word.
			store = d.addr
		}
	case cfg.Target == TargetAccumulator:
		t.w.tr.CorruptAccumulator(d.acc, d.accBit)
	case cfg.Target == TargetCounter:
		rt.CorruptCounter(&t.w.counters[d.word], d.ctrBit)
	default: // data, masking, checkpoint: corrupt the protected array
		for _, f := range d.flips {
			t.det.FlipBit(f.Word, f.Bit)
		}
	}
	if cfg.Tracer.Enabled() {
		cfg.Tracer.Mark(t.span, telemetry.EvFaultInjected, t.faultAttrs(i, load)...)
	}
	return load, store
}

// faultAttrs describes the injected fault for its fault.injected mark; the
// cell's coordinates are on the trial span it hangs from.
func (t *epochTrial) faultAttrs(i, load int) []telemetry.Attr {
	cfg, d := t.cfg, t.d
	attrs := []telemetry.Attr{telemetry.Int("epoch", d.epoch)}
	if cfg.Backend != BackendChecksum {
		attrs = append(attrs, telemetry.String("backend", cfg.Backend.String()))
	}
	switch {
	case cfg.AddrFault != AddrNone:
		return append(attrs, telemetry.String("fault", cfg.AddrFault.String()),
			telemetry.Int("intent", i), telemetry.Int("effective", load))
	case cfg.Target == TargetAccumulator:
		return append(attrs, telemetry.String("acc", d.acc.String()), telemetry.Int("bit", int(d.accBit)))
	case cfg.Target == TargetCounter:
		return append(attrs, telemetry.Int("word", d.word), telemetry.Int("bit", int(d.ctrBit)))
	}
	return append(attrs, telemetry.Attr{Key: "flips", Value: flipCoords(d.flips)})
}

// flipCoords renders flipped bits as the "flips" attribute of a
// fault.injected mark.
func flipCoords(flips []BitFlip) []map[string]any {
	coords := make([]map[string]any, len(flips))
	for i, f := range flips {
		coords[i] = map[string]any{"word": f.Word, "bit": f.Bit}
	}
	return coords
}

// verify closes epoch k at a verifying boundary.
func (t *epochTrial) verify(k int) error {
	last := k == t.cfg.Epochs-1
	if t.cfg.EndOnlyVerify && !last {
		return nil
	}
	return t.det.Boundary(last, func() error { return t.check(k) })
}

// check runs on the quiescent detector at a verifying boundary: the masking
// target's compensating strike, then — hardened — the detector scrub.
func (t *epochTrial) check(k int) error {
	if t.cfg.Target == TargetMasking && t.injected && !t.maskTried {
		// The adversarial second half of the masking fault: compensating
		// single-bit flips of the use and e_use accumulators that cancel the
		// data flip's imbalance, making verification pass on wrong data.
		// Only possible when the accumulator bit values line up (always for
		// XOR, about one trial in four for ModAdd).
		t.maskTried = true
		tryMask(t.w.tr, t.cfg.Kind)
	}
	if !t.cfg.Hardened || t.scrub == nil {
		return nil
	}
	tracing := t.cfg.Tracer.Enabled()
	if err := t.scrub(); err != nil {
		if tracing {
			t.cfg.Tracer.Mark(t.span, telemetry.EvScrubFail,
				telemetry.Int("epoch", k), telemetry.String("error", err.Error()))
		}
		t.inst.scrubFail.Inc()
		return err
	}
	if tracing {
		t.cfg.Tracer.Mark(t.span, telemetry.EvScrubPass, telemetry.Int("epoch", k))
	}
	t.inst.scrubPass.Inc()
	return nil
}

// checkpoint captures the detector's state. The checkpoint target strikes
// the checkpoint parked for the injection epoch, once; the supervisor's
// very first call captures the whole-run initial state, which it spares.
func (t *epochTrial) checkpoint() any {
	snap := t.det.Checkpoint()
	if t.cfg.Target != TargetCheckpoint {
		return snap
	}
	if !t.sawInitial {
		t.sawInitial = true
	} else if !t.ckDone && t.w.tr.Epoch() == t.d.epoch {
		t.ckDone = true
		cp := snap.(*wordCheckpoint)
		if t.d.ckPos < t.cfg.Words {
			cp.mem.FlipBit(t.d.ckPos, t.d.ckBit)
		} else {
			flipEpochStateField(&cp.state, t.d.ckPos-t.cfg.Words, uint(t.d.ckBit))
		}
	}
	return snap
}

// classify turns the supervisor's outcome into the trial's tally and
// records it on the cell's instruments.
func (t *epochTrial) classify(out recovery.Outcome) Tally {
	cfg := t.cfg
	// A skipped address fault injected nothing: the trial ran clean and
	// counts as neither detected nor undetected.
	skipped := cfg.AddrFault != AddrNone && t.d.addrSkip
	// Whether the trial corrupted the protected array at all: detector-only
	// targets must not count detections as data faults.
	dataInjected := !skipped &&
		(cfg.Target == TargetData || cfg.Target == TargetMasking || cfg.Target == TargetCheckpoint)
	finalOK := t.det.Holds(FaultFree(t.d.init, cfg.Epochs))
	tally := Tally{
		Skipped:          one(skipped),
		Undetected:       one(!out.Detected && !skipped),
		Recovered:        one(out.Recovered && finalOK),
		Tainted:          one(out.Tainted),
		Retries:          int64(out.Retries),
		Restarts:         int64(out.Restarts),
		Rebuilds:         int64(out.Rebuilds),
		DetectorFaults:   int64(out.DetectorFaults),
		CheckpointFaults: int64(out.CheckpointFaults),
		// A false negative finished with every check green and a wrong final
		// state; a false positive is recovery acting on a data-fault verdict
		// when the protected data was never touched.
		FalseNegatives: one(!out.Detected && !finalOK),
		FalsePositives: one(!dataInjected && out.DataFaults > 0),
	}
	if out.Detected {
		latency := out.FirstDetection - t.d.epoch
		tally.detect(latency)
		t.inst.latency.Observe(float64(latency))
	}
	if !skipped {
		t.inst.record(tally.Undetected > 0)
	}
	if tally.Recovered > 0 {
		t.inst.recovered.Inc()
	}
	return tally
}

// one counts a trial outcome: 1 if it happened, else 0.
func one(b bool) int {
	if b {
		return 1
	}
	return 0
}

// addrDetector is the PRESAGE-style address-stream backend: it folds every
// access's (intended, effective) index pair into a ModAdd tracker and never
// looks at the data.
type addrDetector struct {
	mem *memsim.Memory
	tr  *rt.Tracker
}

func (d *addrDetector) Span(lo, hi int) {
	for i := lo; i < hi; i++ {
		d.Step(i, i, i)
	}
}

func (d *addrDetector) Step(i, load, store int) {
	d.mem.Store(store, update(d.mem.Load(load)))
	addrsum.Fold(d.tr, i, load, store)
}

func (d *addrDetector) FlipBit(i, bit int) { d.mem.FlipBit(i, bit) }

// Boundary verifies the address streams, quiescent at any boundary: every
// fold is complete when its access is. A mismatch is wrapped so a trace
// names the address streams; it still classifies as a data fault.
func (d *addrDetector) Boundary(last bool, check func() error) error {
	if err := check(); err != nil {
		return err
	}
	if _, err := d.tr.EndEpoch(); err != nil {
		return fmt.Errorf("addrsum: address streams: %w", err)
	}
	return nil
}

type addrCheckpoint struct {
	mem   memsim.Snapshot
	state rt.EpochState
}

func (d *addrDetector) Checkpoint() any {
	return &addrCheckpoint{mem: d.mem.Snapshot(), state: d.tr.BeginEpoch()}
}

func (d *addrDetector) Restore(snap any, checked bool) error {
	cp := snap.(*addrCheckpoint)
	restore, rollback := d.mem.Restore, d.tr.Rollback
	if !checked {
		restore, rollback = d.mem.RestoreUnchecked, d.tr.RollbackUnchecked
	}
	if err := restore(cp.mem); err != nil {
		return err
	}
	return rollback(cp.state)
}

func (d *addrDetector) Holds(want []uint64) bool { return memHolds(d.mem, want) }

// dmeDetector is divergent dual execution: the workload runs on two
// dme.Variants with rotated layouts, cross-checked at every verified
// boundary. The fault strikes variant A only — a transient strikes one
// execution, and the rotated layout means even a recurring physical fault
// would corrupt different logical words in each — so any divergence between
// the variants is evidence of it.
type dmeDetector struct {
	a, b *dme.Variant
}

func newDMEDetector(init []uint64) *dmeDetector {
	// A keeps the identity layout; B's rotation places every logical word at
	// a different physical location (any nonzero shift mod words).
	shiftB := max(len(init)/2, 1)
	d := &dmeDetector{a: dme.NewVariant(len(init), 0), b: dme.NewVariant(len(init), shiftB)}
	for i, v := range init {
		d.a.Poke(i, v)
		d.b.Poke(i, v)
	}
	return d
}

// Span runs the span on A, then cleanly on B — sequential dual execution,
// as a single-core deployment would schedule it.
func (d *dmeDetector) Span(lo, hi int) {
	for i := lo; i < hi; i++ {
		d.a.Store(i, update(d.a.Load(i)))
	}
	for i := lo; i < hi; i++ {
		d.b.Store(i, update(d.b.Load(i)))
	}
}

func (d *dmeDetector) Step(i, load, store int) {
	d.a.Store(store, update(d.a.Load(load)))
	d.b.Store(i, update(d.b.Load(i)))
}

func (d *dmeDetector) FlipBit(i, bit int) { d.a.FlipBit(i, bit) }

func (d *dmeDetector) Boundary(last bool, check func() error) error {
	if err := check(); err != nil {
		return err
	}
	return dme.CrossCheck(d.a, d.b)
}

type dmeCheckpoint struct{ a, b dme.Snapshot }

func (d *dmeDetector) Checkpoint() any {
	return &dmeCheckpoint{a: d.a.Snapshot(), b: d.b.Snapshot()}
}

// Restore rolls both variants back together so the pair re-enters the epoch
// synchronized.
func (d *dmeDetector) Restore(snap any, checked bool) error {
	cp := snap.(*dmeCheckpoint)
	restore := (*dme.Variant).Restore
	if !checked {
		restore = (*dme.Variant).RestoreUnchecked
	}
	if err := restore(d.a, cp.a); err != nil {
		return err
	}
	return restore(d.b, cp.b)
}

func (d *dmeDetector) Holds(want []uint64) bool {
	for i, v := range want {
		if d.a.Peek(i) != v || d.b.Peek(i) != v {
			return false
		}
	}
	return true
}

// tryMask attempts the compensating accumulator corruption that hides a
// single-bit data fault: after the boundary finalize, a 1-bit data flip
// leaves use = def + d and e_use = e_def + d with d = ±2^b. Flipping bit b of
// both the use and e_use primaries subtracts d exactly when the current bit
// values have the right sense — always for XOR, and with the right bit
// polarity (about 1/4 of trials) for modular addition. It returns whether the
// mask was applied.
func tryMask(tr *rt.Tracker, kind checksum.Kind) bool {
	def, use, edef, euse := tr.Checksums()
	switch kind {
	case checksum.XOR:
		m := use ^ def
		if m != 0 && m == euse^edef && bits.OnesCount64(m) == 1 {
			b := uint(bits.TrailingZeros64(m))
			tr.CorruptAccumulator(checksum.AccUse, b)
			tr.CorruptAccumulator(checksum.AccEUse, b)
			return true
		}
	case checksum.ModAdd:
		d := use - def
		if d == 0 || d != euse-edef {
			return false
		}
		if bits.OnesCount64(d) == 1 {
			// Need to subtract 2^b: only a set bit flips downward.
			b := uint(bits.TrailingZeros64(d))
			if use&(1<<b) != 0 && euse&(1<<b) != 0 {
				tr.CorruptAccumulator(checksum.AccUse, b)
				tr.CorruptAccumulator(checksum.AccEUse, b)
				return true
			}
		} else if bits.OnesCount64(-d) == 1 {
			// Need to add 2^b: only a clear bit flips upward.
			b := uint(bits.TrailingZeros64(-d))
			if use&(1<<b) == 0 && euse&(1<<b) == 0 {
				tr.CorruptAccumulator(checksum.AccUse, b)
				tr.CorruptAccumulator(checksum.AccEUse, b)
				return true
			}
		}
	}
	return false
}

// flipEpochStateField flips one bit of a parked EpochState's accumulator
// fields without resealing its digest — the checkpoint-fault footprint on the
// tracker side. sel picks the accumulator (0..3).
func flipEpochStateField(s *rt.EpochState, sel int, bit uint) {
	mask := uint64(1) << (bit & 63)
	switch sel & 3 {
	case 0:
		s.Def ^= mask
	case 1:
		s.Use ^= mask
	case 2:
		s.EDef ^= mask
	default:
		s.EUse ^= mask
	}
}
