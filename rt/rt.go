// Package rt is the runtime library for checksum-instrumented Go code
// produced by the goinstr source instrumenter. It implements the paper's
// general (dynamic use count) scheme of Algorithm 3 and Section 4.1: each
// tracked variable carries a shadow use counter; definitions and uses fold
// the variable's bit pattern into global def/use checksums, and auxiliary
// e_def/e_use checksums close the persistent-corruption loophole.
//
// As in the generated kernels, every fold lands in a checksum.Folds delta,
// the paper's register-resident accumulator (Section 5), and every reader of
// the shadowed checksum.Pair flushes the delta into it first.
package rt

import (
	"fmt"
	"math"
	"unsafe"

	"defuse/internal/checksum"
)

// Word is the set of value types the instrumenter can track: their bit
// patterns are folded into the checksums.
type Word interface {
	float64 | int | int64 | uint64 | int32 | uint32
}

// Bits returns the canonical 64-bit pattern of a tracked value: the value's
// own bits, zero-extended when it is 4 bytes wide (int32, uint32).
func Bits[T Word](v T) uint64 {
	if unsafe.Sizeof(v) == 4 {
		return uint64(*(*uint32)(unsafe.Pointer(&v)))
	}
	return *(*uint64)(unsafe.Pointer(&v))
}

// ctrRot is the rotation used for a Counter's redundant encoding. A pure
// rotation (no inversion, unlike the Pair shadows) keeps the zero Counter
// self-consistent, so `var c Counter` stays a valid starting state.
const ctrRot = 17

// encCounter produces the redundant copy of a counter's packed state.
func encCounter(packed uint64) uint64 { return rotl(packed, ctrRot) }

func rotl(v uint64, r int) uint64 { return v<<r | v>>(64-r) }
func rotr(v uint64, r int) uint64 { return v>>r | v<<(64-r) }

// Counter is a shadow dynamic use counter for one tracked variable. Like the
// checksum accumulators, it is ordinary memory rather than the paper's
// register-resident state, so it carries its own redundant copy: the count
// and defined flag packed into one word and stored rotated. Both copies are
// updated independently; a transient fault in either diverges them, which the
// consuming operation (DefDyn/Final) or an explicit Scrub detects.
type Counter struct {
	n       int64
	defined bool
	// enc is encCounter(packed()) when uncorrupted. Updated by
	// decode-op-encode, never recomputed from the primary fields on the hot
	// path (that would launder a corrupted primary into the copy).
	enc uint64
}

// packed is the canonical single-word form of the primary state.
func (c *Counter) packed() uint64 {
	p := uint64(c.n) << 1
	if c.defined {
		p |= 1
	}
	return p
}

// State returns both copies of the counter verbatim: the packed primary
// (count shifted left of the defined flag) and the rotated redundant copy.
// Durable checkpoints persist both so that a divergence — detector-fault
// evidence — survives a process restart exactly as it stood.
func (c *Counter) State() (packed, enc uint64) { return c.packed(), c.enc }

// SetState installs both copies verbatim, the inverse of State. It does not
// re-derive enc from packed: that would launder a corrupted primary into the
// redundant copy. The caller vouches for the bytes (checkpoint digest).
func (c *Counter) SetState(packed, enc uint64) {
	c.n = int64(packed >> 1)
	c.defined = packed&1 == 1
	c.enc = enc
}

// Scrub cross-checks the counter's two copies. A non-nil result is a
// *DetectorFaultError: a fault struck the detector's own bookkeeping.
func (c *Counter) Scrub() error {
	if c.enc != encCounter(c.packed()) {
		return &DetectorFaultError{
			Part: "counter",
			Err: fmt.Errorf("use counter diverged from its encoded copy: %#x != %#x",
				c.packed(), rotr(c.enc, ctrRot)),
		}
	}
	return nil
}

// DetectorFaultError reports a fault in the detector's own state — a checksum
// accumulator or shadow use counter diverged from its redundant copy — as
// opposed to a *checksum.MismatchError, which reports corruption of the
// protected data. Recovery treats the two differently: detector state is
// rebuilt from the last sealed epoch rather than rolled back and re-executed.
type DetectorFaultError struct {
	// Part names the corrupted piece: "accumulator" or "counter".
	Part string
	// Err carries the underlying divergence detail.
	Err error
}

func (e *DetectorFaultError) Error() string {
	return fmt.Sprintf("rt: detector fault in %s: %v", e.Part, e.Err)
}

func (e *DetectorFaultError) Unwrap() error { return e.Err }

// Tracker holds the global checksum state for one instrumented function
// activation.
type Tracker struct {
	pair  *checksum.Pair
	folds checksum.Folds // pending deltas; see flushed
	// defs/uses count dynamic def and use operations; epoch is the current
	// epoch index (see epoch.go). Plain increments, kept on the hot path
	// because epoch snapshots need them and they stay within the benchmark
	// guard's noise budget.
	defs, uses uint64
	epoch      int
	// latched records the first detector fault observed at a point where the
	// evidence is about to be erased (DefDyn/Final reset the counter they
	// consume). ScrubDetector surfaces it; Reset and Rollback clear it.
	latched *DetectorFaultError
}

// NewTracker returns a tracker using the paper's modulo-addition operator.
func NewTracker() *Tracker { return NewTrackerWith(checksum.ModAdd) }

// NewTrackerWith returns a tracker using the given commutative operator.
func NewTrackerWith(k checksum.Kind) *Tracker {
	return &Tracker{pair: checksum.NewPair(k), folds: checksum.NewFolds(k)}
}

// flushed folds the pending deltas into the pair, for a reader, and returns it.
func (t *Tracker) flushed() *checksum.Pair {
	t.pair.Flush(&t.folds)
	return t.pair
}

// Def records a definition with a compile-time-known use count n: the stored
// value is folded into the def-checksum n times (Algorithm 3, known path).
// It returns v so the call can wrap an assignment's right-hand side.
func Def[T Word](t *Tracker, v T, n int64) T {
	t.def(Bits(v), n)
	return v
}

// DefDyn records a definition whose use count is unknown at compile time
// (Algorithm 3 lines 13-16): first the variable's previous value prev gets
// Final's adjustment against its counter, then the new value v is folded
// into def and e_def once each and the counter reset. The first definition
// of a variable has no previous value to adjust; the counter tracks that.
func DefDyn[T Word](t *Tracker, c *Counter, prev, v T) T {
	t.defDyn(c, Bits(prev), Bits(v))
	return v
}

// Use records a use of a dynamically counted variable: the observed value is
// folded into the use-checksum and the counter incremented. It returns v so
// reads can be wrapped in place.
func Use[T Word](t *Tracker, c *Counter, v T) T {
	t.use(c, Bits(v))
	return v
}

// UseKnown records a use of a statically counted value (no counter needed).
func UseKnown[T Word](t *Tracker, v T) T {
	t.useKnown(Bits(v))
	return v
}

// Final performs the epilogue adjustment for a dynamically counted variable
// (Algorithm 3 lines 21-22): its current value joins the def-checksum
// count-1 times and the auxiliary use-checksum once.
func Final[T Word](t *Tracker, c *Counter, v T) {
	t.final(c, Bits(v))
}

// The methods below do the entry points' folds on a value's bits. They are
// not generic because Go inlines Fold into an instantiated generic body only
// where the instantiating package imports checksum (addrsum, goinstr output
// import only rt); here it inlines once, for every caller.
func (t *Tracker) def(b uint64, n int64) {
	t.folds.Fold(checksum.AccDef, b, n)
	t.defs++
}

func (t *Tracker) defDyn(c *Counter, prev, b uint64) {
	t.final(c, prev)
	t.folds.Fold(checksum.AccDef, b, 1)
	t.folds.Fold(checksum.AccEDef, b, 1)
	t.defs++
	*c = Counter{defined: true, enc: encCounter(1)}
}

func (t *Tracker) use(c *Counter, b uint64) {
	t.folds.Fold(checksum.AccUse, b, 1)
	t.uses++
	c.n++
	// Increment the redundant copy in its decoded domain (packed n sits one
	// bit left of the defined flag, so +1 to n is +2 packed). Recomputing the
	// encoding from c.n instead would mask a corrupted primary.
	c.enc = encCounter(rotr(c.enc, ctrRot) + 2)
}

func (t *Tracker) useKnown(b uint64) {
	t.folds.Fold(checksum.AccUse, b, 1)
	t.uses++
}

func (t *Tracker) final(c *Counter, b uint64) {
	t.checkCounter(c)
	if !c.defined {
		return
	}
	t.folds.Fold(checksum.AccDef, b, c.n-1)
	t.folds.Fold(checksum.AccEUse, b, 1)
	*c = Counter{} // encCounter(0) == 0
}

// checkCounter validates a counter's redundant copy at the point where its
// value is consumed and then reset — the last moment the divergence is
// observable. A mismatch is latched on the tracker (first fault wins) rather
// than returned, keeping the instrumented call sites value-shaped; the
// boundary ScrubDetector surfaces it.
func (t *Tracker) checkCounter(c *Counter) {
	if c.enc != encCounter(c.packed()) && t.latched == nil {
		t.latched = &DetectorFaultError{
			Part: "counter",
			Err: fmt.Errorf("use counter diverged from its encoded copy at consumption: %#x != %#x",
				c.packed(), rotr(c.enc, ctrRot)),
		}
	}
}

// Verify compares the def/use and e_def/e_use checksums; a non-nil error is
// a detected memory corruption (*checksum.MismatchError).
func (t *Tracker) Verify() error {
	return t.flushed().Verify()
}

// MustVerify panics with the mismatch if a memory error was detected. The
// goinstr instrumenter inserts it in a deferred epilogue so that silent data
// corruption becomes a loud failure.
func (t *Tracker) MustVerify() {
	if err := t.Verify(); err != nil {
		panic(err)
	}
}

// ScrubDetector cross-checks the detector's own state: any counter fault
// latched by DefDyn/Final, then every checksum accumulator against its
// complement-encoded shadow copy. A non-nil result is a *DetectorFaultError —
// the detector itself was struck, so its verdicts (Verify, EndEpoch) cannot
// be trusted until the state is rebuilt from a sealed epoch snapshot.
func (t *Tracker) ScrubDetector() error {
	if t.latched != nil {
		return t.latched
	}
	if err := t.flushed().Scrub(); err != nil {
		return &DetectorFaultError{Part: "accumulator", Err: err}
	}
	return nil
}

// CorruptAccumulator flips one bit of the primary copy of the selected
// checksum accumulator, leaving its shadow copy intact. Fault-injection
// campaigns use it to aim a transient fault at the detector state, as it
// stands: pending deltas are flushed first.
func (t *Tracker) CorruptAccumulator(a checksum.Acc, bit uint) {
	t.flushed().CorruptPrimary(a, bit)
}

// CorruptCounter flips one bit of a counter's primary (packed) state, leaving
// its encoded copy intact — the footprint of a transient fault striking the
// shadow use counter. Bit 0 is the defined flag; bits 1+ are the count.
func CorruptCounter(c *Counter, bit uint) {
	p := c.packed() ^ 1<<(bit&63)
	c.n = int64(p >> 1)
	c.defined = p&1 == 1
}

// Reset clears all checksums and pending deltas, dynamic operation counters,
// the epoch index, and any latched detector fault for reuse.
func (t *Tracker) Reset() {
	t.pair.Reset()
	t.restore(EpochState{Shadow: t.pair.Shadows()})
}

// Checksums exposes the four accumulators (def, use, e_def, e_use) for
// inspection and testing.
func (t *Tracker) Checksums() (def, use, edef, euse uint64) {
	p := t.flushed()
	return p.Def, p.Use, p.EDef, p.EUse
}

// Kind returns the checksum operator the tracker folds with.
func (t *Tracker) Kind() checksum.Kind { return t.pair.Kind() }

// ShadowCopies exposes the raw (encoded) shadow copies of the four
// accumulators, indexed by checksum.Acc. Tests use it to assert that a
// resumed tracker carries byte-identical detector state.
func (t *Tracker) ShadowCopies() [4]uint64 { return t.flushed().Shadows() }

// CorruptBits is a test helper that flips the given bit of a float64's
// representation, simulating a memory error on a tracked variable.
func CorruptBits(v float64, bit uint) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ 1<<bit)
}
