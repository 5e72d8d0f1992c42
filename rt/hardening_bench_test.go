package rt

import (
	"sort"
	"testing"
	"time"

	"defuse/internal/checksum"
)

// The redundant-accumulator hardening keeps a shadow copy of every
// accumulator, updated by decode, combine and re-encode. Def and UseKnown
// fold into the tracker's delta and pay that replay once per accumulator at
// the next flush, not per fold. These benchmarks and the guard below pin the
// cost of the hardened path against the same delta folds flushed into
// unshadowed accumulators.

// unshadowed is the unhardened baseline for the tracker's Def/UseKnown path:
// the same delta folds and operation counters, but the delta flushes
// straight into bare primary accumulators, with no shadow copy at all.
type unshadowed struct {
	kind       checksum.Kind
	folds      checksum.Folds
	def, use   uint64 // the primaries
	defs, uses uint64
}

func newUnshadowed() *unshadowed {
	return &unshadowed{kind: checksum.ModAdd, folds: checksum.NewFolds(checksum.ModAdd)}
}

// defPrimaryOnly/usePrimaryOnly mirror Def/UseKnown: generic shells over
// non-generic folds, so Fold inlines into them the same way.
func defPrimaryOnly[T Word](u *unshadowed, v T, n int64) T {
	u.defFold(Bits(v), n)
	return v
}

func usePrimaryOnly[T Word](u *unshadowed, v T) T {
	u.useFold(Bits(v))
	return v
}

func (u *unshadowed) defFold(b uint64, n int64) {
	u.folds.Fold(checksum.AccDef, b, n)
	u.defs++
}

func (u *unshadowed) useFold(b uint64) {
	u.folds.Fold(checksum.AccUse, b, 1)
	u.uses++
}

// flush combines the deltas into the primaries and clears them.
func (u *unshadowed) flush() {
	u.def = checksum.ScaleCombine(u.kind, u.def, u.folds.Delta(checksum.AccDef), 1)
	u.use = checksum.ScaleCombine(u.kind, u.use, u.folds.Delta(checksum.AccUse), 1)
	u.folds = checksum.NewFolds(u.kind)
}

// primaryOnlyLoop is the unhardened baseline fold sequence.
func primaryOnlyLoop(u *unshadowed, n int) {
	v := 1.5
	for i := 0; i < n; i++ {
		v = defPrimaryOnly(u, v, 1)
		_ = usePrimaryOnly(u, v)
	}
	u.flush()
}

// shadowedLoop is the production hot path: Def/UseKnown fold into the
// delta, and the closing read flushes it into the primary and shadow copies.
func shadowedLoop(tr *Tracker, n int) {
	v := 1.5
	for i := 0; i < n; i++ {
		v = Def(tr, v, 1)
		_ = UseKnown(tr, v)
	}
	tr.Checksums()
}

func BenchmarkPairShadowed(b *testing.B) {
	tr := NewTracker()
	b.ReportAllocs()
	shadowedLoop(tr, b.N)
}

func BenchmarkPairPrimaryOnly(b *testing.B) {
	u := newUnshadowed()
	b.ReportAllocs()
	primaryOnlyLoop(u, b.N)
}

// pairRatios times pairs short runs of base and other back to back,
// alternating which side runs first, and returns the per-pair ratios
// other/base, sorted. Timing guards gate on the median: a neighbour
// process's burst lands on one short run at a time and shifts only the
// pairs it touches, which the median discards, and the alternation cancels
// any first-or-second bias — so the guard holds under a parallel
// `go test ./...`.
func pairRatios(pairs int, base, other func()) []float64 {
	timed := func(f func()) float64 {
		start := time.Now()
		f()
		return float64(time.Since(start))
	}
	timed(base) // warm both paths before measuring
	timed(other)
	ratios := make([]float64, pairs)
	for i := range ratios {
		var b, o float64
		if i%2 == 0 {
			b, o = timed(base), timed(other)
		} else {
			o, b = timed(other), timed(base)
		}
		ratios[i] = o / b
	}
	sort.Float64s(ratios)
	return ratios
}

// TestShadowedAccumulatorOverheadBudget guards the hardening's hot-path cost.
// The design budget is <=2x per fold (the shadow replay is one rotate-and-
// invert decode, the same combine, and one encode — all register arithmetic,
// no extra memory traffic beyond the adjacent shadow word). It gates on the
// median of interleaved pair ratios (pairRatios), which holds under a
// parallel `go test ./...`, against a 4x guard; the median is logged for
// inspection. A regression past 4x means the shadow update stopped being
// straight-line arithmetic (an allocation, a call, a branch miss) and the
// hardening needs to be re-examined.
func TestShadowedAccumulatorOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	hardened, baseline := NewTracker(), newUnshadowed()
	const ops, pairs = 1 << 14, 1001
	r := pairRatios(pairs,
		func() { primaryOnlyLoop(baseline, ops) },
		func() { shadowedLoop(hardened, ops) })
	ratio := r[pairs/2]
	t.Logf("median shadowed/primary-only ratio %.3f over %d pairs of %d ops (quartiles %.3f..%.3f, budget 2x, guard 4x)",
		ratio, pairs, ops, r[pairs/4], r[3*pairs/4])
	if ratio > 4 {
		t.Errorf("redundant-accumulator overhead ratio %.3f exceeds the 4x guard", ratio)
	}
}

// TestShadowedHotPathZeroAllocs pins that the shadow replay allocates
// nothing on the static or the dynamic path: the hardening must stay pure
// register/word arithmetic.
func TestShadowedHotPathZeroAllocs(t *testing.T) {
	tr := NewTracker()
	var c Counter
	allocs := testing.AllocsPerRun(100, func() {
		_ = UseKnown(tr, Def(tr, 1.25, 1))
		v := DefDyn(tr, &c, 1.25, 2.5)
		v = Use(tr, &c, v)
		Final(tr, &c, v)
		if err := tr.ScrubDetector(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("hardened def/use path allocates %.1f per run, want 0", allocs)
	}
}
