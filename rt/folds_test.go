package rt

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"defuse/internal/checksum"
)

// The tracker folds into a checksum.Folds delta and flushes it into its Pair
// before every read. These tests hold each entry point to the direct
// Pair.ScaleFold folds it stands for (the reference internal/checksum holds
// to a big-integer model) and pin the flush points: where a reader flushes,
// and where a restore discards pending deltas instead.

var commutative = []checksum.Kind{checksum.ModAdd, checksum.XOR, checksum.OnesComp}

// trackerAt returns a tracker of kind k whose accumulators start at start,
// with consistent shadows, and a reference Pair in the same state.
func trackerAt(k checksum.Kind, start [4]uint64) (*Tracker, *checksum.Pair) {
	tr := NewTrackerWith(k)
	tr.pair.SetAccumulators(start[0], start[1], start[2], start[3])
	ref := checksum.NewPair(k)
	ref.SetAccumulators(start[0], start[1], start[2], start[3])
	return tr, ref
}

// sameState fails unless the tracker's flushed accumulators and shadows are
// the reference pair's.
func sameState(t *testing.T, what string, tr *Tracker, ref *checksum.Pair) {
	t.Helper()
	d, u, ed, eu := tr.Checksums()
	if got, want := [4]uint64{d, u, ed, eu}, [4]uint64{ref.Def, ref.Use, ref.EDef, ref.EUse}; got != want {
		t.Fatalf("%s: accumulators %#x, want %#x", what, got, want)
	}
	if got, want := tr.ShadowCopies(), ref.Shadows(); got != want {
		t.Fatalf("%s: shadows %#x, want %#x", what, got, want)
	}
}

// counterAt returns a consistent counter holding a defined value used n
// times.
func counterAt(n int64) *Counter {
	c := &Counter{n: n, defined: true}
	c.enc = encCounter(c.packed())
	return c
}

// trackerOps are the entry points next to the ScaleFold folds of Algorithm 3
// each one stands for. The count-1 of the epilogue adjustment is int64
// arithmetic: it wraps at math.MinInt64.
var trackerOps = []struct {
	name string
	tr   func(tr *Tracker, prev, v uint64, n int64)
	ref  func(p *checksum.Pair, prev, v uint64, n int64)
}{
	{"Def", func(tr *Tracker, _, v uint64, n int64) { Def(tr, v, n) },
		func(p *checksum.Pair, _, v uint64, n int64) { p.ScaleFold(checksum.AccDef, v, n) }},
	{"UseKnown", func(tr *Tracker, _, v uint64, _ int64) { UseKnown(tr, v) },
		func(p *checksum.Pair, _, v uint64, _ int64) { p.ScaleFold(checksum.AccUse, v, 1) }},
	{"Use", func(tr *Tracker, _, v uint64, n int64) { Use(tr, counterAt(n), v) },
		func(p *checksum.Pair, _, v uint64, _ int64) { p.ScaleFold(checksum.AccUse, v, 1) }},
	{"DefDyn/first", func(tr *Tracker, prev, v uint64, _ int64) { DefDyn(tr, &Counter{}, prev, v) },
		func(p *checksum.Pair, _, v uint64, _ int64) {
			p.ScaleFold(checksum.AccDef, v, 1)
			p.ScaleFold(checksum.AccEDef, v, 1)
		}},
	{"DefDyn/overwrite", func(tr *Tracker, prev, v uint64, n int64) { DefDyn(tr, counterAt(n), prev, v) },
		func(p *checksum.Pair, prev, v uint64, n int64) {
			p.ScaleFold(checksum.AccDef, prev, n-1)
			p.ScaleFold(checksum.AccEUse, prev, 1)
			p.ScaleFold(checksum.AccDef, v, 1)
			p.ScaleFold(checksum.AccEDef, v, 1)
		}},
	{"Final", func(tr *Tracker, _, v uint64, n int64) { Final(tr, counterAt(n), v) },
		func(p *checksum.Pair, _, v uint64, n int64) {
			p.ScaleFold(checksum.AccDef, v, n-1)
			p.ScaleFold(checksum.AccEUse, v, 1)
		}},
	{"Final/undefined", func(tr *Tracker, _, v uint64, _ int64) { Final(tr, &Counter{}, v) },
		func(*checksum.Pair, uint64, uint64, int64) {}},
}

func TestTrackerFoldsMatchScaleFold(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	counts := []int64{math.MinInt64, -3, -1, 0, 1, 2, 3, math.MaxInt64}
	for _, k := range commutative {
		for _, op := range trackerOps {
			for _, n := range counts {
				for _, v := range []uint64{0, 1, ^uint64(0), r.Uint64(), r.Uint64()} {
					start := [4]uint64{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
					prev := r.Uint64()
					tr, ref := trackerAt(k, start)
					op.tr(tr, prev, v, n)
					op.ref(ref, prev, v, n)
					// A second fold on top of the first proves the deltas
					// compose, not just that one lands.
					op.tr(tr, v, prev, n)
					op.ref(ref, v, prev, n)
					sameState(t, k.String()+" "+op.name, tr, ref)
				}
			}
		}
	}
}

// TestCorruptAccumulatorFlushesFirst: a fault aimed at an accumulator while
// folds are pending strikes the flushed value, and the folds after it flush
// into the corrupted primary and the intact shadow alike, so ScrubDetector
// still reports the accumulator.
func TestCorruptAccumulatorFlushesFirst(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, k := range commutative {
		for a := checksum.AccDef; a <= checksum.AccEUse; a++ {
			for _, bit := range []uint{0, 31, 63} {
				tr, ref := trackerAt(k, [4]uint64{})
				for i := 0; i < 3; i++ {
					op := trackerOps[r.Intn(len(trackerOps))]
					prev, v, n := r.Uint64(), r.Uint64(), int64(r.Intn(4))
					op.tr(tr, prev, v, n)
					op.ref(ref, prev, v, n)
				}
				tr.CorruptAccumulator(a, bit)
				ref.CorruptPrimary(a, bit)
				for i := 0; i < 3; i++ {
					op := trackerOps[r.Intn(len(trackerOps))]
					prev, v, n := r.Uint64(), r.Uint64(), int64(r.Intn(4))
					op.tr(tr, prev, v, n)
					op.ref(ref, prev, v, n)
				}
				err := tr.ScrubDetector()
				var df *DetectorFaultError
				var se *checksum.ScrubError
				if !errors.As(err, &df) || df.Part != "accumulator" || !errors.As(err, &se) || se.Acc != a {
					t.Fatalf("%v %v bit %d: ScrubDetector = %v, want an accumulator fault on %v", k, a, bit, err, a)
				}
				// The scrub read the flushed primary.
				if want := [4]uint64{ref.Def, ref.Use, ref.EDef, ref.EUse}[a]; se.Primary != want {
					t.Fatalf("%v %v bit %d: scrub saw primary %#x, want %#x", k, a, bit, se.Primary, want)
				}
				sameState(t, k.String()+" corrupted "+a.String(), tr, ref)
			}
		}
	}
}

// TestRestoreDiscardsPendingFolds: folds pending at a Rollback (or its
// unchecked and cross-process forms) belong to the state being undone. The
// restored tracker reads exactly the sealed snapshot, shadows included, and
// a Reset with folds pending reads zero.
func TestRestoreDiscardsPendingFolds(t *testing.T) {
	restores := map[string]func(*Tracker, EpochState) error{
		"Rollback":          (*Tracker).Rollback,
		"RollbackUnchecked": (*Tracker).RollbackUnchecked,
		"Resume":            (*Tracker).Resume,
	}
	for _, k := range commutative {
		for name, restore := range restores {
			tr := NewTrackerWith(k)
			var c Counter
			DefDyn(tr, &c, 0.0, 1.5)
			Use(tr, &c, 1.5)
			s := tr.BeginEpoch()
			Use(tr, &c, 1.5)
			Final(tr, &c, 1.5)
			Def(tr, 2.5, 3)
			if err := restore(tr, s); err != nil {
				t.Fatalf("%v %s: %v", k, name, err)
			}
			d, u, ed, eu := tr.Checksums()
			if got, want := [4]uint64{d, u, ed, eu}, [4]uint64{s.Def, s.Use, s.EDef, s.EUse}; got != want {
				t.Fatalf("%v %s: checksums %#x, want the sealed %#x", k, name, got, want)
			}
			if got := tr.ShadowCopies(); got != s.Shadow {
				t.Fatalf("%v %s: shadows %#x, want the sealed %#x", k, name, got, s.Shadow)
			}
			if err := tr.ScrubDetector(); err != nil {
				t.Fatalf("%v %s: restored tracker fails scrub: %v", k, name, err)
			}
		}
		tr := NewTrackerWith(k)
		Def(tr, 4.5, 2)
		UseKnown(tr, 4.5)
		tr.Reset()
		if d, u, ed, eu := tr.Checksums(); d|u|ed|eu != 0 {
			t.Fatalf("%v: Reset with folds pending left %#x/%#x/%#x/%#x", k, d, u, ed, eu)
		}
	}
}

// refBits is Bits as it was written before it read the value's bits by size:
// one case per Word type.
func refBits[T Word](v T) uint64 {
	switch x := any(v).(type) {
	case float64:
		return math.Float64bits(x)
	case int:
		return uint64(x)
	case int64:
		return uint64(x)
	case uint64:
		return x
	case int32:
		return uint64(uint32(x))
	case uint32:
		return uint64(x)
	}
	panic("refBits: not a Word type")
}

func checkBits[T Word](t *testing.T, vs ...T) {
	t.Helper()
	for _, v := range vs {
		if got, want := Bits(v), refBits(v); got != want {
			t.Errorf("Bits(%T %v) = %#x, want %#x", v, v, got, want)
		}
	}
}

func TestBitsMatchesTypeSwitch(t *testing.T) {
	checkBits[int](t, 0, -1, math.MinInt, math.MaxInt)
	checkBits[int64](t, 0, -1, math.MinInt64, math.MaxInt64)
	checkBits[int32](t, 0, -1, math.MinInt32, math.MaxInt32)
	checkBits[uint64](t, 0, math.MaxUint64, 1<<63)
	checkBits[uint32](t, 0, math.MaxUint32, 1<<31)
	checkBits(t, 0, -1, -math.MaxFloat64, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), math.Inf(-1), math.Float64frombits(0x7ff80000deadbeef))
}
