package checksum

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// Compiled kernels fold into a Folds and flush it into their Pair before
// anything reads the Pair. These tests hold that path to the direct one: a
// Pair that saw the same folds through ScaleFold must have the same
// primaries and encoded shadows, byte for byte, at every flush.

// deltaCounts mixes the counts add_to_chksm meets (small positive, zero,
// negative epilogue adjustments) with the int64 extremes.
var deltaCounts = []int64{math.MinInt64, -1 << 40, -7, -1, 0, 0, 1, 2, 3, 1 << 40, math.MaxInt64}

// samePair fails unless got and want hold identical primaries and shadows.
func samePair(t *testing.T, label string, got, want *Pair) {
	t.Helper()
	g := [4]uint64{got.Def, got.Use, got.EDef, got.EUse}
	w := [4]uint64{want.Def, want.Use, want.EDef, want.EUse}
	if g != w {
		t.Fatalf("%s: accumulators %#x, want %#x", label, g, w)
	}
	if got.Shadows() != want.Shadows() {
		t.Fatalf("%s: shadows %#x, want %#x", label, got.Shadows(), want.Shadows())
	}
}

func TestFoldsFlushMatchesScaleFold(t *testing.T) {
	for _, k := range commutativeKinds() {
		r := rand.New(rand.NewSource(int64(k) + 19))
		for round := 0; round < 20; round++ {
			direct, flushed := NewPair(k), NewPair(k)
			// Start both from the same canonical, non-zero accumulators.
			start := [4]uint64{}
			for a := range start {
				start[a] = ScaleCombine(k, 0, r.Uint64(), 1)
			}
			direct.SetAccumulators(start[0], start[1], start[2], start[3])
			flushed.SetAccumulators(start[0], start[1], start[2], start[3])
			f := NewFolds(k)
			for flush := 0; flush < 5; flush++ {
				for i := r.Intn(40); i > 0; i-- {
					a := Acc(r.Intn(4))
					v := r.Uint64()
					if r.Intn(8) == 0 {
						v = 0
					}
					n := deltaCounts[r.Intn(len(deltaCounts))]
					direct.ScaleFold(a, v, n)
					f.Fold(a, v, n)
				}
				flushed.Flush(&f)
				samePair(t, k.String(), flushed, direct)
				if f != NewFolds(k) {
					t.Fatalf("%v: Flush left deltas %#x", k, f.d)
				}
			}
		}
	}
}

func TestFlushOfZeroDeltaChangesNothing(t *testing.T) {
	for _, k := range commutativeKinds() {
		p := NewPair(k)
		exercise(p, rand.New(rand.NewSource(int64(k)+23)))
		// A diverged pair must stay diverged: a zero flush reseals nothing.
		p.CorruptPrimary(AccUse, 9)
		want := *p

		f := NewFolds(k)
		p.Flush(&f)
		samePair(t, k.String()+" empty", p, &want)

		// Folds that cancel out leave a zero delta too.
		f.Fold(AccDef, 12345, 3)
		f.Fold(AccDef, 12345, -3)
		f.Fold(AccEUse, 99, 0)
		p.Flush(&f)
		samePair(t, k.String()+" cancelled", p, &want)
	}
}

func TestScrubCatchesCorruptionBetweenFlushes(t *testing.T) {
	for _, k := range commutativeKinds() {
		for a := AccDef; a <= AccEUse; a++ {
			r := rand.New(rand.NewSource(int64(k)*8 + int64(a)))
			p := NewPair(k)
			f := NewFolds(k)
			fold := func() {
				for i := 0; i < 200; i++ {
					f.Fold(Acc(r.Intn(4)), r.Uint64(), deltaCounts[r.Intn(len(deltaCounts))])
				}
			}
			fold()
			p.Flush(&f)
			// The fault strikes the memory-resident pair mid-epoch, while
			// the next deltas are still pending.
			fold()
			p.CorruptPrimary(a, 33)
			fold()
			p.Flush(&f)
			var se *ScrubError
			if err := p.Scrub(); !errors.As(err, &se) || se.Acc != a {
				t.Fatalf("%v: corrupted %v, scrub = %v", k, a, err)
			}
		}
	}
}

func TestFlushRefusesOtherOperator(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Flush of XOR deltas into a ModAdd pair did not panic")
		}
	}()
	f := NewFolds(XOR)
	NewPair(ModAdd).Flush(&f)
}
