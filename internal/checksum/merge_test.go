package checksum

import (
	"math/rand"
	"testing"
)

// Merge is the concurrency primitive underneath the interpreter's parallel
// executor: combining two Pairs must be exactly the fold that would have
// happened had every update landed on one Pair, shadows included, and any
// pre-merge divergence between a primary and its shadow must survive the
// merge (a detector fault may not be laundered away).

func TestMergeEquivalentToSingleFold(t *testing.T) {
	for _, k := range []Kind{ModAdd, XOR, OnesComp} {
		whole := NewPair(k)
		exercise(whole, rand.New(rand.NewSource(7)))
		exercise(whole, rand.New(rand.NewSource(8)))

		left, right := NewPair(k), NewPair(k)
		exercise(left, rand.New(rand.NewSource(7)))
		exercise(right, rand.New(rand.NewSource(8)))
		left.Merge(right)

		if left.Def != whole.Def || left.Use != whole.Use || left.EDef != whole.EDef || left.EUse != whole.EUse {
			t.Errorf("%v: merged accumulators differ from single-fold", k)
		}
		if left.Shadows() != whole.Shadows() {
			t.Errorf("%v: merged shadows differ from single-fold", k)
		}
		if err := left.Scrub(); err != nil {
			t.Errorf("%v: merged pair fails scrub: %v", k, err)
		}
	}
}

func TestMergeCommutes(t *testing.T) {
	for _, k := range []Kind{ModAdd, XOR, OnesComp} {
		a1, b1 := NewPair(k), NewPair(k)
		exercise(a1, rand.New(rand.NewSource(17)))
		exercise(b1, rand.New(rand.NewSource(18)))
		a2, b2 := NewPair(k), NewPair(k)
		exercise(a2, rand.New(rand.NewSource(17)))
		exercise(b2, rand.New(rand.NewSource(18)))

		a1.Merge(b1) // a ∪ b
		b2.Merge(a2) // b ∪ a
		if a1.Def != b2.Def || a1.Use != b2.Use || a1.EDef != b2.EDef || a1.EUse != b2.EUse ||
			a1.Shadows() != b2.Shadows() {
			t.Errorf("%v: Merge is not commutative", k)
		}
	}
}

// TestMergePreservesShadowDivergence corrupts one operand's primary (its
// shadow still encodes the true history) before the merge. If Merge combined
// primaries and then resealed shadows from them, the divergence would vanish
// and the detector fault would go undetected; decode-combine-re-encode keeps
// both lineages independent, so the merged pair still fails its scrub.
func TestMergePreservesShadowDivergence(t *testing.T) {
	for _, k := range []Kind{ModAdd, XOR, OnesComp} {
		for a := AccDef; a <= AccEUse; a++ {
			p, q := NewPair(k), NewPair(k)
			exercise(p, rand.New(rand.NewSource(29)))
			exercise(q, rand.New(rand.NewSource(30)))
			q.CorruptPrimary(a, 17)
			p.Merge(q)
			if err := p.Scrub(); err == nil {
				t.Errorf("%v/%v: scrub clean after merging a corrupted operand", k, a)
			}
			// The divergence must sit exactly on the corrupted accumulator.
			clean, dirty := NewPair(k), NewPair(k)
			exercise(clean, rand.New(rand.NewSource(29)))
			exercise(dirty, rand.New(rand.NewSource(30)))
			clean.Merge(dirty)
			if err := clean.Scrub(); err != nil {
				t.Fatalf("%v/%v: control merge fails scrub: %v", k, a, err)
			}
		}
	}
}

func TestMergeKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Merge across kinds did not panic")
		}
	}()
	NewPair(ModAdd).Merge(NewPair(XOR))
}
