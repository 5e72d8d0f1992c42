package dme

import (
	"errors"
	"testing"

	"defuse/internal/recovery"
	"defuse/internal/splitmix"
)

// step is the campaigns' bijective word update.
func step(v uint64) uint64 { return v*2862933555777941757 + 3037000493 }

// runEpoch advances every logical word once on a variant, optionally
// redirecting one load (wrongAt >= 0 reads partner instead of wrongAt).
func runEpoch(v *Variant, wrongAt, partner int) {
	for i := 0; i < v.Words(); i++ {
		src := i
		if i == wrongAt {
			src = partner
		}
		v.Store(i, step(v.Load(src)))
	}
}

func newPair(words int) (*Variant, *Variant) {
	a := NewVariant(words, 0)
	b := NewVariant(words, words/2)
	for i := 0; i < words; i++ {
		init := splitmix.Mix(uint64(i) + 7)
		a.Poke(i, init)
		b.Poke(i, init)
	}
	return a, b
}

func TestVariantLayoutDecorrelation(t *testing.T) {
	const words = 16
	a, b := newPair(words)
	if a.Shift() == b.Shift() {
		t.Fatal("variants share a layout shift — no decorrelation")
	}
	// No logical word may be co-located across the two variants: that is the
	// fault-independence argument.
	for i := 0; i < words; i++ {
		if a.phys(i) == b.phys(i) {
			t.Fatalf("logical word %d co-located at physical %d in both variants", i, a.phys(i))
		}
	}
	// Logical semantics are layout-independent.
	a.Store(3, 99)
	if a.Load(3) != 99 || a.Peek(3) != 99 {
		t.Fatal("logical store/load roundtrip broken under a shifted layout")
	}
}

func TestCrossCheckCleanAgreement(t *testing.T) {
	a, b := newPair(32)
	for e := 0; e < 4; e++ {
		runEpoch(a, -1, 0)
		runEpoch(b, -1, 0)
		if err := CrossCheck(a, b); err != nil {
			t.Fatalf("epoch %d: clean variants diverged: %v", e, err)
		}
	}
	if a.Accumulator() != b.Accumulator() || a.Stores() != b.Stores() {
		t.Fatal("clean variants disagree on accumulator or store count")
	}
}

func TestCrossCheckCatchesBitFlip(t *testing.T) {
	a, b := newPair(32)
	a.FlipBit(5, 40)
	runEpoch(a, -1, 0)
	runEpoch(b, -1, 0)
	err := CrossCheck(a, b)
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("cross-check returned %v, want *DivergenceError", err)
	}
	if de.RecoveryClass() != recovery.ClassData {
		t.Fatalf("divergence classified as %v, want ClassData", de.RecoveryClass())
	}
}

// TestCrossCheckCatchesAliasRedirect pins the cell the data checksums are
// blind to: a full read-modify-write redirected to a different valid word.
// Only variant A takes the fault, so the variants must diverge.
func TestCrossCheckCatchesAliasRedirect(t *testing.T) {
	a, b := newPair(32)
	runEpoch(a, 4, 9) // A's word 4 update reads word 9 instead
	runEpoch(b, -1, 0)
	if err := CrossCheck(a, b); err == nil {
		t.Fatal("aliased read-modify-write did not diverge the variants")
	}
}

// TestCrossCheckOutputAccumulatorPlacement: the accumulators catch
// wrong-placement faults even when the value multisets agree — two variants
// that stored the same values at traded logical indices must diverge.
func TestCrossCheckOutputAccumulator(t *testing.T) {
	a := NewVariant(4, 0)
	b := NewVariant(4, 2)
	a.Store(0, 111)
	a.Store(1, 222)
	b.Store(0, 222)
	b.Store(1, 111)
	err := CrossCheck(a, b)
	var de *DivergenceError
	if !errors.As(err, &de) || de.Site != "output" {
		t.Fatalf("traded stores returned %v, want output-accumulator divergence", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	a, _ := newPair(16)
	runEpoch(a, -1, 0)
	snap := a.Snapshot()
	wantAcc, wantStores := a.Accumulator(), a.Stores()

	runEpoch(a, 2, 7) // a faulty epoch to roll back
	if err := a.Restore(snap); err != nil {
		t.Fatalf("restore failed: %v", err)
	}
	if a.Accumulator() != wantAcc || a.Stores() != wantStores {
		t.Fatal("restore did not recover accumulator state")
	}
	// Re-executing the epoch cleanly from the checkpoint reconverges with a
	// clean twin.
	b := NewVariant(16, 8)
	for i := 0; i < 16; i++ {
		b.Poke(i, a.Peek(i))
	}
	runEpoch(a, -1, 0)
	runEpoch(b, -1, 0)
	for i := 0; i < 16; i++ {
		if a.Peek(i) != b.Peek(i) {
			t.Fatalf("word %d differs after rollback re-execution", i)
		}
	}

	// A tampered seal is refused by Restore and accepted by the unchecked
	// path (whose integrity is vouched for elsewhere).
	bad := snap
	bad.out ^= 1
	if err := a.Restore(bad); err == nil {
		t.Fatal("restore accepted a tampered snapshot")
	}
	if err := a.RestoreUnchecked(snap); err != nil {
		t.Fatalf("unchecked restore failed: %v", err)
	}
}

func TestNewVariantValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewVariant(0, ...) did not panic")
		}
	}()
	NewVariant(0, 1)
}

func TestCrossCheckSizeMismatch(t *testing.T) {
	if err := CrossCheck(NewVariant(4, 0), NewVariant(8, 1)); err == nil {
		t.Fatal("cross-check over mismatched regions did not error")
	}
}
