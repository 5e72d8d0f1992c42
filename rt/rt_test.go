package rt

import (
	"math"
	"math/rand"
	"testing"

	"defuse/internal/checksum"
)

func TestBitsFloat(t *testing.T) {
	if Bits(1.5) != math.Float64bits(1.5) {
		t.Error("float bits wrong")
	}
	if Bits(int(-1)) != ^uint64(0) {
		t.Error("int bits wrong")
	}
	if Bits(int64(7)) != 7 || Bits(uint64(7)) != 7 {
		t.Error("int64/uint64 bits wrong")
	}
	if Bits(int32(-1)) != 0xffffffff {
		t.Error("int32 bits should zero-extend the 32-bit pattern")
	}
	if Bits(uint32(5)) != 5 {
		t.Error("uint32 bits wrong")
	}
}

func TestStaticPathNoFalsePositive(t *testing.T) {
	tr := NewTracker()
	v := Def(tr, 3.25, 2)
	_ = UseKnown(tr, v)
	_ = UseKnown(tr, v)
	if err := tr.Verify(); err != nil {
		t.Errorf("false positive: %v", err)
	}
}

func TestStaticPathDetectsFlip(t *testing.T) {
	tr := NewTracker()
	v := Def(tr, 3.25, 2)
	_ = UseKnown(tr, v)
	_ = UseKnown(tr, CorruptBits(v, 40))
	if err := tr.Verify(); err == nil {
		t.Error("corrupted use escaped detection")
	}
}

func TestMustVerifyPanicsOnMismatch(t *testing.T) {
	tr := NewTracker()
	v := Def(tr, 1.5, 1)
	_ = UseKnown(tr, CorruptBits(v, 7))
	defer func() {
		if recover() == nil {
			t.Error("MustVerify did not panic on mismatch")
		}
	}()
	tr.MustVerify()
}

func TestDynamicPathFigure7(t *testing.T) {
	// The Figure 7 shape: def temp, two conditional uses, epilogue.
	tr := NewTracker()
	var cnt Counter
	temp := DefDyn(tr, &cnt, 0.0, 30.0)
	_ = Use(tr, &cnt, temp)
	_ = Use(tr, &cnt, temp)
	Final(tr, &cnt, temp)
	if err := tr.Verify(); err != nil {
		t.Errorf("false positive: %v", err)
	}
}

func TestDynamicPathZeroUses(t *testing.T) {
	tr := NewTracker()
	var cnt Counter
	temp := DefDyn(tr, &cnt, 0.0, 30.0)
	Final(tr, &cnt, temp)
	if err := tr.Verify(); err != nil {
		t.Errorf("false positive with zero uses: %v", err)
	}
}

func TestDynamicPathPersistentCorruption(t *testing.T) {
	// Section 4.1's escape scenario: corruption after the first use persists
	// through the epilogue. The primary checksums collide; e_def/e_use must
	// catch it.
	tr := NewTracker()
	var cnt Counter
	temp := DefDyn(tr, &cnt, 0.0, 30.0)
	_ = Use(tr, &cnt, temp)
	corrupted := CorruptBits(temp, 13)
	_ = Use(tr, &cnt, corrupted)
	Final(tr, &cnt, corrupted)
	def, use, edef, euse := tr.Checksums()
	if def != use {
		t.Fatal("scenario setup: primary checksums should collide")
	}
	if edef == euse {
		t.Fatal("auxiliary checksums should differ")
	}
	if err := tr.Verify(); err == nil {
		t.Error("persistent corruption escaped")
	}
}

func TestRedefinitionAdjustsPrevious(t *testing.T) {
	// x defined, used once, then redefined and used twice: the overwrite
	// must adjust the old value before folding the new one (Algorithm 3).
	tr := NewTracker()
	var cnt Counter
	x := DefDyn(tr, &cnt, 0.0, 1.0)
	_ = Use(tr, &cnt, x)
	old := x
	x = DefDyn(tr, &cnt, old, 2.0)
	_ = Use(tr, &cnt, x)
	_ = Use(tr, &cnt, x)
	Final(tr, &cnt, x)
	if err := tr.Verify(); err != nil {
		t.Errorf("false positive across redefinition: %v", err)
	}
}

func TestRedefinitionDetectsCorruptionOfOldValue(t *testing.T) {
	tr := NewTracker()
	var cnt Counter
	x := DefDyn(tr, &cnt, 0.0, 1.0)
	_ = Use(tr, &cnt, x)
	_ = Use(tr, &cnt, x)
	// Old value corrupts in memory before the redefinition observes it.
	corruptedOld := CorruptBits(x, 3)
	x = DefDyn(tr, &cnt, corruptedOld, 2.0)
	Final(tr, &cnt, x)
	if err := tr.Verify(); err == nil {
		t.Error("corruption of overwritten value escaped")
	}
}

func TestIntTracking(t *testing.T) {
	tr := NewTracker()
	var cnt Counter
	k := DefDyn(tr, &cnt, 0, 12345)
	_ = Use(tr, &cnt, k)
	Final(tr, &cnt, k)
	if err := tr.Verify(); err != nil {
		t.Errorf("int tracking false positive: %v", err)
	}
}

func TestTrackerReset(t *testing.T) {
	tr := NewTracker()
	Def(tr, 1.0, 5)
	tr.Reset()
	if err := tr.Verify(); err != nil {
		t.Errorf("reset tracker should verify: %v", err)
	}
}

func TestXORTracker(t *testing.T) {
	tr := NewTrackerWith(checksum.XOR)
	v := Def(tr, 2.5, 1)
	_ = UseKnown(tr, v)
	if err := tr.Verify(); err != nil {
		t.Errorf("xor tracker false positive: %v", err)
	}
}

func TestRandomizedWorkloadNoFalsePositives(t *testing.T) {
	// Property: arbitrary interleavings of defs/uses/redefs with correct
	// values never trip the verifier.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		tr := NewTracker()
		const nvars = 5
		var cnt [nvars]Counter
		var val [nvars]float64
		for step := 0; step < 50; step++ {
			i := rng.Intn(nvars)
			if rng.Intn(3) == 0 || !cnt[i].defined {
				nv := rng.Float64() * 100
				val[i] = DefDyn(tr, &cnt[i], val[i], nv)
			} else {
				_ = Use(tr, &cnt[i], val[i])
			}
		}
		for i := range cnt {
			Final(tr, &cnt[i], val[i])
		}
		if err := tr.Verify(); err != nil {
			t.Fatalf("trial %d: false positive: %v", trial, err)
		}
	}
}

func TestRandomizedSingleFlipAlwaysDetected(t *testing.T) {
	// Property: one bit flip on one use is always detected (1-bit errors are
	// always caught, Section 6.1).
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		tr := NewTracker()
		var cnt Counter
		v := DefDyn(tr, &cnt, 0.0, rng.Float64()*100+1)
		uses := rng.Intn(4) + 1
		flipAt := rng.Intn(uses)
		last := v
		for u := 0; u < uses; u++ {
			x := v
			if u == flipAt {
				x = CorruptBits(v, uint(rng.Intn(52))) // mantissa bits: value changes
				last = x
			}
			_ = Use(tr, &cnt, x)
		}
		// The fault is transient: the final observed value is the last read.
		if flipAt == uses-1 {
			Final(tr, &cnt, last)
		} else {
			Final(tr, &cnt, v)
		}
		if err := tr.Verify(); err == nil {
			t.Fatalf("trial %d: single flip escaped (uses=%d flipAt=%d)", trial, uses, flipAt)
		}
	}
}
