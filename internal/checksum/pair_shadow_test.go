package checksum

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// exercise runs a representative mixed sequence of updates — known-count
// defs, uses, dynamic defs, epilogue adjustments, and folds into a random
// accumulator — so the shadow copies see every update path.
func exercise(p *Pair, r *rand.Rand) {
	for i := 0; i < 50; i++ {
		v := r.Uint64()
		switch i % 5 {
		case 0:
			p.ScaleFold(AccDef, v, int64(r.Intn(4)+1))
		case 1:
			p.ScaleFold(AccUse, v, 1)
		case 2:
			dynDef(p, v)
		case 3:
			dynFinal(p, v, int64(r.Intn(3)+1))
		case 4:
			p.ScaleFold(Acc(r.Intn(4)), v, int64(r.Intn(3)+1))
		}
	}
}

func TestShadowEncodingRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for a := AccDef; a <= AccEUse; a++ {
		for _, v := range []uint64{0, 1, ^uint64(0), r.Uint64(), r.Uint64()} {
			if got := decShadow(encShadow(v, a), a); got != v {
				t.Fatalf("%v: decShadow(encShadow(%#x)) = %#x", a, v, got)
			}
		}
	}
}

func TestShadowEncodingDiffersFromPrimary(t *testing.T) {
	// The encodings must not be the identity anywhere obvious: a fault model
	// that clears both words to zero must leave the copies inconsistent.
	for a := AccDef; a <= AccEUse; a++ {
		if decShadow(0, a) == 0 {
			t.Errorf("%v: a zeroed shadow decodes to a zeroed primary; whole-word clears would be invisible", a)
		}
	}
}

func TestScrubCleanAcrossOpsAndKinds(t *testing.T) {
	for _, k := range []Kind{ModAdd, XOR, OnesComp} {
		p := NewPair(k)
		if err := p.Scrub(); err != nil {
			t.Fatalf("%v: fresh pair scrub: %v", k, err)
		}
		r := rand.New(rand.NewSource(int64(k) + 7))
		for i := 0; i < 20; i++ {
			exercise(p, r)
			if err := p.Scrub(); err != nil {
				t.Fatalf("%v: scrub after clean updates: %v", k, err)
			}
		}
	}
}

func TestScrubDetectsCorruptPrimary(t *testing.T) {
	for a := AccDef; a <= AccEUse; a++ {
		for _, bit := range []uint{0, 17, 63} {
			p := NewPair(ModAdd)
			r := rand.New(rand.NewSource(int64(a)*64 + int64(bit)))
			exercise(p, r)
			p.CorruptPrimary(a, bit)
			// Every fold replays the shadow from its own previous value; one
			// that re-derived it from the primary would launder the fault.
			for i := 0; i < 1000; i++ {
				foldOps[r.Intn(len(foldOps))].pair(p, r.Uint64(), foldCounts[r.Intn(len(foldCounts))])
			}
			err := p.Scrub()
			if err == nil {
				t.Fatalf("%v bit %d: corrupt primary passed scrub", a, bit)
			}
			var se *ScrubError
			if !errors.As(err, &se) {
				t.Fatalf("%v: scrub error type %T", a, err)
			}
			if se.Acc != a {
				t.Errorf("scrub blamed %v, corrupted %v", se.Acc, a)
			}
			if se.Primary == se.Shadow {
				t.Errorf("%v: ScrubError carries equal copies %#x", a, se.Primary)
			}
		}
	}
}

func TestScrubDetectsCorruptShadow(t *testing.T) {
	// The cross-check is symmetric: a fault striking the shadow word instead
	// of the primary diverges the copies just the same.
	p := NewPair(ModAdd)
	exercise(p, rand.New(rand.NewSource(3)))
	p.shadow[AccUse] ^= 1 << 40
	var se *ScrubError
	if err := p.Scrub(); !errors.As(err, &se) || se.Acc != AccUse {
		t.Fatalf("scrub = %v, want ScrubError on use", err)
	}
}

func TestScrubSurvivesVerifyMismatch(t *testing.T) {
	// A data fault makes Verify fail but must leave Scrub clean: the two
	// checks separate "the data is wrong" from "the detector is wrong".
	p := NewPair(ModAdd)
	p.ScaleFold(AccDef, 42, 1)
	p.ScaleFold(AccUse, 43, 1) // corrupted use observation
	if err := p.Verify(); err == nil {
		t.Fatal("mismatched pair verified clean")
	}
	if err := p.Scrub(); err != nil {
		t.Fatalf("data fault tripped the detector self-check: %v", err)
	}
}

func TestSetAccumulatorsReseals(t *testing.T) {
	p := NewPair(XOR)
	exercise(p, rand.New(rand.NewSource(11)))
	p.CorruptPrimary(AccEDef, 5)
	p.SetAccumulators(1, 2, 3, 4)
	if p.Def != 1 || p.Use != 2 || p.EDef != 3 || p.EUse != 4 {
		t.Fatalf("SetAccumulators wrote %#x/%#x/%#x/%#x", p.Def, p.Use, p.EDef, p.EUse)
	}
	if err := p.Scrub(); err != nil {
		t.Fatalf("restore did not reseal shadows: %v", err)
	}
}

func TestResetReseals(t *testing.T) {
	p := NewPair(OnesComp)
	exercise(p, rand.New(rand.NewSource(13)))
	p.CorruptPrimary(AccDef, 60)
	p.Reset()
	if err := p.Scrub(); err != nil {
		t.Fatalf("Reset did not reseal shadows: %v", err)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("reset pair failed verify: %v", err)
	}
}

func TestScaleFoldMatchesNamedOps(t *testing.T) {
	// ScaleFold(a, v, n) must update exactly the accumulator a names, shadows
	// included: def += 99*3 and use += 7 leave the pair a restore of those
	// values would.
	a := NewPair(ModAdd)
	b := NewPair(ModAdd)
	a.SetAccumulators(99*3, 7, 0, 0)
	b.ScaleFold(AccDef, 99, 3)
	b.ScaleFold(AccUse, 7, 1)
	if *a != *b {
		t.Fatalf("ScaleFold diverged from the named accumulators: %+v vs %+v", a, b)
	}
	if err := b.Scrub(); err != nil {
		t.Fatal(err)
	}
}

func TestScrubErrorMessage(t *testing.T) {
	e := &ScrubError{Acc: AccEUse, Primary: 0x10, Shadow: 0x20}
	msg := e.Error()
	for _, want := range []string{"e_use", "0x10", "0x20", "detector fault"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}
