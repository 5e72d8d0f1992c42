package checksum

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		ModAdd:     "modadd",
		XOR:        "xor",
		OnesComp:   "onescomp",
		Fletcher64: "fletcher64",
		Adler64:    "adler64",
		Kind(99):   "checksum.Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestCommutativeFlag(t *testing.T) {
	for _, k := range []Kind{ModAdd, XOR, OnesComp} {
		if !k.Commutative() {
			t.Errorf("%v should be commutative", k)
		}
	}
	for _, k := range []Kind{Fletcher64, Adler64} {
		if k.Commutative() {
			t.Errorf("%v should not be commutative", k)
		}
	}
}

func commutativeKinds() []Kind { return []Kind{ModAdd, XOR, OnesComp} }

func TestCombineCommutative(t *testing.T) {
	for _, k := range commutativeKinds() {
		f := func(a, b uint64) bool {
			return Combine(k, a, b) == Combine(k, b, a)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v not commutative: %v", k, err)
		}
	}
}

func TestCombineAssociative(t *testing.T) {
	for _, k := range commutativeKinds() {
		f := func(a, b, c uint64) bool {
			return Combine(k, Combine(k, a, b), c) == Combine(k, a, Combine(k, b, c))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v not associative: %v", k, err)
		}
	}
}

func TestCombineIdentity(t *testing.T) {
	for _, k := range commutativeKinds() {
		f := func(a uint64) bool {
			if k == OnesComp && a == onesCompMod {
				a = 0 // 2^64-1 ≡ 0 in one's-complement arithmetic
			}
			return Combine(k, 0, a) == a
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: zero is not identity: %v", k, err)
		}
	}
}

func TestScaleCombineMatchesRepeatedCombine(t *testing.T) {
	for _, k := range commutativeKinds() {
		f := func(acc, v uint64, nRaw uint8) bool {
			n := int64(nRaw % 17)
			want := acc
			for i := int64(0); i < n; i++ {
				want = Combine(k, want, v)
			}
			got := ScaleCombine(k, acc, v, n)
			if k == OnesComp {
				// Residues 0 and 2^64-1 coincide mod 2^64-1.
				return onesCompAdd(got, 0) == onesCompAdd(want, 0)
			}
			return got == want
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: ScaleCombine != repeated Combine: %v", k, err)
		}
	}
}

func TestScaleCombineNegativeCancels(t *testing.T) {
	for _, k := range commutativeKinds() {
		f := func(acc, v uint64, nRaw uint8) bool {
			n := int64(nRaw%13) + 1
			folded := ScaleCombine(k, acc, v, n)
			back := ScaleCombine(k, folded, v, -n)
			if k == OnesComp {
				return onesCompAdd(back, 0) == onesCompAdd(acc%onesCompMod, 0)
			}
			return back == acc
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: negative scale does not cancel: %v", k, err)
		}
	}
}

func TestCombinePanicsOnPositional(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Combine(Fletcher64, ...) should panic")
		}
	}()
	Combine(Fletcher64, 1, 2)
}

func TestScaleCombinePanicsOnPositional(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScaleCombine(Adler64, ...) should panic")
		}
	}()
	ScaleCombine(Adler64, 1, 2, 3)
}

func TestOnesCompAddKnown(t *testing.T) {
	// 0xffff...ffff acts as zero.
	if got := onesCompAdd(onesCompMod, 5); got != 5 {
		t.Errorf("onesCompAdd(max, 5) = %d, want 5", got)
	}
	// End-around carry: (2^64-2) + 3 = 2^64+1 ≡ 2 mod 2^64-1.
	if got := onesCompAdd(onesCompMod-1, 3); got != 2 {
		t.Errorf("onesCompAdd(max-1, 3) = %d, want 2", got)
	}
}

func TestSumOrderIndependenceCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]uint64, 257)
	for i := range data {
		data[i] = rng.Uint64()
	}
	shuffled := append([]uint64(nil), data...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, k := range commutativeKinds() {
		if Sum(k, data) != Sum(k, shuffled) {
			t.Errorf("%v: Sum depends on element order", k)
		}
	}
}

func TestFletcherPositionDependence(t *testing.T) {
	data := []uint64{1, 2, 3}
	swapped := []uint64{3, 2, 1}
	for _, k := range []Kind{Fletcher64, Adler64} {
		if Sum(k, data) == Sum(k, swapped) {
			t.Errorf("%v: expected position-dependent sums to differ", k)
		}
	}
}

func TestSumEmpty(t *testing.T) {
	for _, k := range []Kind{ModAdd, XOR, OnesComp, Fletcher64, Adler64} {
		if got := Sum(k, nil); got != 0 {
			t.Errorf("%v: Sum(nil) = %d, want 0", k, got)
		}
	}
}

func TestDualSumFirstMatchesSum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]uint64, 100)
	for i := range data {
		data[i] = rng.Uint64()
	}
	first, second := DualSum(ModAdd, data)
	if first != Sum(ModAdd, data) {
		t.Error("DualSum first component disagrees with Sum")
	}
	if second == first {
		t.Error("rotated second checksum should differ from first on random data")
	}
}

func TestDualSumCatchesAlignedTwoBitFlip(t *testing.T) {
	// The canonical escape for one modadd checksum: flip bit b of element i
	// from 0->1 and bit b of element j from 1->0; the sum is unchanged. The
	// rotated second checksum catches it when the two elements rotate by
	// different amounts.
	data := make([]uint64, 64)
	data[3] = 1 << 17 // bit 17 set
	// data[5] bit 17 clear
	f1, s1 := DualSum(ModAdd, data)
	data[3] &^= 1 << 17
	data[5] |= 1 << 17
	f2, s2 := DualSum(ModAdd, data)
	if f1 != f2 {
		t.Fatal("test setup wrong: single checksum should not change")
	}
	if s1 == s2 {
		t.Error("rotated checksum failed to catch aligned 2-bit flip")
	}
}

func TestRotation(t *testing.T) {
	if got := Rotation(0); got != 0 {
		t.Errorf("Rotation(0) = %d", got)
	}
	if got := Rotation(8); got != 1 {
		t.Errorf("Rotation(8) = %d, want 1", got)
	}
	if got := Rotation(8 * 31); got != 31 {
		t.Errorf("Rotation(8*31) = %d, want 31", got)
	}
	if got := Rotation(8 * 32); got != 0 {
		t.Errorf("Rotation(8*32) = %d, want 0 (wraps mod 32)", got)
	}
	for i := 0; i < 200; i++ {
		if RotateForIndex(i) != Rotation(uintptr(8*i)) {
			t.Fatalf("RotateForIndex(%d) disagrees with Rotation of its address", i)
		}
	}
}

// dynDef and dynFinal are Algorithm 3's two compositions for a dynamically
// counted variable, written out over ScaleFold: the def site folds the value
// into def and e_def once each, and the epilogue (or overwrite) folds the
// observed value into def n-1 more times and into e_use once. rt.Tracker
// performs the same folds through a Folds delta.
func dynDef(p *Pair, v uint64) {
	p.ScaleFold(AccDef, v, 1)
	p.ScaleFold(AccEDef, v, 1)
}

func dynFinal(p *Pair, v uint64, n int64) {
	p.ScaleFold(AccDef, v, n-1)
	p.ScaleFold(AccEUse, v, 1)
}

func TestPairNoErrorKnownCounts(t *testing.T) {
	for _, k := range commutativeKinds() {
		p := NewPair(k)
		// def v used 3 times, all reads correct.
		v := uint64(0xdeadbeefcafef00d)
		p.ScaleFold(AccDef, v, 3)
		p.ScaleFold(AccUse, v, 1)
		p.ScaleFold(AccUse, v, 1)
		p.ScaleFold(AccUse, v, 1)
		if err := p.Verify(); err != nil {
			t.Errorf("%v: false positive: %v", k, err)
		}
	}
}

func TestPairDetectsCorruptedUse(t *testing.T) {
	p := NewPair(ModAdd)
	v := uint64(42)
	p.ScaleFold(AccDef, v, 2)
	p.ScaleFold(AccUse, v, 1)
	p.ScaleFold(AccUse, v^1<<40, 1) // corrupted second read
	if err := p.Verify(); err == nil {
		t.Error("corrupted use not detected")
	}
}

func TestPairDynamicNoError(t *testing.T) {
	// Unknown-use-count path: def once, 3 uses, adjust with final value.
	p := NewPair(ModAdd)
	v := uint64(7)
	dynDef(p, v)
	for i := 0; i < 3; i++ {
		p.ScaleFold(AccUse, v, 1)
	}
	dynFinal(p, v, 3)
	if err := p.Verify(); err != nil {
		t.Errorf("false positive on dynamic path: %v", err)
	}
}

func TestPairDynamicZeroUses(t *testing.T) {
	// n = 0: the adjustment adds v "use_count - 1 = -1" times, cancelling the
	// def-site contribution; e_use gets v to balance e_def (paper Case 2a).
	p := NewPair(ModAdd)
	v := uint64(1234)
	dynDef(p, v)
	dynFinal(p, v, 0)
	if err := p.Verify(); err != nil {
		t.Errorf("false positive when value is never used: %v", err)
	}
}

func TestPairAuxiliaryCatchesPersistentCorruption(t *testing.T) {
	// Paper Section 4.1: value v corrupts to v' after the first of two uses
	// and stays corrupted. The primary pair matches (v + v' on both sides)
	// but the auxiliary pair catches it.
	p := NewPair(ModAdd)
	v := uint64(1000)
	vp := v ^ (1 << 13) // persistently corrupted value
	dynDef(p, v)
	p.ScaleFold(AccUse, v, 1)  // first use correct
	p.ScaleFold(AccUse, vp, 1) // second use corrupted
	dynFinal(p, vp, 2)
	if p.Def != p.Use {
		t.Fatal("scenario mismatch: primary checksums should collide here")
	}
	err := p.Verify()
	if err == nil {
		t.Fatal("persistent corruption escaped both checksum pairs")
	}
	me, ok := err.(*MismatchError)
	if !ok || me.Which != "e_def/e_use" {
		t.Errorf("expected e_def/e_use mismatch, got %v", err)
	}
}

func TestPairReset(t *testing.T) {
	p := NewPair(XOR)
	p.ScaleFold(AccDef, 9, 2)
	p.ScaleFold(AccUse, 9, 1)
	dynDef(p, 3)
	p.Reset()
	if p.Def != 0 || p.Use != 0 || p.EDef != 0 || p.EUse != 0 {
		t.Error("Reset did not zero all checksums")
	}
	if err := p.Verify(); err != nil {
		t.Errorf("zeroed pair should verify: %v", err)
	}
}

func TestNewPairRejectsPositional(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPair(Fletcher64) should panic")
		}
	}()
	NewPair(Fletcher64)
}

func TestMismatchErrorMessage(t *testing.T) {
	e := &MismatchError{Which: "def/use", Expected: 1, Observed: 2}
	if e.Error() == "" {
		t.Error("empty error message")
	}
}

func TestPairRandomizedNoFalsePositives(t *testing.T) {
	// Simulate many variables with random values and random use counts via
	// both the static and dynamic paths; with no injected errors Verify must
	// always pass (Theorem 5.1's no-false-positive direction).
	rng := rand.New(rand.NewSource(3))
	for _, k := range commutativeKinds() {
		for trial := 0; trial < 200; trial++ {
			p := NewPair(k)
			vars := rng.Intn(20) + 1
			for i := 0; i < vars; i++ {
				v := rng.Uint64()
				n := int64(rng.Intn(6))
				if rng.Intn(2) == 0 { // static path
					p.ScaleFold(AccDef, v, n)
					for j := int64(0); j < n; j++ {
						p.ScaleFold(AccUse, v, 1)
					}
				} else { // dynamic path
					dynDef(p, v)
					for j := int64(0); j < n; j++ {
						p.ScaleFold(AccUse, v, 1)
					}
					dynFinal(p, v, n)
				}
			}
			if err := p.Verify(); err != nil {
				t.Fatalf("%v trial %d: false positive: %v", k, trial, err)
			}
		}
	}
}

func TestPairSingleBitFlipAlwaysDetected(t *testing.T) {
	// One-bit errors are always caught by modadd (paper Section 6.1).
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		p := NewPair(ModAdd)
		v := rng.Uint64()
		n := int64(rng.Intn(4) + 1)
		p.ScaleFold(AccDef, v, n)
		flipAt := rng.Int63n(n)
		for j := int64(0); j < n; j++ {
			u := v
			if j == flipAt {
				u ^= 1 << uint(rng.Intn(64))
			}
			p.ScaleFold(AccUse, u, 1)
		}
		if err := p.Verify(); err == nil {
			t.Fatalf("trial %d: single-bit flip escaped detection", trial)
		}
	}
}

func BenchmarkCombineModAdd(b *testing.B) {
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc = Combine(ModAdd, acc, uint64(i))
	}
	sinkU64 = acc
}

func BenchmarkSumModAdd(b *testing.B) {
	data := make([]uint64, 4096)
	for i := range data {
		data[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU64 = Sum(ModAdd, data)
	}
}

func BenchmarkDualSumModAdd(b *testing.B) {
	data := make([]uint64, 4096)
	for i := range data {
		data[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, s := DualSum(ModAdd, data)
		sinkU64 = f ^ s
	}
}

var sinkU64 uint64
