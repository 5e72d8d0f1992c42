package checksum

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// A Pair's one fold entry point is ScaleFold (Flush goes through it too),
// which has a ModAdd path of its own next to the generic ScaleCombine one.
// These tests hold it, on every accumulator and for every commutative
// operator, to a reference model computed in big integers from each
// operator's definition, primaries and encoded shadows alike. rt's tests hold
// the tracker's folds to ScaleFold.

var (
	two64     = new(big.Int).Lsh(big.NewInt(1), 64)
	onesMod64 = new(big.Int).Sub(two64, big.NewInt(1))
)

// refScale folds v into acc n times under k, from the operator's arithmetic:
// ModAdd is acc + v*n mod 2^64, XOR toggles v in when n is odd, and OnesComp
// is acc + v*n mod 2^64-1 with the residue 2^64-1 written as 0.
func refScale(k Kind, acc, v uint64, n int64) uint64 {
	switch k {
	case XOR:
		if n%2 != 0 {
			return acc ^ v
		}
		return acc
	case ModAdd, OnesComp:
		mod := two64
		if k == OnesComp {
			mod = onesMod64
		}
		r := new(big.Int).Mul(new(big.Int).SetUint64(v), big.NewInt(n))
		r.Add(r, new(big.Int).SetUint64(acc))
		return r.Mod(r, mod).Uint64()
	}
	panic("refScale: non-commutative operator")
}

// refShadow is the shadow encoding restated: the value rotated left by the
// accumulator's amount, then inverted.
func refShadow(v uint64, a Acc) uint64 {
	rot := [4]int{11, 23, 41, 53}[a]
	return ^bits.RotateLeft64(v, rot)
}

// refPair is the reference model of a Pair: four accumulators, no shadows
// (the expected shadows are the encodings of the expected accumulators).
type refPair struct {
	k   Kind
	acc [4]uint64
}

func (r *refPair) fold(a Acc, v uint64, n int64) { r.acc[a] = refScale(r.k, r.acc[a], v, n) }

// foldOp is one Pair entry point next to its reference model.
type foldOp struct {
	name string
	pair func(p *Pair, v uint64, n int64)
	ref  func(r *refPair, v uint64, n int64)
}

var foldOps = []foldOp{
	{"ScaleFold/def", func(p *Pair, v uint64, n int64) { p.ScaleFold(AccDef, v, n) },
		func(r *refPair, v uint64, n int64) { r.fold(AccDef, v, n) }},
	{"ScaleFold/use", func(p *Pair, v uint64, n int64) { p.ScaleFold(AccUse, v, n) },
		func(r *refPair, v uint64, n int64) { r.fold(AccUse, v, n) }},
	{"ScaleFold/e_def", func(p *Pair, v uint64, n int64) { p.ScaleFold(AccEDef, v, n) },
		func(r *refPair, v uint64, n int64) { r.fold(AccEDef, v, n) }},
	{"ScaleFold/e_use", func(p *Pair, v uint64, n int64) { p.ScaleFold(AccEUse, v, n) },
		func(r *refPair, v uint64, n int64) { r.fold(AccEUse, v, n) }},
}

var foldCounts = []int64{math.MinInt64, -3, -1, 0, 1, 2, 3, math.MaxInt64}

// checkFold starts a pair and the model from the same accumulators, applies
// op to both, and compares accumulators and encoded shadows.
func checkFold(t *testing.T, k Kind, op foldOp, start [4]uint64, v uint64, n int64) {
	t.Helper()
	p := NewPair(k)
	p.SetAccumulators(start[0], start[1], start[2], start[3])
	ref := refPair{k: k, acc: start}
	op.pair(p, v, n)
	op.ref(&ref, v, n)
	got := [4]uint64{p.Def, p.Use, p.EDef, p.EUse}
	var want [4]uint64
	for a := AccDef; a <= AccEUse; a++ {
		want[a] = refShadow(ref.acc[a], a)
	}
	if got != ref.acc {
		t.Fatalf("%v %s(v=%#x, n=%d) from %#x: accumulators %#x, want %#x", k, op.name, v, n, start, got, ref.acc)
	}
	if p.Shadows() != want {
		t.Fatalf("%v %s(v=%#x, n=%d) from %#x: shadows %#x, want %#x", k, op.name, v, n, start, p.Shadows(), want)
	}
}

// checkCombine compares Combine and ScaleCombine with the model.
func checkCombine(t *testing.T, k Kind, acc, v uint64, n int64) {
	t.Helper()
	if got, want := Combine(k, acc, v), refScale(k, acc, v, 1); got != want {
		t.Fatalf("Combine(%v, %#x, %#x) = %#x, want %#x", k, acc, v, got, want)
	}
	if got, want := ScaleCombine(k, acc, v, n), refScale(k, acc, v, n); got != want {
		t.Fatalf("ScaleCombine(%v, %#x, %#x, %d) = %#x, want %#x", k, acc, v, n, got, want)
	}
}

func TestFoldEntryPointsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, k := range commutativeKinds() {
		for _, op := range foldOps {
			for _, n := range foldCounts {
				for _, v := range []uint64{0, 1, ^uint64(0), r.Uint64(), r.Uint64(), r.Uint64()} {
					start := [4]uint64{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
					checkFold(t, k, op, start, v, n)
					checkCombine(t, k, r.Uint64(), v, n)
				}
			}
		}
	}
}

func FuzzPairFold(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(0x3ff8000000000000), int64(3), uint64(1), uint64(2), uint64(3), uint64(4))
	f.Add(uint8(1), uint8(6), ^uint64(0), int64(-1), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint8(2), uint8(7), uint64(1<<63), int64(math.MinInt64), ^uint64(0), uint64(5), ^uint64(1), uint64(7))
	f.Fuzz(func(t *testing.T, kind, op uint8, v uint64, n int64, def, use, edef, euse uint64) {
		kinds := commutativeKinds()
		k := kinds[int(kind)%len(kinds)]
		checkFold(t, k, foldOps[int(op)%len(foldOps)], [4]uint64{def, use, edef, euse}, v, n)
		checkCombine(t, k, def, v, n)
	})
}

// BenchmarkPairScaleFold is the per-fold cost under the interpreter's
// add_to_chksm (State.Fold), cycling through the accumulators. Compiled
// kernels and rt.Tracker pay it once per non-zero delta per flush
// (BenchmarkFoldsFold).
func BenchmarkPairScaleFold(b *testing.B) {
	p := NewPair(ModAdd)
	for i := 0; i < b.N; i++ {
		p.ScaleFold(Acc(i&3), uint64(i), 3)
	}
	sinkU64 = p.Def
}

// BenchmarkFoldsFold is the per-fold cost under a compiled kernel's
// add_to_chksm, cycling through the accumulators: an inlined delta update in
// place of a Pair.ScaleFold call.
func BenchmarkFoldsFold(b *testing.B) {
	p := NewPair(ModAdd)
	f := NewFolds(ModAdd)
	for i := 0; i < b.N; i++ {
		f.Fold(Acc(i&3), uint64(i), 3)
	}
	p.Flush(&f)
	sinkU64 = p.Def
}
