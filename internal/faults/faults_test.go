package faults

import (
	"errors"
	"math/bits"
	"testing"

	"defuse/internal/checksum"
)

func TestPatternString(t *testing.T) {
	cases := map[Pattern]string{
		AllZero:    "all-0",
		AllOne:     "all-1",
		Random:     "random",
		Pattern(9): "faults.Pattern(9)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Pattern(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestFillPatterns(t *testing.T) {
	in := NewInjector(1)
	data := make([]uint64, 16)

	in.Fill(data, AllOne)
	for i, v := range data {
		if v != ^uint64(0) {
			t.Fatalf("AllOne: data[%d] = %#x", i, v)
		}
	}
	in.Fill(data, AllZero)
	for i, v := range data {
		if v != 0 {
			t.Fatalf("AllZero: data[%d] = %#x", i, v)
		}
	}
	in.Fill(data, Random)
	allSame := true
	for _, v := range data[1:] {
		if v != data[0] {
			allSame = false
			break
		}
	}
	if allSame {
		t.Error("Random fill produced constant data")
	}
}

func TestFlipBitsFlipsExactlyK(t *testing.T) {
	in := NewInjector(2)
	for _, k := range []int{1, 2, 3, 6, 17} {
		data := make([]uint64, 8)
		flips := in.FlipBits(data, k)
		if len(flips) != k {
			t.Fatalf("k=%d: got %d flips", k, len(flips))
		}
		total := 0
		for _, v := range data {
			total += bits.OnesCount64(v)
		}
		if total != k {
			t.Errorf("k=%d: %d bits set after flipping zeros", k, total)
		}
	}
}

func TestFlipBitsDistinctPositions(t *testing.T) {
	in := NewInjector(3)
	data := make([]uint64, 2)
	flips := in.FlipBits(data, 100) // 100 of 128 bits: collisions must be retried
	seen := map[[2]int]bool{}
	for _, f := range flips {
		key := [2]int{f.Word, f.Bit}
		if seen[key] {
			t.Fatalf("duplicate flip at %v", key)
		}
		seen[key] = true
	}
}

func TestFlipBitsPanicsWhenTooMany(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	in := NewInjector(4)
	in.FlipBits(make([]uint64, 1), 65)
}

func TestWrongAddressNeverReturnsSameIndex(t *testing.T) {
	in := NewInjector(6)
	for i := 0; i < 1000; i++ {
		idx := in.Intn(10)
		j, err := in.WrongAddress(idx, 10)
		if err != nil {
			t.Fatalf("WrongAddress: %v", err)
		}
		if j == idx {
			t.Fatal("WrongAddress returned the intended index")
		}
	}
}

// TestWrongAddressTinyMemory: a 1-word region has no wrong location; the
// injector reports a typed error (tallied as a skip by campaign cells)
// instead of panicking a worker.
func TestWrongAddressTinyMemory(t *testing.T) {
	for _, n := range []int{0, 1} {
		j, err := NewInjector(7).WrongAddress(0, n)
		var tooSmall *ErrRegionTooSmall
		if !errors.As(err, &tooSmall) {
			t.Fatalf("n=%d: error %v, want *ErrRegionTooSmall", n, err)
		}
		if tooSmall.Words != n {
			t.Fatalf("n=%d: error reports %d words", n, tooSmall.Words)
		}
		if j != 0 {
			t.Fatalf("n=%d: index %d, want the intended index back", n, j)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	a, b := NewInjector(42), NewInjector(42)
	da, db := make([]uint64, 32), make([]uint64, 32)
	a.Fill(da, Random)
	b.Fill(db, Random)
	for i := range da {
		if da[i] != db[i] {
			t.Fatal("same seed produced different data")
		}
	}
	fa := a.FlipBits(da, 5)
	fb := b.FlipBits(db, 5)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("same seed produced different flips")
		}
	}
}

// mustCell runs a Table 1 cell, failing the test on configuration errors.
func mustCell(tb testing.TB, words, flips int, p Pattern, dual bool, trials int, seed int64) CoverageResult {
	tb.Helper()
	r, err := Table1Cell(words, flips, p, dual, trials, seed)
	if err != nil {
		tb.Fatalf("Table1Cell: %v", err)
	}
	return r
}

func TestCoverageSingleBitAlwaysDetected(t *testing.T) {
	// 1-bit errors are always caught (paper Section 6.1); the experiment for
	// k=1 must therefore report zero undetected for every pattern and scheme.
	for _, p := range []Pattern{AllZero, AllOne, Random} {
		for _, dual := range []bool{false, true} {
			r := mustCell(t, 128, 1, p, dual, 2000, 11)
			if r.Undetected != 0 {
				t.Errorf("pattern=%v dual=%v: %d single-bit errors escaped", p, dual, r.Undetected)
			}
		}
	}
}

func TestCoverageTwoBitConstantPatternShape(t *testing.T) {
	// For all-0/all-1 data, two flips escape a single modadd checksum only in
	// the rare carry-aligned case; the rate must be well under 1% and the
	// dual scheme must do at least as well.
	for _, p := range []Pattern{AllZero, AllOne} {
		single := mustCell(t, 100, 2, p, false, 20000, 12)
		dual := mustCell(t, 100, 2, p, true, 20000, 12)
		if pct := single.UndetectedPercent(); pct > 1.0 {
			t.Errorf("%v single: %.3f%% undetected, want < 1%%", p, pct)
		}
		if dual.Undetected > single.Undetected {
			t.Errorf("%v: dual scheme (%d) worse than single (%d)", p, dual.Undetected, single.Undetected)
		}
	}
}

func TestCoverageRandomWorstForSingleChecksum(t *testing.T) {
	// Table 1: random data has the highest 2-bit escape rate under one
	// checksum (~0.76%), far above the constant patterns (~0.014-0.025%).
	rand2 := mustCell(t, 100, 2, Random, false, 30000, 13)
	zero2 := mustCell(t, 100, 2, AllZero, false, 30000, 13)
	if rand2.Undetected <= zero2.Undetected {
		t.Errorf("random (%d) should escape more than all-zero (%d)", rand2.Undetected, zero2.Undetected)
	}
	pct := rand2.UndetectedPercent()
	if pct < 0.3 || pct > 1.5 {
		t.Errorf("2-bit random escape rate %.3f%%, expected around 0.76%%", pct)
	}
}

func TestCoverageDualCatchesNearlyAll(t *testing.T) {
	// Table 1 "Two checksums": 3+ bit flips are fully detected; 2-bit random
	// escapes drop to ~0.02%.
	r3 := mustCell(t, 100, 3, Random, true, 20000, 14)
	if r3.Undetected != 0 {
		t.Errorf("3-bit flips with two checksums: %d escaped", r3.Undetected)
	}
	r2 := mustCell(t, 100, 2, Random, true, 50000, 14)
	if pct := r2.UndetectedPercent(); pct > 0.2 {
		t.Errorf("2-bit random with two checksums: %.3f%% undetected, want ~0.02%%", pct)
	}
}

func TestCoverageEscapeRateDropsWithMoreFlips(t *testing.T) {
	// The escape percentage approaches zero as flips increase (Section 6.1).
	two := mustCell(t, 100, 2, Random, false, 20000, 15).Undetected
	four := mustCell(t, 100, 4, Random, false, 20000, 15).Undetected
	six := mustCell(t, 100, 6, Random, false, 20000, 15).Undetected
	if !(two >= four && four >= six) {
		t.Errorf("escape counts should be non-increasing in flips: 2→%d 4→%d 6→%d", two, four, six)
	}
}

func TestCoverageResultString(t *testing.T) {
	r := mustCell(t, 100, 2, Random, true, 100, 16)
	if r.String() == "" {
		t.Error("empty result string")
	}
	if r.Trials != 100 {
		t.Errorf("Trials = %d", r.Trials)
	}
}

func TestRunCoverageRejectsInvalidConfig(t *testing.T) {
	// Satellite: degenerate configurations surface as errors, not as panics
	// or NaN percentages deep inside a campaign.
	for _, cfg := range []CoverageConfig{
		{Kind: checksum.ModAdd, Words: 0, BitFlips: 2, Trials: 1},
		{Kind: checksum.ModAdd, Words: 10, BitFlips: 2, Trials: 0},
		{Kind: checksum.ModAdd, Words: 10, BitFlips: 0, Trials: 1},
		{Kind: checksum.ModAdd, Words: 1, BitFlips: 65, Trials: 1},
		{Kind: checksum.ModAdd, Words: 10, BitFlips: 2, Trials: 1, Epochs: -1},
		{Kind: checksum.ModAdd, Words: 10, BitFlips: 2, Trials: 1, Recover: true},
		{Kind: checksum.ModAdd, Words: 10, BitFlips: 2, Trials: 1, EndOnlyVerify: true},
		{Kind: checksum.ModAdd, Words: 10, BitFlips: 2, Trials: 1, Epochs: 4, Dual: true},
	} {
		if _, err := RunCoverage(cfg); err == nil {
			t.Errorf("config %+v: expected error", cfg)
		}
	}
}

func TestCoverageXOROperatorWeakerThanModAdd(t *testing.T) {
	// Section 5 cites Maxino: integer addition has superior fault coverage to
	// XOR. Aligned 2-bit flips of opposite polarity always cancel under XOR
	// on random data, so its escape rate should exceed modadd's.
	xor, err := RunCoverage(CoverageConfig{Kind: checksum.XOR, Words: 100, BitFlips: 2, Pattern: Random, Trials: 30000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	add, err := RunCoverage(CoverageConfig{Kind: checksum.ModAdd, Words: 100, BitFlips: 2, Pattern: Random, Trials: 30000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if xor.Undetected <= add.Undetected {
		t.Errorf("xor (%d) should escape more than modadd (%d)", xor.Undetected, add.Undetected)
	}
}

func BenchmarkCoverage2BitRandom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := mustCell(b, 100, 2, Random, false, 100, int64(i))
		sink = r.Undetected
	}
}

var sink int
