// Package faults injects transient memory faults into simulated memories,
// reproducing the fault model of Section 2.2 of the paper: undetected
// multi-bit errors in stored data and address-generation errors that make a
// load observe the wrong location.
//
// The injector is deterministic given its seed so experiments are
// reproducible.
package faults

import (
	"fmt"
	"math/rand"
	"strings"
)

// Pattern selects how experiment data is initialized, matching the three data
// columns of Table 1.
type Pattern int

// Data patterns used in the coverage experiments.
const (
	// AllZero initializes every bit to 0.
	AllZero Pattern = iota
	// AllOne initializes every bit to 1.
	AllOne
	// Random initializes bits uniformly at random.
	Random
)

var patternNames = map[Pattern]string{
	AllZero: "all-0",
	AllOne:  "all-1",
	Random:  "random",
}

// String returns the Table 1 column label for the pattern.
func (p Pattern) String() string { return enumName(patternNames, p, "Pattern") }

// enumName returns v's name in names, or typ(v) for an unnamed value.
func enumName[T ~int](names map[T]string, v T, typ string) string {
	if s, ok := names[v]; ok {
		return s
	}
	return fmt.Sprintf("faults.%s(%d)", typ, int(v))
}

// parseEnum resolves a name in names, whose values run densely from 0. The
// error for an unknown name lists every valid one in value order.
func parseEnum[T ~int](names map[T]string, s, what string) (T, error) {
	valid := make([]string, len(names))
	for v, name := range names {
		if name == s {
			return v, nil
		}
		valid[v] = name
	}
	return 0, fmt.Errorf("faults: unknown %s %q (%s)", what, s, strings.Join(valid, ", "))
}

// Injector produces reproducible fault injections.
type Injector struct {
	rng *rand.Rand
}

// NewInjector returns an injector seeded with seed.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Fill initializes data according to the pattern.
func (in *Injector) Fill(data []uint64, p Pattern) {
	switch p {
	case AllZero:
		for i := range data {
			data[i] = 0
		}
	case AllOne:
		for i := range data {
			data[i] = ^uint64(0)
		}
	case Random:
		for i := range data {
			data[i] = in.rng.Uint64()
		}
	default:
		panic(fmt.Sprintf("faults: unknown pattern %v", p))
	}
}

// BitFlip identifies a single flipped bit in a word array.
type BitFlip struct {
	Word int // index into the array
	Bit  int // bit position within the 64-bit word, 0 = LSB
}

// PickBits chooses exactly k distinct bit positions uniformly at random over
// all 64*words available positions, without touching any data. It panics if
// k exceeds the number of available bits.
func (in *Injector) PickBits(words, k int) []BitFlip {
	total := 64 * words
	if k > total {
		panic(fmt.Sprintf("faults: cannot flip %d bits in %d available", k, total))
	}
	flips := make([]BitFlip, 0, k)
	seen := make(map[int]bool, k)
	for len(flips) < k {
		pos := in.rng.Intn(total)
		if seen[pos] {
			continue
		}
		seen[pos] = true
		flips = append(flips, BitFlip{Word: pos / 64, Bit: pos % 64})
	}
	return flips
}

// FlipBits flips exactly k distinct bits chosen uniformly at random over all
// 64*len(data) bit positions and returns the flips applied. It panics if k
// exceeds the number of available bits.
func (in *Injector) FlipBits(data []uint64, k int) []BitFlip {
	flips := in.PickBits(len(data), k)
	for _, f := range flips {
		data[f.Word] ^= 1 << uint(f.Bit)
	}
	return flips
}

// ErrRegionTooSmall reports that an address fault cannot be modeled because
// the region has no second location to redirect to. Campaign cells over
// 1-word regions tally the skip instead of crashing a worker.
type ErrRegionTooSmall struct {
	Words int
}

func (e *ErrRegionTooSmall) Error() string {
	return fmt.Sprintf("faults: address fault needs at least 2 locations, region has %d", e.Words)
}

// WrongAddress models an address-generation error: an access intended for
// index idx instead touches a different uniformly chosen index in [0, n).
// With n < 2 there is no wrong location to pick, and a *ErrRegionTooSmall
// is returned instead of an index.
func (in *Injector) WrongAddress(idx, n int) (int, error) {
	if n < 2 {
		return idx, &ErrRegionTooSmall{Words: n}
	}
	for {
		j := in.rng.Intn(n)
		if j != idx {
			return j, nil
		}
	}
}

// Intn exposes the injector's deterministic random stream for experiment
// schedules (e.g., choosing which dynamic load to corrupt).
func (in *Injector) Intn(n int) int { return in.rng.Intn(n) }
