// Package dme implements divergent dual execution: the same kernel runs
// twice over structurally decorrelated memory layouts, and the two runs are
// cross-checked at epoch boundaries.
//
// Checksums (internal/checksum, internal/addrsum) detect faults by balancing
// a ledger over one execution. DME instead removes the single point of
// failure: variant A and variant B place every logical word at *different*
// physical locations (a rotated layout), so no single physical fault — a
// stuck bit, a corrupted cache line, a wrong-address store — can corrupt
// both variants into the same wrong logical state. A fault that strikes one
// variant diverges it from the other, and the boundary cross-check (cheap
// output accumulators first, then a full logical sweep) reports exactly
// which logical word disagrees. This mirrors the DME design in PAPERS.md:
// duplicated execution with diversified data placement, verified at
// synchronization points.
//
// Variant is one replica: a simulated memory with a rotated layout and a
// fold-on-store output accumulator. internal/faults' DME backend runs its
// workload on two of them and calls CrossCheck at every verified boundary.
package dme

import (
	"fmt"

	"defuse/internal/memsim"
	"defuse/internal/recovery"
	"defuse/internal/splitmix"
)

// foldKey binds a store's logical index to the value it wrote. Folding the
// bound pair (not just the value) makes the output accumulator sensitive to
// *where* results landed, so two variants that computed the same multiset of
// values in the wrong places still diverge.
func foldKey(index int, value uint64) uint64 {
	return splitmix.Mix(uint64(int64(index))*splitmix.Golden ^ splitmix.Mix(value))
}

// DivergenceError reports the two variants disagreeing at a cross-check.
type DivergenceError struct {
	// Site is "output" for the store-stream accumulators or "word" for the
	// full-sweep comparison.
	Site string
	// Word is the logical index that diverged (full sweep only).
	Word int
	// A and B are the disagreeing values.
	A, B uint64
}

// RecoveryClass classifies a divergence as protected-data corruption for the
// recovery supervisor: roll both variants back and re-execute the epoch.
func (e *DivergenceError) RecoveryClass() recovery.FaultClass { return recovery.ClassData }

func (e *DivergenceError) Error() string {
	if e.Site == "output" {
		return fmt.Sprintf("dme: output accumulators diverged: A %#x != B %#x", e.A, e.B)
	}
	return fmt.Sprintf("dme: variants diverged at %s[%d]: A %#x != B %#x", e.Site, e.Word, e.A, e.B)
}

// Variant is one execution replica: a simulated memory whose logical indices
// are rotated to distinct physical locations, plus an output accumulator
// folding every store. Two variants with different shifts never co-locate a
// logical word (for shifts distinct mod words), which is the decorrelation
// DME's fault-independence argument rests on.
type Variant struct {
	words  int
	shift  int
	mem    *memsim.Memory
	out    uint64
	stores uint64
}

// NewVariant returns a variant over words logical words with the given
// layout rotation. Shift 0 is the identity layout.
func NewVariant(words, shift int) *Variant {
	if words <= 0 {
		panic(fmt.Sprintf("dme: variant needs at least 1 word, got %d", words))
	}
	return &Variant{words: words, shift: ((shift % words) + words) % words, mem: memsim.New(words)}
}

// phys maps a logical index to its physical location in this variant.
func (v *Variant) phys(i int) int { return (i + v.shift) % v.words }

// Words returns the logical region size.
func (v *Variant) Words() int { return v.words }

// Shift returns the layout rotation.
func (v *Variant) Shift() int { return v.shift }

// Load reads logical word i through the counted access path.
func (v *Variant) Load(i int) uint64 { return v.mem.Load(v.phys(i)) }

// Store writes logical word i and folds the (index, value) pair into the
// output accumulator.
func (v *Variant) Store(i int, val uint64) {
	v.mem.Store(v.phys(i), val)
	v.out += foldKey(i, val)
	v.stores++
}

// Peek reads logical word i without counting an access or folding.
func (v *Variant) Peek(i int) uint64 { return v.mem.Peek(v.phys(i)) }

// Poke initializes logical word i without counting or folding.
func (v *Variant) Poke(i int, val uint64) { v.mem.Poke(v.phys(i), val) }

// FlipBit corrupts one bit of logical word i in place — the injection hook
// for fault campaigns. The flip lands at this variant's physical location,
// so the same logical coordinates strike different physical words in A and B.
func (v *Variant) FlipBit(i, bit int) { v.mem.FlipBit(v.phys(i), bit) }

// Accumulator returns the output accumulator.
func (v *Variant) Accumulator() uint64 { return v.out }

// Stores returns the number of folded stores.
func (v *Variant) Stores() uint64 { return v.stores }

// ErrSnapshotCorrupt is returned when a sealed variant snapshot fails its
// integrity digest.
var errSnapshotCorrupt = fmt.Errorf("dme: variant snapshot failed integrity check")

// Snapshot is a sealed copy of a variant's state at an epoch boundary.
type Snapshot struct {
	mem    memsim.Snapshot
	out    uint64
	stores uint64
	digest uint64
}

// Snapshot seals the variant's current state for rollback.
func (v *Variant) Snapshot() Snapshot {
	s := Snapshot{mem: v.mem.Snapshot(), out: v.out, stores: v.stores}
	s.digest = splitmix.Mix(s.out) ^ splitmix.Mix(s.stores^0x5bd1e995)
	return s
}

// Restore rolls the variant back to a sealed snapshot, verifying both the
// accumulator seal and the memory snapshot's own integrity check.
func (v *Variant) Restore(s Snapshot) error {
	if s.digest != splitmix.Mix(s.out)^splitmix.Mix(s.stores^0x5bd1e995) {
		return errSnapshotCorrupt
	}
	if err := v.mem.Restore(s.mem); err != nil {
		return err
	}
	v.out, v.stores = s.out, s.stores
	return nil
}

// RestoreUnchecked rolls back without integrity checks — the unhardened
// baseline the detector-fault campaigns compare against.
func (v *Variant) RestoreUnchecked(s Snapshot) error {
	if err := v.mem.RestoreUnchecked(s.mem); err != nil {
		return err
	}
	v.out, v.stores = s.out, s.stores
	return nil
}

// CrossCheck compares two variants at a synchronization point: the output
// accumulators first (one comparison covering every store since the last
// check), then a full sweep of the logical contents so a divergence is
// pinned to a word. The variants' layouts may differ; only logical content
// is compared.
func CrossCheck(a, b *Variant) error {
	if a.words != b.words {
		return fmt.Errorf("dme: cross-check over mismatched regions: %d vs %d words", a.words, b.words)
	}
	if a.out != b.out {
		return &DivergenceError{Site: "output", A: a.out, B: b.out}
	}
	for i := 0; i < a.words; i++ {
		if va, vb := a.Peek(i), b.Peek(i); va != vb {
			return &DivergenceError{Site: "word", Word: i, A: va, B: vb}
		}
	}
	return nil
}
