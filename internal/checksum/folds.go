package checksum

import "fmt"

// Folds is a pending-delta file for a Pair: one running delta per
// accumulator, each starting at the operator's identity (zero for every
// commutative operator). Every compiled fold lands in one: the generated
// kernels hold a Folds in a local and rt.Tracker holds one in a field, and
// each flushes it into its Pair with Pair.Flush before anything reads the
// Pair. A ModAdd fold is then one multiply-add, inlined wherever the Go
// compiler inlines Fold, instead of a call that also decodes and re-encodes
// a shadow word. Only the interpreter, the reference, folds into the Pair
// directly (Pair.ScaleFold). Because every commutative operator is
// associative, folding a sequence of values into a delta and flushing the
// delta yields the same primaries and shadows, bit for bit, as folding each
// value into the Pair directly.
//
// The delta is the paper's register-resident accumulator (Section 5): it has
// no shadow copy and lives only between two flushes. The Pair it flushes
// into is the memory-resident state that Scrub cross-checks.
type Folds struct {
	kind Kind
	d    [4]uint64
}

// NewFolds returns an empty delta file for a Pair using operator k.
func NewFolds(k Kind) Folds { return Folds{kind: k} }

// Fold folds v into the selected accumulator's delta n times.
func (f *Folds) Fold(a Acc, v uint64, n int64) {
	if f.kind != ModAdd {
		f.scale(a, v, n)
		return
	}
	f.d[a] += v * uint64(n) // two's-complement wraparound handles n < 0
}

// Delta returns the pending delta of accumulator a.
func (f *Folds) Delta(a Acc) uint64 { return f.d[a] }

// scale is Fold's path for the operators other than ModAdd, kept out of
// line so that Fold inlines.
//
//go:noinline
func (f *Folds) scale(a Acc, v uint64, n int64) { f.d[a] = ScaleCombine(f.kind, f.d[a], v, n) }

// Flush folds every non-zero delta of f into its accumulator through
// ScaleFold, which updates the shadow copy by decode, fold and re-encode,
// and clears f. A primary corrupted since the last flush therefore stays
// diverged from its shadow, and Scrub still reports it. f must use the
// pair's operator.
func (p *Pair) Flush(f *Folds) {
	if f.kind != p.kind {
		panic(fmt.Sprintf("checksum: Flush of %v deltas into %v pair", f.kind, p.kind))
	}
	for a := AccDef; a <= AccEUse; a++ {
		if f.d[a] != 0 {
			p.ScaleFold(a, f.d[a], 1)
			f.d[a] = 0
		}
	}
}
