// Package addrsum checksums the *address stream* of an instrumented
// execution, complementing the data def/use checksums in internal/checksum.
//
// The data checksums protect the values that flow through memory, but they
// are structurally blind to one fault shape: an address-generation error
// that redirects a whole read-modify-write to a different *valid* tracked
// word. The load observes a legitimate value (so every use fold is a value
// the detector expects to see), the store writes the legitimately updated
// value back to the same wrong word (so the boundary finalize over actual
// memory balances exactly), and the def/use fold closes at zero while the
// program's final state is wrong — see DESIGN.md for the full ledger.
//
// Following PRESAGE (PAPERS.md), addrsum checksums the index stream itself
// with the paper's own def/use ledger: every read-modify-write defines the
// key of (intended index, intended index) for its two accesses and uses the
// keys of (intended index, effective index) of its load and its store. The
// intent side is derived from the register-resident index the program
// computed (redundantly recomputable from control flow); the seen side from
// the addresses the accesses actually touched. A clean execution folds the
// same keys into def and use; any redirect, bit-flipped index, swap, or
// aliased read-modify-write unbalances them with probability 1-2^-64 per
// access, regardless of what data the wrong location held.
//
// The ledger is a plain rt.Tracker using checksum.ModAdd, so shadow scrubs,
// verification, the sealed epoch state and its rollback are the data
// detector's own code. ModAdd is required, not a default (see Fold).
package addrsum

import (
	"defuse/internal/splitmix"
	"defuse/rt"
)

// Key binds an access's intended index to the index it actually touched.
// Binding the pair — rather than folding a plain multiset of effective
// addresses — is what catches swaps: two accesses that trade locations
// leave a multiset sum unchanged but diverge the pair-bound fold. The
// mixing is asymmetric in its arguments, so Key(i,j) != Key(j,i).
func Key(intent, effective int) uint64 {
	return splitmix.Mix(uint64(int64(intent))*splitmix.Golden ^ splitmix.Mix(uint64(int64(effective))))
}

// Fold records one read-modify-write of intended index i whose load touched
// index load and whose store touched index store: Key(i,i) joins the def
// checksum once per access and each access's Key(i, effective) joins the
// use checksum. Clean hardware passes load == store == i. Each side takes
// one fold call: under checksum.ModAdd, which t must use, one fold of count
// 2 or of a sum of two keys leaves the accumulator and its shadow exactly
// as two folds would. Under XOR the count-2 fold would cancel.
func Fold(t *rt.Tracker, i, load, store int) {
	rt.Def(t, Key(i, i), 2)
	rt.UseKnown(t, Key(i, load)+Key(i, store))
}
