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
// Following PRESAGE (PAPERS.md), addrsum checksums the index stream itself:
// every instrumented access folds a pair-bound key of (intended index,
// effective index) into per-stream accumulators. The intent side is derived
// from the register-resident index the program computed (redundantly
// recomputable from control flow); the seen side from the address the access
// actually touched. A clean execution folds identical keys into both sides;
// any redirect, bit-flipped index, swap, or aliased read-modify-write makes
// the two sides diverge with probability 1-2^-64 per access, regardless of
// what data the wrong location held.
//
// The accumulators mirror checksum.Pair's self-verification discipline:
// each stream keeps a shadow-encoded redundant copy (inverted and rotated,
// with rotations distinct from the data pair's so a single stuck-at fault
// cannot strike both detectors identically), and seals per-epoch state under a chained digest for
// checkpoint/rollback exactly like rt.EpochState.
package addrsum

import (
	"errors"
	"fmt"
	"math/bits"
)

// Stream identifies one of the four address accumulators.
type Stream int

const (
	// LoadIntent accumulates the key each load *meant* to touch.
	LoadIntent Stream = iota
	// LoadSeen accumulates the key each load actually touched.
	LoadSeen
	// StoreIntent accumulates the key each store *meant* to touch.
	StoreIntent
	// StoreSeen accumulates the key each store actually touched.
	StoreSeen

	numStreams
)

var streamNames = [numStreams]string{"load_intent", "load_seen", "store_intent", "store_seen"}

func (s Stream) String() string {
	if s < 0 || s >= numStreams {
		return fmt.Sprintf("Stream(%d)", int(s))
	}
	return streamNames[s]
}

// shadowRot holds per-stream rotation amounts for the shadow encoding.
// Deliberately disjoint from checksum.Pair's {11,23,41,53}: a fault model
// where one corruption pattern strikes several encoded words should never
// find the data and address detectors encoded the same way.
var shadowRot = [numStreams]int{7, 19, 37, 47}

func encShadow(v uint64, s Stream) uint64 { return ^bits.RotateLeft64(v, shadowRot[s]) }
func decShadow(e uint64, s Stream) uint64 { return bits.RotateLeft64(^e, -shadowRot[s]) }

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Key binds an access's intended index to the index it actually touched.
// Binding the pair — rather than folding a plain multiset of effective
// addresses — is what catches swaps: two accesses that trade locations
// leave a multiset sum unchanged but diverge the pair-bound fold. The
// mixing is asymmetric in its arguments, so Key(i,j) != Key(j,i).
func Key(intent, effective int) uint64 {
	return mix64(uint64(int64(intent))*0x9e3779b97f4a7c15 ^ mix64(uint64(int64(effective))))
}

// Tracker accumulates the four address streams with shadow-encoded
// redundant copies and carries the epoch index for seal/rollback.
type Tracker struct {
	acc    [numStreams]uint64
	shadow [numStreams]uint64
	loads  uint64
	stores uint64
	epoch  uint64
}

// NewTracker returns a zeroed tracker with freshly sealed shadows.
func NewTracker() *Tracker {
	t := &Tracker{}
	t.resealShadows()
	return t
}

func (t *Tracker) resealShadows() {
	for s := Stream(0); s < numStreams; s++ {
		t.shadow[s] = encShadow(t.acc[s], s)
	}
}

// fold adds key into stream s, updating primary and shadow together. The
// shadow is decoded, combined, and re-encoded — never recomputed from the
// primary — so a corrupted primary cannot silently heal its shadow.
func (t *Tracker) fold(s Stream, key uint64) {
	t.acc[s] += key
	t.shadow[s] = encShadow(decShadow(t.shadow[s], s)+key, s)
}

// Load folds one load: the program intended index intent, the access
// touched index effective. Clean hardware passes effective == intent.
func (t *Tracker) Load(intent, effective int) {
	t.fold(LoadIntent, Key(intent, intent))
	t.fold(LoadSeen, Key(intent, effective))
	t.loads++
}

// Store folds one store, mirroring Load.
func (t *Tracker) Store(intent, effective int) {
	t.fold(StoreIntent, Key(intent, intent))
	t.fold(StoreSeen, Key(intent, effective))
	t.stores++
}

// Accumulators returns the four primary accumulators
// (load intent/seen, store intent/seen).
func (t *Tracker) Accumulators() [4]uint64 { return t.acc }

// Shadows returns the encoded redundant copies, index-aligned with
// Accumulators.
func (t *Tracker) Shadows() [4]uint64 { return t.shadow }

// OpCounts returns the number of folded loads and stores.
func (t *Tracker) OpCounts() (loads, stores uint64) { return t.loads, t.stores }

// ScrubError reports a primary accumulator disagreeing with its shadow —
// evidence of a fault in the detector itself, not in the protected data.
type ScrubError struct {
	Stream  Stream
	Primary uint64
	Shadow  uint64 // decoded
}

func (e *ScrubError) Error() string {
	return fmt.Sprintf("addrsum: scrub: %v accumulator %#x disagrees with shadow %#x",
		e.Stream, e.Primary, e.Shadow)
}

// Scrub cross-checks every primary against its decoded shadow.
func (t *Tracker) Scrub() error {
	for s := Stream(0); s < numStreams; s++ {
		if dec := decShadow(t.shadow[s], s); dec != t.acc[s] {
			return &ScrubError{Stream: s, Primary: t.acc[s], Shadow: dec}
		}
	}
	return nil
}

// MismatchError reports an intent stream diverging from its seen stream:
// some access in the epoch touched a location other than the one the
// program computed.
type MismatchError struct {
	Op     string // "load" or "store"
	Intent uint64
	Seen   uint64
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("addrsum: %s stream mismatch: intent %#x != seen %#x", e.Op, e.Intent, e.Seen)
}

// Verify checks that both seen streams equal their intent streams.
func (t *Tracker) Verify() error {
	if t.acc[LoadIntent] != t.acc[LoadSeen] {
		return &MismatchError{Op: "load", Intent: t.acc[LoadIntent], Seen: t.acc[LoadSeen]}
	}
	if t.acc[StoreIntent] != t.acc[StoreSeen] {
		return &MismatchError{Op: "store", Intent: t.acc[StoreIntent], Seen: t.acc[StoreSeen]}
	}
	return nil
}

// CorruptAccumulator flips one bit of a primary accumulator without
// touching its shadow — the detector-targeted fault the campaigns aim at
// the address checker itself. Scrub must catch it.
func (t *Tracker) CorruptAccumulator(s Stream, bit int) {
	t.acc[s] ^= 1 << (uint(bit) % 64)
}

// Reset zeroes all streams, counts, and the epoch index, resealing shadows.
func (t *Tracker) Reset() {
	t.acc = [numStreams]uint64{}
	t.loads, t.stores, t.epoch = 0, 0, 0
	t.resealShadows()
}

// ErrCheckpointCorrupt is returned when a sealed epoch state fails its
// integrity digest — the checkpoint itself took the fault.
var ErrCheckpointCorrupt = errors.New("addrsum: epoch checkpoint failed integrity check")

// EpochState is a sealed snapshot of the tracker at an epoch boundary,
// mirroring rt.EpochState: restorable verbatim on rollback, protected by a
// chained digest so a corrupted checkpoint is detected before it is
// trusted. rt's own WAL-pinned encoding cannot grow, so the address state
// seals separately with its own 12-word layout.
type EpochState struct {
	Index  uint64
	Acc    [4]uint64
	Loads  uint64
	Stores uint64
	Shadow [4]uint64

	sealed bool
	digest uint64
}

func (st *EpochState) computeDigest() uint64 {
	h := uint64(0x5129af7a21dc9b3d) ^ st.Index
	for _, a := range st.Acc {
		h = mix64(h ^ a)
	}
	h = mix64(h ^ st.Loads)
	h = mix64(h ^ st.Stores)
	for _, s := range st.Shadow {
		h = mix64(h ^ s)
	}
	return h
}

// Verify checks the seal.
func (st *EpochState) Verify() error {
	if !st.sealed || st.digest != st.computeDigest() {
		return ErrCheckpointCorrupt
	}
	return nil
}

// Digest exposes the seal for tests and journaling.
func (st *EpochState) Digest() uint64 { return st.digest }

// EncodedEpochStateSize is the fixed byte length of an encoded EpochState:
// index, four accumulators, two op counts, four shadows, digest.
const EncodedEpochStateSize = 12 * 8

// Encode serializes the sealed state, digest included, little-endian.
func (st *EpochState) Encode() []byte {
	buf := make([]byte, 0, EncodedEpochStateSize)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(v>>(8*i)))
		}
	}
	put(st.Index)
	for _, a := range st.Acc {
		put(a)
	}
	put(st.Loads)
	put(st.Stores)
	for _, s := range st.Shadow {
		put(s)
	}
	put(st.digest)
	return buf
}

// DecodeEpochState reverses Encode and verifies the embedded digest.
func DecodeEpochState(buf []byte) (EpochState, error) {
	if len(buf) != EncodedEpochStateSize {
		return EpochState{}, fmt.Errorf("addrsum: encoded epoch state is %d bytes, want %d", len(buf), EncodedEpochStateSize)
	}
	get := func(off int) uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(buf[off+i]) << (8 * i)
		}
		return v
	}
	var st EpochState
	st.Index = get(0)
	for i := range st.Acc {
		st.Acc[i] = get(8 * (1 + i))
	}
	st.Loads = get(8 * 5)
	st.Stores = get(8 * 6)
	for i := range st.Shadow {
		st.Shadow[i] = get(8 * (7 + i))
	}
	st.digest = get(8 * 11)
	st.sealed = true
	if err := st.Verify(); err != nil {
		return EpochState{}, err
	}
	return st, nil
}

func (t *Tracker) snapshot() EpochState {
	st := EpochState{
		Index:  t.epoch,
		Acc:    t.acc,
		Loads:  t.loads,
		Stores: t.stores,
		Shadow: t.shadow,
		sealed: true,
	}
	st.digest = st.computeDigest()
	return st
}

// Epoch returns the current epoch index.
func (t *Tracker) Epoch() uint64 { return t.epoch }

// BeginEpoch seals and returns the tracker's state at the start of an
// epoch — the rollback point if the epoch fails verification.
func (t *Tracker) BeginEpoch() EpochState { return t.snapshot() }

// EndEpoch verifies the address streams at the epoch boundary. On success
// the epoch index advances and the newly sealed state is returned; on
// mismatch the tracker is left untouched for rollback.
func (t *Tracker) EndEpoch() (EpochState, error) {
	if err := t.Verify(); err != nil {
		return EpochState{}, err
	}
	t.epoch++
	return t.snapshot(), nil
}

func (t *Tracker) restore(st EpochState) {
	t.epoch = st.Index
	t.acc = st.Acc
	t.loads = st.Loads
	t.stores = st.Stores
	t.shadow = st.Shadow
}

// Rollback restores a sealed state after verifying its digest.
func (t *Tracker) Rollback(st EpochState) error {
	if err := st.Verify(); err != nil {
		return err
	}
	t.restore(st)
	return nil
}

// RollbackUnchecked restores without the digest check — for states whose
// integrity is vouched for elsewhere (e.g. just decoded from a CRC-framed
// WAL record).
func (t *Tracker) RollbackUnchecked(st EpochState) { t.restore(st) }
