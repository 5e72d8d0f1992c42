package rt

import (
	"encoding/binary"
	"errors"
	"fmt"

	"defuse/internal/checksum"
	"defuse/internal/splitmix"
)

// This file implements epoch-scoped verification. The paper places the
// def == use comparison at a post-dominator of all defs and uses (program
// end), so a fault injected early is detected arbitrarily late. Epochs bound
// that detection window: the instrumented program brackets an iteration block
// with BeginEpoch/EndEpoch, finalizing its live tracked variables at the
// boundary so the checksums are quiescent there, and EndEpoch verifies them.
// A detected mismatch can then be repaired by rolling the protected state
// back to the sealed snapshot taken at the epoch's entry and re-executing
// only that epoch (see internal/recovery).

// ErrCheckpointCorrupt reports that a sealed checkpoint failed its integrity
// digest: a fault struck the checkpoint itself while it sat in memory waiting
// to be needed. Restoring it would replace live state with silently wrong
// state, so Rollback refuses; recovery escalates to a full restart instead.
var ErrCheckpointCorrupt = errors.New("checkpoint integrity digest mismatch")

// EpochState is a sealed snapshot of a Tracker at an epoch boundary: the
// four checksum accumulators plus the cumulative dynamic def/use operation
// counters, covered by an integrity digest computed at seal time. It is
// immutable once returned; Rollback accepts only sealed snapshots whose
// digest still verifies, so neither a zero EpochState nor a checkpoint hit
// by a fault while parked in memory can silently wipe a tracker.
type EpochState struct {
	// Index is the epoch this snapshot belongs to: for BeginEpoch the epoch
	// being entered, for EndEpoch the epoch just closed.
	Index int
	// Def, Use, EDef, EUse are the checksum accumulators at snapshot time.
	Def, Use, EDef, EUse uint64
	// Defs and Uses are the cumulative dynamic def/use operation counts.
	Defs, Uses uint64
	// Shadow holds the raw (encoded) shadow copies of the four accumulators,
	// indexed by checksum.Acc, captured exactly as they were at seal time.
	// Restoring them verbatim (rather than resealing from the primaries)
	// means a primary/shadow divergence — detector-fault evidence — survives
	// a checkpoint round trip, including across a process restart.
	Shadow [4]uint64

	sealed bool
	digest uint64
}

// Sealed reports whether the snapshot was produced by BeginEpoch/EndEpoch.
func (s EpochState) Sealed() bool { return s.sealed }

// computeDigest chains every covered field through the mixer. Chaining makes
// the digest order-sensitive, so swapping two accumulators is caught too.
func (s *EpochState) computeDigest() uint64 {
	h := uint64(splitmix.Golden)
	for _, w := range [...]uint64{
		uint64(s.Index), s.Def, s.Use, s.EDef, s.EUse, s.Defs, s.Uses,
		s.Shadow[0], s.Shadow[1], s.Shadow[2], s.Shadow[3],
	} {
		h = splitmix.Finalize(h ^ w)
	}
	return h
}

// Verify checks the snapshot's integrity: it must be sealed and its fields
// must still match the digest computed when it was sealed. A digest failure
// is reported as ErrCheckpointCorrupt (wrapped).
func (s EpochState) Verify() error {
	if !s.sealed {
		return errors.New("unsealed EpochState")
	}
	if s.digest != s.computeDigest() {
		return fmt.Errorf("epoch %d snapshot: %w", s.Index, ErrCheckpointCorrupt)
	}
	return nil
}

// EncodedEpochStateSize is the length of an EpochState's stable binary form:
// twelve little-endian uint64 words (index, four accumulators, two operation
// counters, four shadow words, digest).
const EncodedEpochStateSize = 12 * 8

// Encode renders a sealed snapshot in its stable binary form, digest last.
// The layout is versioned implicitly by the WAL file magic; the digest both
// authenticates the decoded fields and pins the field order.
func (s EpochState) Encode() ([]byte, error) {
	if !s.sealed {
		return nil, errors.New("rt: Encode of an unsealed EpochState")
	}
	b := make([]byte, EncodedEpochStateSize)
	for i, w := range [...]uint64{
		uint64(s.Index), s.Def, s.Use, s.EDef, s.EUse, s.Defs, s.Uses,
		s.Shadow[0], s.Shadow[1], s.Shadow[2], s.Shadow[3], s.digest,
	} {
		binary.LittleEndian.PutUint64(b[i*8:], w)
	}
	return b, nil
}

// DecodeEpochState parses the stable binary form and re-verifies the
// integrity digest against the decoded fields, so corruption of the bytes at
// rest (on disk, in a WAL frame that passed its CRC by coincidence) surfaces
// as ErrCheckpointCorrupt rather than as silently wrong tracker state. On
// success the snapshot is sealed and accepted by Resume/Rollback.
func DecodeEpochState(b []byte) (EpochState, error) {
	if len(b) != EncodedEpochStateSize {
		return EpochState{}, fmt.Errorf("rt: DecodeEpochState: %d bytes, want %d: %w",
			len(b), EncodedEpochStateSize, ErrCheckpointCorrupt)
	}
	w := func(i int) uint64 { return binary.LittleEndian.Uint64(b[i*8:]) }
	s := EpochState{
		Index: int(int64(w(0))),
		Def:   w(1), Use: w(2), EDef: w(3), EUse: w(4),
		Defs: w(5), Uses: w(6),
		Shadow: [4]uint64{w(7), w(8), w(9), w(10)},
		sealed: true,
		digest: w(11),
	}
	if err := s.Verify(); err != nil {
		return EpochState{}, err
	}
	return s, nil
}

// snapshot captures the tracker's current state as a sealed EpochState.
func (t *Tracker) snapshot() EpochState {
	p := t.flushed()
	s := EpochState{
		Index: t.epoch,
		Def:   p.Def, Use: p.Use,
		EDef: p.EDef, EUse: p.EUse,
		Defs: t.defs, Uses: t.uses,
		Shadow: p.Shadows(),
		sealed: true,
	}
	s.digest = s.computeDigest()
	return s
}

// Epoch returns the index of the epoch currently being accumulated. It
// starts at 0 and advances on every successful EndEpoch.
func (t *Tracker) Epoch() int { return t.epoch }

// OpCounts returns the cumulative dynamic def and use operation counts.
func (t *Tracker) OpCounts() (defs, uses uint64) { return t.defs, t.uses }

// BeginEpoch seals and returns a snapshot of the tracker at the entry of the
// current epoch. A recovery supervisor pairs it with a checkpoint of the
// protected memory: on an EndEpoch mismatch, Rollback plus a memory restore
// rewinds exactly one epoch for re-execution.
func (t *Tracker) BeginEpoch() EpochState { return t.snapshot() }

// EndEpoch verifies the checksums at an epoch boundary and seals the closing
// snapshot. The caller must have finalized (Final) every live dynamically
// counted variable first so the accumulators are quiescent — that finalize-
// at-the-boundary discipline is what preserves the paper's detection
// guarantee at epoch granularity. On a clean verification the epoch index
// advances; on a mismatch it does not, so a rolled-back re-execution closes
// the same epoch.
func (t *Tracker) EndEpoch() (EpochState, error) {
	err := t.Verify()
	s := t.snapshot()
	if err == nil {
		t.epoch++
	}
	return s, err
}

// Rollback restores the tracker to a sealed snapshot (checksums, dynamic
// operation counters, and epoch index), undoing every def/use recorded since
// it was taken and clearing any latched detector fault. It rejects unsealed
// snapshots, and refuses (with an error wrapping ErrCheckpointCorrupt) a
// snapshot whose integrity digest no longer matches its fields — restoring a
// corrupted checkpoint would be worse than the fault it repairs.
func (t *Tracker) Rollback(s EpochState) error {
	if err := s.Verify(); err != nil {
		return fmt.Errorf("rt: Rollback: %w", err)
	}
	t.restore(s)
	return nil
}

// RollbackUnchecked restores a sealed snapshot without verifying its
// integrity digest. It exists as the unhardened baseline for fault-injection
// experiments that measure what the digest buys; production callers should
// use Rollback.
func (t *Tracker) RollbackUnchecked(s EpochState) error {
	if !s.sealed {
		return fmt.Errorf("rt: Rollback of an unsealed EpochState")
	}
	t.restore(s)
	return nil
}

func (t *Tracker) restore(s EpochState) {
	// Install the shadow copies exactly as sealed rather than resealing from
	// the primaries: a consistent snapshot restores to a consistent pair
	// either way, but a divergence captured at seal time (detector-fault
	// evidence) must survive the round trip — resealing would launder it.
	// Pending deltas belong to the state being undone: discard them.
	t.pair.SetState(s.Def, s.Use, s.EDef, s.EUse, s.Shadow)
	t.folds = checksum.NewFolds(t.pair.Kind())
	t.defs, t.uses = s.Defs, s.Uses
	t.epoch = s.Index
	t.latched = nil
}

// Resume is Rollback for a snapshot that crossed a process boundary: it
// verifies the snapshot's integrity digest and installs it as the tracker's
// state (checksums, exact shadow copies, operation counters, epoch index).
// It is the entry point the durable supervisor uses after DecodeEpochState.
func (t *Tracker) Resume(s EpochState) error {
	if err := s.Verify(); err != nil {
		return fmt.Errorf("rt: Resume: %w", err)
	}
	t.restore(s)
	return nil
}
