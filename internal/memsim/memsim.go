// Package memsim simulates the memory subsystem of the paper's fault model
// (Section 2.2): a word-addressed store that is vulnerable to bit flips
// between a write and a subsequent read, while processor state (registers,
// ALU) is assumed resilient. The interpreter executes programs against this
// memory, and fault-injection experiments corrupt words between operations.
package memsim

import (
	"encoding/binary"
	"errors"
	"fmt"

	"defuse/internal/splitmix"
)

// Memory is a flat word-addressed memory with load/store accounting and an
// optional load hook for modeling in-flight corruption.
type Memory struct {
	words  []uint64
	loads  uint64
	stores uint64

	// loadHook, when set, may substitute the value observed by a load
	// (modeling a fault in the data path or address logic).
	loadHook func(addr int, raw uint64) uint64

	// faultHook, when set, observes every FlipBit call, so experiment
	// harnesses can stream fault-injection telemetry without wrapping
	// every injection site.
	faultHook func(addr, bit int)

	// accessHook, when set, observes the address of every Load/Store;
	// the codegen reload and durable oracle tests use it to see which
	// words a kernel touches.
	accessHook func(store bool, addr int)
}

// New returns a memory with the given capacity in 64-bit words.
func New(words int) *Memory {
	return &Memory{words: make([]uint64, words)}
}

// Size returns the memory capacity in words.
func (m *Memory) Size() int { return len(m.words) }

// Load reads the word at addr.
func (m *Memory) Load(addr int) uint64 {
	if addr < 0 || addr >= len(m.words) {
		panic(fmt.Sprintf("memsim: load out of bounds: %d of %d", addr, len(m.words)))
	}
	m.loads++
	raw := m.words[addr]
	if m.accessHook != nil {
		m.accessHook(false, addr)
	}
	if m.loadHook != nil {
		raw = m.loadHook(addr, raw)
	}
	return raw
}

// Store writes the word at addr.
func (m *Memory) Store(addr int, v uint64) {
	if addr < 0 || addr >= len(m.words) {
		panic(fmt.Sprintf("memsim: store out of bounds: %d of %d", addr, len(m.words)))
	}
	m.stores++
	if m.accessHook != nil {
		m.accessHook(true, addr)
	}
	m.words[addr] = v
}

// Peek reads a word without counting it as a program load (experiment
// harness use).
func (m *Memory) Peek(addr int) uint64 { return m.words[addr] }

// Words returns a copy of the full memory image. Differential harnesses use
// it to assert byte-identical state across execution backends; it does not
// perturb the access counters.
func (m *Memory) Words() []uint64 { return append([]uint64(nil), m.words...) }

// Poke writes a word without counting it as a program store (initialization
// and fault injection).
func (m *Memory) Poke(addr int, v uint64) { m.words[addr] = v }

// FlipBit flips one bit of the word at addr, modeling a transient fault in
// stored data.
func (m *Memory) FlipBit(addr, bit int) {
	if bit < 0 || bit > 63 {
		panic(fmt.Sprintf("memsim: bit %d out of range", bit))
	}
	m.words[addr] ^= 1 << uint(bit)
	if m.faultHook != nil {
		m.faultHook(addr, bit)
	}
}

// ErrCheckpointCorrupt reports that a snapshot failed its integrity digest:
// a fault struck the checkpoint copy while it was parked in memory. Restore
// refuses such a snapshot; recovery must escalate (typically to a restart
// from known-good initial state) rather than resurrect corrupted data.
var ErrCheckpointCorrupt = errors.New("memsim: checkpoint integrity digest mismatch")

// Snapshot is a sealed copy of the memory contents taken for epoch
// checkpointing, covered by an integrity digest computed at capture time.
// Checkpoints are themselves ordinary memory under the fault model of
// Section 2.2 — nothing stops a bit flip from landing on a word that is
// waiting to be restored — so Restore verifies the digest first.
type Snapshot struct {
	words  []uint64
	digest uint64
	sealed bool
}

// Len returns the number of words captured in the snapshot.
func (s *Snapshot) Len() int { return len(s.words) }

// Word returns the captured word at addr (experiment harness use).
func (s *Snapshot) Word(addr int) uint64 { return s.words[addr] }

// Digest returns the integrity digest sealed over the snapshot at capture
// time. Differential harnesses compare digests across execution backends as a
// compact equality witness for whole memory images.
func (s *Snapshot) Digest() uint64 { return s.digest }

// FlipBit flips one bit of the captured word at addr without updating the
// digest — the footprint of a transient fault striking the parked checkpoint.
// It exists for fault-injection campaigns that target the checkpoint itself.
func (s *Snapshot) FlipBit(addr, bit int) {
	if bit < 0 || bit > 63 {
		panic(fmt.Sprintf("memsim: bit %d out of range", bit))
	}
	s.words[addr] ^= 1 << uint(bit)
}

// Verify reports whether the snapshot's contents still match the digest
// computed when it was captured. A failure is ErrCheckpointCorrupt (wrapped).
func (s *Snapshot) Verify() error {
	if !s.sealed {
		return errors.New("memsim: unsealed Snapshot")
	}
	if digestWords(s.words) != s.digest {
		return ErrCheckpointCorrupt
	}
	return nil
}

// digestWords chains the words through the splitmix64 finalizer. Chaining
// makes it order- and length-sensitive; a single flipped bit anywhere in the
// snapshot changes the result.
func digestWords(words []uint64) uint64 {
	h := splitmix.Golden + uint64(len(words))
	for _, w := range words {
		h = splitmix.Finalize(h ^ w)
	}
	return h
}

// Encode renders a sealed snapshot in its stable binary form: a little-endian
// uint64 word count, the words, and the integrity digest last.
func (s *Snapshot) Encode() ([]byte, error) {
	if !s.sealed {
		return nil, errors.New("memsim: Encode of an unsealed Snapshot")
	}
	b := make([]byte, (len(s.words)+2)*8)
	binary.LittleEndian.PutUint64(b, uint64(len(s.words)))
	for i, w := range s.words {
		binary.LittleEndian.PutUint64(b[(i+1)*8:], w)
	}
	binary.LittleEndian.PutUint64(b[(len(s.words)+1)*8:], s.digest)
	return b, nil
}

// DecodeSnapshot parses the stable binary form and re-verifies the integrity
// digest over the decoded words, so bytes corrupted at rest surface as
// ErrCheckpointCorrupt instead of as silently wrong memory contents. On
// success the snapshot is sealed and accepted by Restore.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	if len(b) < 16 || len(b)%8 != 0 {
		return Snapshot{}, fmt.Errorf("memsim: DecodeSnapshot: %d bytes: %w", len(b), ErrCheckpointCorrupt)
	}
	n := binary.LittleEndian.Uint64(b)
	if n != uint64(len(b)/8-2) {
		return Snapshot{}, fmt.Errorf("memsim: DecodeSnapshot: word count %d in %d bytes: %w",
			n, len(b), ErrCheckpointCorrupt)
	}
	words := make([]uint64, n)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(b[(i+1)*8:])
	}
	s := Snapshot{
		words:  words,
		digest: binary.LittleEndian.Uint64(b[(len(words)+1)*8:]),
		sealed: true,
	}
	if err := s.Verify(); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}

// Snapshot returns a sealed copy of the memory contents, for epoch
// checkpointing. Access counters and hooks are not part of the snapshot: a
// restore rewinds the protected data, not the accounting of work already
// performed.
func (m *Memory) Snapshot() Snapshot {
	words := append([]uint64(nil), m.words...)
	return Snapshot{words: words, digest: digestWords(words), sealed: true}
}

// Restore overwrites the memory contents with a snapshot taken earlier,
// after verifying its integrity digest; a snapshot hit by a fault while
// parked is refused with an error wrapping ErrCheckpointCorrupt. The
// snapshot must be no larger than the current memory (allocations made since
// the snapshot keep their contents).
func (m *Memory) Restore(snap Snapshot) error {
	if err := snap.Verify(); err != nil {
		return err
	}
	return m.RestoreUnchecked(snap)
}

// RestoreUnchecked restores a snapshot without verifying its digest. It is
// the unhardened baseline for fault-injection experiments that measure what
// checkpoint verification buys; production callers should use Restore.
func (m *Memory) RestoreUnchecked(snap Snapshot) error {
	if len(snap.words) > len(m.words) {
		return fmt.Errorf("memsim: restore of %d words into %d", len(snap.words), len(m.words))
	}
	copy(m.words, snap.words)
	return nil
}

// SetLoadHook installs (or clears, with nil) the load observation hook.
func (m *Memory) SetLoadHook(h func(addr int, raw uint64) uint64) { m.loadHook = h }

// SetFaultHook installs (or clears, with nil) the fault observation hook
// invoked after every FlipBit.
func (m *Memory) SetFaultHook(h func(addr, bit int)) { m.faultHook = h }

// SetAccessHook installs (or clears, with nil) the access observer,
// invoked on every Load/Store with its address.
func (m *Memory) SetAccessHook(h func(store bool, addr int)) { m.accessHook = h }

// Loads returns the number of Load calls.
func (m *Memory) Loads() uint64 { return m.loads }

// Stores returns the number of Store calls.
func (m *Memory) Stores() uint64 { return m.stores }

// ResetCounters zeroes the access counters.
func (m *Memory) ResetCounters() { m.loads, m.stores = 0, 0 }

// Zero clears every word and the access counters, returning the memory to
// its freshly allocated state (the layout — capacity and any regions handed
// out — is preserved). Pooled machines use it between requests so one
// request's data can never leak into the next.
func (m *Memory) Zero() {
	for i := range m.words {
		m.words[i] = 0
	}
	m.loads, m.stores = 0, 0
}

// Region is an allocated range of words.
type Region struct {
	Base, Size int
}

// Allocator hands out disjoint regions from a Memory.
type Allocator struct {
	mem  *Memory
	next int
}

// NewAllocator returns an allocator over m starting at word 0.
func NewAllocator(m *Memory) *Allocator { return &Allocator{mem: m} }

// Alloc reserves size words, growing the memory if needed.
func (a *Allocator) Alloc(size int) Region {
	if size < 0 {
		panic("memsim: negative allocation")
	}
	if a.next+size > len(a.mem.words) {
		grown := make([]uint64, a.next+size)
		copy(grown, a.mem.words)
		a.mem.words = grown
	}
	r := Region{Base: a.next, Size: size}
	a.next += size
	return r
}

// Used returns the number of words allocated so far.
func (a *Allocator) Used() int { return a.next }
