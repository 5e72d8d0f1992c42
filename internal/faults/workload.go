package faults

import (
	"defuse/internal/memsim"
	"defuse/rt"
)

// This file is the rt def/use word workload that every epoch-structured run
// over a synthetic array executes. Every epoch loads each word, advances it
// through a bijective update, and stores it back under the def/use
// discipline. At every boundary the workload finalizes all live words so the
// checksums are quiescent, verifies them, and re-registers the words for the
// next epoch — the paper's post-dominator verification placement applied per
// iteration block — so a fault injected inside epoch k either aliases
// (escapes, as in Table 1) or is detected at epoch k's own boundary. It is
// the checksum backend of the epoch trial (trial.go), which alone arms its
// one-shot fault and supervises it: for the campaigns' trials, the crash
// campaign's child (crash.go) and the resident service's verify jobs
// (RunLive). The fold tracker always owns the epoch operations.

// update advances one word per epoch. It is a bijective (odd-multiplier) LCG
// step, so any corruption of a word propagates to a wrong final state rather
// than being coincidentally reconverged.
func update(v uint64) uint64 { return v*2862933555777941757 + 3037000493 }

// FaultFree returns the state a fault-free run from init ends in: every word
// advanced epochs times.
func FaultFree(init []uint64, epochs int) []uint64 {
	out := make([]uint64, len(init))
	for i, v := range init {
		for e := 0; e < epochs; e++ {
			v = update(v)
		}
		out[i] = v
	}
	return out
}

// wordWorkload is the def/use word workload over one simulated memory.
type wordWorkload struct {
	mem      *memsim.Memory
	tr       *rt.Tracker // folds every def and use, and owns the epochs
	counters []rt.Counter
}

// newWordWorkload loads init into a fresh memory and registers every word's
// first definition on tr. counters must be zeroed and hold at least
// len(init) entries.
func newWordWorkload(init []uint64, tr *rt.Tracker, counters []rt.Counter) *wordWorkload {
	w := &wordWorkload{mem: memsim.New(len(init)), tr: tr, counters: counters[:len(init)]}
	for i, v := range init {
		w.mem.Poke(i, v)
		rt.DefDyn(tr, &w.counters[i], uint64(0), v)
	}
	return w
}

// Span runs iterations [lo, hi) of an epoch: load, use, update, store, def.
func (w *wordWorkload) Span(lo, hi int) {
	for i := lo; i < hi; i++ {
		w.Step(i, i, i)
	}
}

// Step runs iteration i with its load from word load and its store to word
// store. Both equal i except under an address fault.
func (w *wordWorkload) Step(i, load, store int) {
	v := rt.Use(w.tr, &w.counters[i], w.mem.Load(load))
	next := update(v)
	w.mem.Store(store, next)
	rt.DefDyn(w.tr, &w.counters[i], v, next)
}

// epochBody is an epoch's iteration space: clean spans and single
// iterations with redirected accesses.
type epochBody interface {
	Span(lo, hi int)
	Step(i, load, store int)
}

// runEpoch runs iterations [0, n) of body, arming strike just before
// iteration at (none when at is outside [0, n)). A backend's whole loop runs
// inside one Span call, so the per-word loop makes no interface calls.
func runEpoch(body epochBody, n, at int, strike func(i int) (load, store int)) {
	if at < 0 || at >= n {
		body.Span(0, n)
		return
	}
	body.Span(0, at)
	load, store := strike(at)
	body.Step(at, load, store)
	body.Span(at+1, n)
}

// FlipBit flips one bit of word i in memory — a data fault.
func (w *wordWorkload) FlipBit(i, bit int) { w.mem.FlipBit(i, bit) }

// Boundary closes an epoch: it finalizes every word so the checksums are
// quiescent, runs check (when non-nil — a detector scrub, say), verifies and
// seals the epoch, and re-registers the words unless the epoch was the last.
func (w *wordWorkload) Boundary(last bool, check func() error) error {
	for i := range w.counters {
		rt.Final(w.tr, &w.counters[i], w.mem.Peek(i))
	}
	if check != nil {
		if err := check(); err != nil {
			return err
		}
	}
	_, err := w.tr.EndEpoch()
	if err == nil && !last {
		for i := range w.counters {
			rt.DefDyn(w.tr, &w.counters[i], uint64(0), w.mem.Peek(i))
		}
	}
	return err
}

// wordCheckpoint is everything an epoch mutates: the memory, the tracker's
// sealed epoch state, and the shadow use counters. A fault plan stays
// outside it — a transient fault does not recur when the epoch re-executes.
type wordCheckpoint struct {
	mem      memsim.Snapshot
	state    rt.EpochState
	counters []rt.Counter
}

// Checkpoint captures the epoch-entry state, typed for recovery.Config.
func (w *wordWorkload) Checkpoint() any {
	return &wordCheckpoint{
		mem:      w.mem.Snapshot(),
		state:    w.tr.BeginEpoch(),
		counters: append([]rt.Counter(nil), w.counters...),
	}
}

// Restore reinstates a checkpoint. Checked restores verify the memory and
// epoch-state digests and refuse a corrupt checkpoint; unchecked ones are
// the unhardened baseline.
func (w *wordWorkload) Restore(snap any, checked bool) error {
	cp := snap.(*wordCheckpoint)
	restore, rollback := w.mem.Restore, w.tr.Rollback
	if !checked {
		restore, rollback = w.mem.RestoreUnchecked, w.tr.RollbackUnchecked
	}
	if err := restore(cp.mem); err != nil {
		return err
	}
	if err := rollback(cp.state); err != nil {
		return err
	}
	copy(w.counters, cp.counters)
	return nil
}

// Words returns a copy of the current memory words.
func (w *wordWorkload) Words() []uint64 {
	out := make([]uint64, len(w.counters))
	for i := range out {
		out[i] = w.mem.Peek(i)
	}
	return out
}

// Holds reports whether memory holds exactly want.
func (w *wordWorkload) Holds(want []uint64) bool { return memHolds(w.mem, want) }

// memHolds reports whether mem's first len(want) words are exactly want.
func memHolds(mem *memsim.Memory, want []uint64) bool {
	for i, v := range want {
		if mem.Peek(i) != v {
			return false
		}
	}
	return true
}
