package rt

import (
	"sync"

	"defuse/internal/checksum"
	"defuse/telemetry"
)

// This file is the runtime's concurrency layer. The paper's def/use
// checksums are order-independent folds (Section 3: the operator must be
// commutative and associative), so the global accumulators of Algorithm 3
// can be partitioned across threads and merged before the final def == use
// comparison without changing the verdict. A ShardedTracker hands out
// per-goroutine Shards — each a private Tracker whose hot fold path takes no
// locks — and folds them back into a root Tracker with a commutative Merge.
// The merge combines the hardened shadow copies by decode-combine-re-encode
// (checksum.Pair.Merge), so a detector fault that struck a shard before the
// merge still diverges the root's copies and is caught by ScrubDetector.

// ShardedTracker partitions global checksum state across per-goroutine
// shards. The root tracker holds the merged view; every method on
// ShardedTracker itself takes an internal lock and is safe for concurrent
// use. Shard hot paths (folds through the shard's Tracker) are lock-free
// because each shard is owned by exactly one goroutine.
type ShardedTracker struct {
	mu     sync.Mutex
	root   *Tracker
	kind   checksum.Kind
	shards []*Shard
	live   int

	// obs is installed into every shard handed out after SetObserver; it
	// must be safe for concurrent use, since all shards dispatch to it.
	obs   Observer
	trace telemetry.Sink

	// tracer/span, when armed via SetTracer, record spans for the locked
	// epoch-boundary operations (shard.merge, shard.drain, verify,
	// epoch.end, rollback). The lock-free fold path through a Shard never
	// consults them, so tracing cannot perturb the hot path (see the guard
	// in trace_bench_test.go).
	tracer *telemetry.Tracer
	span   telemetry.SpanContext

	liveGauge  *telemetry.Gauge
	mergeCount *telemetry.Counter
	drainCount *telemetry.Counter
}

// NewSharded returns a sharded tracker using the paper's modulo-addition
// operator.
func NewSharded() *ShardedTracker { return NewShardedWith(checksum.ModAdd) }

// NewShardedWith returns a sharded tracker using the given commutative
// operator.
func NewShardedWith(k checksum.Kind) *ShardedTracker {
	return &ShardedTracker{root: NewTrackerWith(k), kind: k}
}

// Kind returns the checksum operator shared by the root and every shard.
func (s *ShardedTracker) Kind() checksum.Kind { return s.kind }

// SetTelemetry installs observability hooks: shard.merge/shard.drain events
// stream to sink, and reg gains a live-shard gauge plus merge/drain
// counters. Either argument may be nil. Returns s for chaining.
func (s *ShardedTracker) SetTelemetry(sink telemetry.Sink, reg *telemetry.Registry) *ShardedTracker {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trace = sink
	if reg != nil {
		s.liveGauge = reg.Gauge("defuse_rt_live_shards")
		s.mergeCount = reg.Counter("defuse_rt_shard_merges_total")
		s.drainCount = reg.Counter("defuse_rt_shard_drains_total")
	}
	return s
}

// SetTracer arms span recording for merges, drains, verifications, and
// epoch boundaries; spans attach to parent (typically the supervisor's run
// or epoch span). A nil tracer disables recording at the cost of one nil
// check per locked operation. Returns s for chaining.
func (s *ShardedTracker) SetTracer(t *telemetry.Tracer, parent telemetry.SpanContext) *ShardedTracker {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = t
	s.span = parent
	return s
}

// SetObserver installs o on the root tracker and on every shard handed out
// afterwards. Because all shards dispatch to the same observer concurrently,
// o must be safe for concurrent use (CountingObserver and TelemetryObserver
// both are; see observer.go). Install the observer before handing out
// shards: already-issued shards keep the observer they were created with.
func (s *ShardedTracker) SetObserver(o Observer) *ShardedTracker {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obs = o
	s.root.obs = o
	return s
}

// Root exposes the root tracker holding the merged view. The caller must not
// fold into it (or read it) concurrently with merges or drains; prefer the
// locked wrappers (Checksums, Verify, ScrubDetector, epoch methods) unless
// all shard owners are quiescent.
func (s *ShardedTracker) Root() *Tracker { return s.root }

// LiveShards returns the number of shards handed out and not yet closed.
func (s *ShardedTracker) LiveShards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Shard hands out a new shard: a private Tracker (plus a reusable
// dynamic-counter table) whose fold path takes no locks. The shard must be
// used by one goroutine at a time; its owner calls Merge to publish
// accumulated state and Close when done with it.
func (s *ShardedTracker) Shard() *Shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := &Shard{parent: s, t: NewTrackerWith(s.kind)}
	sh.t.obs = s.obs
	s.shards = append(s.shards, sh)
	s.live++
	if s.liveGauge != nil {
		s.liveGauge.Set(float64(s.live))
	}
	return sh
}

// Shard is one goroutine's private slice of the global checksum state: a
// Tracker for the four accumulators (with their hardened shadow copies) and
// a reusable table of dynamic use counters. Folds into the shard take no
// locks; Merge folds the shard into the root under the parent's lock.
type Shard struct {
	parent   *ShardedTracker
	t        *Tracker
	counters []Counter
	closed   bool
}

// Tracker returns the shard's private tracker. All rt fold primitives (Def,
// DefDyn, Use, UseKnown, Final) apply to it directly.
func (sh *Shard) Tracker() *Tracker { return sh.t }

// Counters returns the shard's dynamic-counter table resized to n zeroed
// counters. The backing array is reused across calls, so trial loops that
// repeatedly need a counter table allocate only when n grows.
func (sh *Shard) Counters(n int) []Counter {
	if cap(sh.counters) < n {
		sh.counters = make([]Counter, n)
	}
	sh.counters = sh.counters[:n]
	for i := range sh.counters {
		sh.counters[i] = Counter{}
	}
	return sh.counters
}

// Merge folds the shard's accumulated state into the root tracker and resets
// the shard for further folding: checksum accumulators combine under the
// pair's commutative operator, shadow copies merge by
// decode-combine-re-encode (preserving any divergence a detector fault left
// in the shard), dynamic op counts add, and a latched counter fault
// propagates to the root (first fault wins). Merge must be called by the
// shard's owner (or after the owner has quiesced); concurrent merges of
// different shards are safe.
func (sh *Shard) Merge() {
	p := sh.parent
	p.mu.Lock()
	sh.mergeLocked(p)
	p.mu.Unlock()
}

// Close merges any remaining shard state into the root and retires the
// shard: it leaves the live set, and further use is a programmer error.
// Closing twice is a no-op.
func (sh *Shard) Close() {
	p := sh.parent
	p.mu.Lock()
	defer p.mu.Unlock()
	if sh.closed {
		return
	}
	sh.mergeLocked(p)
	sh.closed = true
	p.live--
	for i, other := range p.shards {
		if other == sh {
			p.shards = append(p.shards[:i], p.shards[i+1:]...)
			break
		}
	}
	if p.liveGauge != nil {
		p.liveGauge.Set(float64(p.live))
	}
}

// mergeLocked does the fold with the parent lock held.
func (sh *Shard) mergeLocked(p *ShardedTracker) {
	sp := p.tracer.Start(p.span, "shard.merge")
	defs, uses := sh.t.defs, sh.t.uses
	p.root.pair.Merge(sh.t.pair)
	p.root.defs += defs
	p.root.uses += uses
	if p.root.latched == nil && sh.t.latched != nil {
		p.root.latched = sh.t.latched
	}
	sh.t.Reset()
	if p.mergeCount != nil {
		p.mergeCount.Inc()
	}
	if p.trace != nil {
		telemetry.Emit(p.trace, telemetry.EvShardMerge, map[string]any{
			"defs": defs, "uses": uses, "live": p.live,
		})
	}
	sp.End(telemetry.Int64("defs", int64(defs)), telemetry.Int64("uses", int64(uses)))
}

// Drain merges every live shard into the root and reports how many were
// merged. The caller must have quiesced the shard owners first — a drain
// concurrent with a fold into the same shard is a data race. Drain is the
// epoch-boundary operation: after it, the root holds the complete merged
// view, so sealing or verifying the root covers all concurrent work.
func (s *ShardedTracker) Drain() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainLocked()
}

func (s *ShardedTracker) drainLocked() int {
	sp := s.tracer.Start(s.span, "shard.drain")
	n := 0
	for _, sh := range s.shards {
		if !sh.closed {
			sh.mergeLocked(s)
			n++
		}
	}
	if s.drainCount != nil {
		s.drainCount.Inc()
	}
	if s.trace != nil {
		telemetry.Emit(s.trace, telemetry.EvShardDrain, map[string]any{"shards": n})
	}
	sp.End(telemetry.Int("shards", n))
	return n
}

// Checksums drains nothing and exposes the root's current accumulators.
func (s *ShardedTracker) Checksums() (def, use, edef, euse uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.root.Checksums()
}

// Verify drains every live shard and then compares the merged def/use and
// e_def/e_use checksums — the sharded form of Tracker.Verify. Shard owners
// must be quiescent (see Drain).
func (s *ShardedTracker) Verify() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.tracer.Start(s.span, "verify")
	s.drainLocked()
	err := s.root.Verify()
	sp.EndErr(err)
	return err
}

// ScrubDetector cross-checks the root tracker's own state (latched counter
// faults, accumulators against their shadow copies). Because Merge combines
// shadows by decode-combine-re-encode, a detector fault that struck a shard
// before its merge is still visible here.
func (s *ShardedTracker) ScrubDetector() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.root.ScrubDetector()
}

// BeginEpoch drains every live shard and seals a snapshot of the merged view
// at the entry of the current epoch. Shard owners must be quiescent.
func (s *ShardedTracker) BeginEpoch() EpochState {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
	return s.root.BeginEpoch()
}

// EndEpoch drains every live shard, verifies the merged checksums at the
// epoch boundary, and seals the closing snapshot (see Tracker.EndEpoch for
// the advance-on-clean semantics). Shard owners must be quiescent and must
// have finalized their live dynamically counted variables.
func (s *ShardedTracker) EndEpoch() (EpochState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.tracer.Start(s.span, "epoch.end")
	s.drainLocked()
	st, err := s.root.EndEpoch()
	sp.EndErr(err)
	return st, err
}

// Rollback restores the merged view to a sealed snapshot and discards every
// live shard's unmerged state — the epoch being rolled back includes
// whatever the shards were accumulating, so their partial folds must not
// survive into the re-execution. Shard owners must be quiescent. On a
// rejected snapshot (unsealed or corrupt) nothing is modified.
func (s *ShardedTracker) Rollback(st EpochState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.tracer.Start(s.span, "rollback")
	if err := s.root.Rollback(st); err != nil {
		sp.EndErr(err)
		return err
	}
	for _, sh := range s.shards {
		if !sh.closed {
			sh.t.Reset()
		}
	}
	sp.EndErr(nil)
	return nil
}

// Reset clears the root and every live shard for reuse.
func (s *ShardedTracker) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.root.Reset()
	for _, sh := range s.shards {
		if !sh.closed {
			sh.t.Reset()
		}
	}
}

// Recycle returns the tracker to its post-NewSharded state for pool reuse:
// the root is reset (accumulators, shadow copies, epoch counter, any latched
// detector fault) and every outstanding shard is forcibly retired — not
// merged, since a previous request's unmerged residue must never leak into
// the next request's checksums. Retired shards' owners are gone (the request
// completed or was abandoned), so discarding is safe where merging would be
// wrong. Telemetry hooks and the observer survive recycling; the live-shard
// gauge drops to zero.
func (s *ShardedTracker) Recycle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		sh.closed = true
	}
	s.shards = s.shards[:0]
	s.live = 0
	if s.liveGauge != nil {
		s.liveGauge.Set(0)
	}
	s.root.Reset()
}
