// Package telemetry is the observability substrate of the defuse system:
// a lock-cheap metrics registry (atomic counters, gauges, and fixed-bucket
// latency histograms with Prometheus-text and JSON export) plus a pluggable
// event Sink with a buffered JSON-lines writer for structured events.
//
// Every layer of the pipeline reports through it: the instrumenter emits
// per-phase timings and plan decisions, the interpreter and simulated memory
// emit fault-injection and detection events with bit/word coordinates, and
// the experiment drivers (cmd/defusec, cmd/overhead, cmd/faultcov) expose it
// via -trace and -metrics flags.
//
// All entry points are nil-tolerant: a nil Sink discards events and a nil
// *Registry hands out unregistered (but functional) instruments, so
// instrumented code needs no guards and the disabled path stays cheap.
package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// Canonical event names emitted across the compile pipeline, the simulated
// runtime, the Go runtime library, and the fault experiments.
const (
	// EvCompilePhase reports one pipeline phase's wall time
	// (fields: component, phase, seconds).
	EvCompilePhase = "compile.phase"
	// EvPlanChosen reports the protection plan chosen for one variable
	// (fields: variable, plan).
	EvPlanChosen = "plan.chosen"
	// EvSplitApplied reports index-set splitting (fields: segments).
	EvSplitApplied = "split.applied"
	// EvInspectorHoisted reports hoisted inspectors (fields: loops).
	EvInspectorHoisted = "inspector.hoisted"
	// EvFaultInjected reports one injected fault with its coordinates
	// (fields: word/addr, bit, and array/index when known).
	EvFaultInjected = "fault.injected"
	// EvDetection reports a checksum mismatch caught by verification
	// (fields: which, expected, observed).
	EvDetection = "detection"
	// EvVerifyOK reports a verification whose checksums matched.
	EvVerifyOK = "verify.ok"
	// EvVerifyMismatch reports a verification whose checksums differed.
	EvVerifyMismatch = "verify.mismatch"
	// EvEpochVerify reports one epoch-boundary verification
	// (fields: epoch, attempt, ok).
	EvEpochVerify = "epoch.verify"
	// EvRecoveryRetry reports a rollback re-execution of a failed epoch
	// (fields: epoch, attempt, backoff_seconds).
	EvRecoveryRetry = "recovery.retry"
	// EvRecoveryRestart reports an escalation to a full-run restart
	// (fields: epoch, restart).
	EvRecoveryRestart = "recovery.restart"
	// EvRecoveryDegraded reports graceful degradation: retries and restarts
	// are exhausted and the run continues marked tainted (fields: epoch).
	EvRecoveryDegraded = "recovery.degraded"
	// EvDetectorFault reports a fault caught in the detector's own state —
	// an accumulator or shadow counter diverged from its redundant copy
	// (fields: epoch when supervised, error).
	EvDetectorFault = "detector.fault"
	// EvCheckpointCorrupt reports a checkpoint that failed its integrity
	// digest and was refused (fields: epoch, error).
	EvCheckpointCorrupt = "checkpoint.corrupt"
	// EvRecoveryRebuild reports detector state rebuilt from the last sealed
	// epoch after a detector fault (fields: epoch, attempt).
	EvRecoveryRebuild = "recovery.rebuild"
	// EvScrubPass reports a detector scrub whose copies all agreed.
	EvScrubPass = "scrub.pass"
	// EvScrubFail reports a detector scrub that found diverged copies
	// (fields: error).
	EvScrubFail = "scrub.fail"
	// EvShardMerge reports one parallel-loop worker's checksum pair merged
	// into the machine's (fields: worker, ops — the operations the worker
	// executed — and live, the workers still to merge).
	EvShardMerge = "shard.merge"
	// EvShardDrain reports a parallel loop's workers all merged, so the
	// machine's pair covers all concurrent work (fields: shards — how many
	// were merged).
	EvShardDrain = "shard.drain"
	// EvWALSeal reports one durable checkpoint record fsynced to the
	// write-ahead log (fields: epoch, bytes, seconds, seq).
	EvWALSeal = "wal.seal"
	// EvWALRecover reports a startup resume from a durable checkpoint
	// (fields: epoch, records, bytes).
	EvWALRecover = "wal.recover"
	// EvWALTornTail reports a truncated final WAL frame discarded at
	// recovery — the previous process died mid-seal (fields: bytes).
	EvWALTornTail = "wal.torn_tail"
	// EvWALCorrupt reports a WAL record refused at recovery: a complete
	// frame failed its CRC or a payload failed its integrity digest
	// (fields: error).
	EvWALCorrupt = "wal.corrupt"
	// EvCrashTrial reports one process-level crash-injection trial: the child
	// was SIGKILLed at crash_step, restarted, and compared against an
	// uninterrupted run (fields: cell, trial, crash_step, resumed,
	// resume_epoch, torn_tail, corrupt_records, identical).
	EvCrashTrial = "crash.trial"
	// EvServerState reports a degradation-ladder transition in the resident
	// service (fields: from, to, reason).
	EvServerState = "server.state"
	// EvJournalRotate reports the active journal segment sealing and a fresh
	// one opening (fields: segment, bytes, records).
	EvJournalRotate = "journal.rotate"
	// EvJournalCompact reports the oldest sealed segment folding into the
	// summary (fields: segment, folded, compacted_total, disk_bytes).
	EvJournalCompact = "journal.compact"
	// EvJournalFault reports an injected or real I/O failure on a journal
	// append, rolled back before acknowledgement (fields: id, injected,
	// error).
	EvJournalFault = "journal.fault"
)

// Event is one structured telemetry record.
type Event struct {
	Name   string         `json:"event"`
	Time   time.Time      `json:"time"`
	Fields map[string]any `json:"fields,omitempty"`
}

// Sink consumes events. Implementations must be safe for concurrent use.
type Sink interface {
	Emit(Event)
	Close() error
}

// Emit stamps and sends a named event to s. A nil sink discards the event,
// so call sites need no guard.
func Emit(s Sink, name string, fields map[string]any) {
	if s == nil {
		return
	}
	s.Emit(Event{Name: name, Time: time.Now().UTC(), Fields: fields})
}

// JSONLSink writes events as JSON lines through a buffer. Emit never blocks
// on fsync; Close flushes (and closes the underlying writer if it is an
// io.Closer).
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer
	err error
}

// NewJSONL returns a sink writing JSON lines to w.
func NewJSONL(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	s := &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// OpenJSONLFile creates (or truncates) path and returns a JSONL sink over it.
func OpenJSONLFile(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewJSONL(f), nil
}

// Emit encodes one event as a JSON line.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(e)
}

// Close flushes the buffer and closes the underlying writer if closeable.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ferr := s.bw.Flush(); s.err == nil {
		s.err = ferr
	}
	if s.c != nil {
		if cerr := s.c.Close(); s.err == nil {
			s.err = cerr
		}
		s.c = nil
	}
	return s.err
}

// Flush writes the buffer through without closing the underlying writer, so
// a signal handler can persist the tail of the event stream mid-run.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ferr := s.bw.Flush(); s.err == nil {
		s.err = ferr
	}
	return s.err
}

// Err returns the first write error encountered, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Collector is an in-memory sink for tests and programmatic inspection.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (c *Collector) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

// Close is a no-op.
func (c *Collector) Close() error { return nil }

// Events returns a copy of the collected events in emission order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Named returns the collected events with the given name.
func (c *Collector) Named(name string) []Event {
	var out []Event
	for _, e := range c.Events() {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// Count returns how many events with the given name were collected.
func (c *Collector) Count(name string) int { return len(c.Named(name)) }

// multiSink fans events out to several sinks.
type multiSink struct{ sinks []Sink }

// Multi returns a sink forwarding to every non-nil sink in sinks. It
// returns nil when none remain, preserving nil-sink short-circuiting.
func Multi(sinks ...Sink) Sink {
	var kept []Sink
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &multiSink{sinks: kept}
}

func (m *multiSink) Emit(e Event) {
	for _, s := range m.sinks {
		s.Emit(e)
	}
}

func (m *multiSink) Close() error {
	var first error
	for _, s := range m.sinks {
		if err := s.Close(); first == nil {
			first = err
		}
	}
	return first
}

// TimePhase runs f, records its wall time as a compile.phase event on s and
// an observation in r's phase histogram, and returns the duration.
func TimePhase(s Sink, r *Registry, component, phase string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	Emit(s, EvCompilePhase, map[string]any{
		"component": component,
		"phase":     phase,
		"seconds":   d.Seconds(),
	})
	r.Histogram("defuse_phase_seconds", DefBuckets(),
		Label{"component", component}, Label{"phase", phase}).Observe(d.Seconds())
	return d
}
