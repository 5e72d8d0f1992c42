// Package telemetry is the observability substrate of the defuse system:
// a lock-cheap metrics registry (atomic counters, gauges, and fixed-bucket
// latency histograms with Prometheus-text and JSON export) plus a span
// Tracer. The span is the one trace record: operations are spans, and the
// point events inside them (a fault injected, a verification that failed, a
// state change) are zero-length child spans recorded with Tracer.Mark, so
// every fact a run reports sits in the same causal tree.
//
// Every layer of the pipeline reports through it: the instrumenter records
// per-phase spans and plan decisions, the interpreter and simulated memory
// mark fault injections and verification outcomes with bit/word
// coordinates, and the experiment drivers (cmd/defusec, cmd/overhead,
// cmd/faultcov) expose it via -trace, -chrome, -flight and -metrics flags.
//
// All entry points are nil-tolerant: a nil *Tracer hands out inert spans and
// a nil *Registry hands out unregistered (but functional) instruments, so
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

// Names of the point spans (zero-length spans recorded with Tracer.Mark)
// marked across the compile pipeline, the simulated runtime, the Go runtime
// library, and the fault experiments. Their attributes are listed with each.
const (
	// EvPlanChosen marks the protection plan chosen for one variable
	// (variable, plan).
	EvPlanChosen = "plan.chosen"
	// EvSplitApplied marks index-set splitting (segments).
	EvSplitApplied = "split.applied"
	// EvInspectorHoisted marks hoisted inspectors (loops).
	EvInspectorHoisted = "inspector.hoisted"
	// EvFaultInjected marks one injected fault with its coordinates
	// (word/addr, bit, and array/index when known).
	EvFaultInjected = "fault.injected"
	// EvVerifyOK marks a verification whose checksums matched.
	EvVerifyOK = "verify.ok"
	// EvVerifyMismatch marks a verification whose checksums differed: a
	// detection (error, which, expected, observed).
	EvVerifyMismatch = "verify.mismatch"
	// EvRecoveryDegraded marks graceful degradation: retries and restarts
	// are exhausted and the run continues marked tainted (epoch).
	EvRecoveryDegraded = "recovery.degraded"
	// EvDetectorFault marks a fault caught in the detector's own state — an
	// accumulator or shadow counter diverged from its redundant copy (epoch,
	// error).
	EvDetectorFault = "detector.fault"
	// EvCheckpointCorrupt marks a checkpoint that failed its integrity
	// digest and was refused (epoch, error).
	EvCheckpointCorrupt = "checkpoint.corrupt"
	// EvScrubPass marks a detector scrub whose copies all agreed (epoch).
	EvScrubPass = "scrub.pass"
	// EvScrubFail marks a detector scrub that found diverged copies (epoch,
	// error).
	EvScrubFail = "scrub.fail"
	// EvShardMerge marks one parallel-loop worker's checksum pair merged
	// into the machine's (worker, ops — the operations the worker executed —
	// and live, the workers still to merge).
	EvShardMerge = "shard.merge"
	// EvShardDrain marks a parallel loop's workers all merged, so the
	// machine's pair covers all concurrent work (shards).
	EvShardDrain = "shard.drain"
	// EvWALTornTail marks a truncated final WAL frame discarded at recovery
	// — the previous process died mid-seal (bytes).
	EvWALTornTail = "wal.torn_tail"
	// EvWALCorrupt marks a WAL record refused at recovery: a complete frame
	// failed its CRC or a payload failed its integrity digest (error).
	EvWALCorrupt = "wal.corrupt"
	// EvCrashTrial marks one process-level crash-injection trial: the child
	// was SIGKILLed at crash_step, restarted, and compared against an
	// uninterrupted run (cell, trial, crash_step, resumed, resume_epoch,
	// torn_tail, corrupt_records, identical).
	EvCrashTrial = "crash.trial"
	// EvServerState marks a degradation-ladder transition in the resident
	// service (from, to, reason).
	EvServerState = "server.state"
	// EvJournalRotate marks the active journal segment sealing and a fresh
	// one opening (segment, bytes, records).
	EvJournalRotate = "journal.rotate"
	// EvJournalCompact marks the oldest sealed segment folding into the
	// summary (segment, folded, disk_bytes).
	EvJournalCompact = "journal.compact"
	// EvJournalFault marks an injected or real I/O failure on a journal
	// append, rolled back before acknowledgement (id, injected, error).
	EvJournalFault = "journal.fault"
)

// JSONLSink writes finished spans as JSON lines through a buffer, one line
// per span. RecordSpan never blocks on fsync; Close flushes (and closes the
// underlying writer if it is an io.Closer).
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

// RecordSpan implements SpanSink: it encodes one span as a JSON line.
func (s *JSONLSink) RecordSpan(d SpanData) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(d)
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
// a signal handler can persist the tail of the span stream mid-run.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ferr := s.bw.Flush(); s.err == nil {
		s.err = ferr
	}
	return s.err
}

// TimePhase runs f as a span named phase under parent (attribute
// component), records its wall time as an observation in r's phase
// histogram, and returns the duration.
func TimePhase(tr *Tracer, parent SpanContext, r *Registry, component, phase string, f func()) time.Duration {
	var sp Span
	if tr.Enabled() {
		sp = tr.Start(parent, phase, String("component", component))
	}
	start := time.Now()
	f()
	d := time.Since(start)
	sp.End()
	r.Histogram("defuse_phase_seconds", DefBuckets(),
		Label{"component", component}, Label{"phase", phase}).Observe(d.Seconds())
	return d
}
