package telemetry

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// FlightRecorder is a fixed-size lock-free ring holding the most recent
// finished spans. It rides alongside the other span sinks (via MultiSpan)
// and costs two atomic operations per record; when a campaign escapes — a
// verification fails, the detector latches a fault of its own, a checkpoint
// fails its digest, or a fatal signal arrives — the ring is dumped to disk,
// so every escape leaves a postmortem artifact with the last N things the
// process did, in order.
//
// The ring is append-only and concurrent: writers claim a slot with one
// atomic increment and publish the entry with one atomic pointer store. A
// reader (Snapshot) may observe a claimed-but-unpublished slot; it simply
// reads the previous occupant, which keeps Snapshot wait-free and is fine for
// a postmortem buffer. Per-entry sequence numbers restore global order.
type FlightRecorder struct {
	slots []atomic.Pointer[FlightEntry]
	pos   atomic.Uint64 // next sequence number to claim

	dumpPath string
	triggers map[string]struct{}
	dumped   atomic.Bool
	lastDump atomic.Pointer[string]
}

// FlightEntry is one recorded span with its ring sequence number.
type FlightEntry struct {
	Seq  uint64   `json:"seq"`
	Span SpanData `json:"span"`
}

// FlightDump is the JSON artifact written when a trigger fires.
type FlightDump struct {
	Schema  string        `json:"schema"`
	Time    time.Time     `json:"time"`
	Trigger string        `json:"trigger"`
	Entries []FlightEntry `json:"entries"`
}

// FlightDumpSchema identifies the dump artifact format. v2 entries are
// {seq, span}; v1 entries also had a kind and could carry an event.
const FlightDumpSchema = "defuse/flight/v2"

// DefaultFlightSize is the ring capacity used when NewFlightRecorder is
// given a non-positive size.
const DefaultFlightSize = 4096

// DefaultTriggers returns the span names that dump the ring automatically:
// a failed verification, the detector latching a fault in its own state,
// checkpoint corruption, and WAL corruption found at recovery.
func DefaultTriggers() []string {
	return []string{EvVerifyMismatch, EvDetectorFault, EvCheckpointCorrupt, EvWALCorrupt}
}

// NewFlightRecorder returns a recorder holding the most recent size entries.
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	return &FlightRecorder{
		slots:    make([]atomic.Pointer[FlightEntry], size),
		triggers: map[string]struct{}{},
	}
}

// SetDump arms automatic dumping: when a span named in triggers is
// recorded, the ring is written to path (once — later triggers are counted
// but do not overwrite the first postmortem). Passing no triggers arms
// DefaultTriggers.
func (f *FlightRecorder) SetDump(path string, triggers ...string) {
	if len(triggers) == 0 {
		triggers = DefaultTriggers()
	}
	f.dumpPath = path
	f.triggers = make(map[string]struct{}, len(triggers))
	for _, t := range triggers {
		f.triggers[t] = struct{}{}
	}
}

// record claims the next slot and publishes e.
func (f *FlightRecorder) record(e *FlightEntry) {
	e.Seq = f.pos.Add(1) - 1
	f.slots[e.Seq%uint64(len(f.slots))].Store(e)
}

// RecordSpan implements SpanSink: the span enters the ring, and if its name
// is an armed trigger the ring is dumped.
func (f *FlightRecorder) RecordSpan(d SpanData) {
	f.record(&FlightEntry{Span: d})
	if _, hot := f.triggers[d.Name]; hot {
		f.triggerDump(d.Name)
	}
}

// Len returns how many entries have ever been recorded (not the ring size).
func (f *FlightRecorder) Len() uint64 { return f.pos.Load() }

// Snapshot returns the ring contents ordered oldest-first by sequence
// number. It is wait-free: concurrent writers may be mid-publish, in which
// case a slot's previous occupant (or nothing, early on) is returned.
func (f *FlightRecorder) Snapshot() []FlightEntry {
	out := make([]FlightEntry, 0, len(f.slots))
	for i := range f.slots {
		if e := f.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// triggerDump writes the postmortem once per process.
func (f *FlightRecorder) triggerDump(trigger string) {
	if f.dumpPath == "" || !f.dumped.CompareAndSwap(false, true) {
		return
	}
	t := trigger
	f.lastDump.Store(&t)
	_ = f.DumpTo(f.dumpPath, trigger)
}

// Dumped reports whether an automatic trigger has fired, and which one.
func (f *FlightRecorder) Dumped() (trigger string, ok bool) {
	if p := f.lastDump.Load(); p != nil {
		return *p, true
	}
	return "", false
}

// DumpTo writes the current ring contents to path as a FlightDump document.
// It is safe to call at any time (exit paths, signal handlers, tests) and
// does not consume the ring.
func (f *FlightRecorder) DumpTo(path, trigger string) error {
	dump := FlightDump{
		Schema:  FlightDumpSchema,
		Time:    time.Now().UTC(),
		Trigger: trigger,
		Entries: f.Snapshot(),
	}
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
