package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the span layer of the telemetry substrate: a Tracer hands out
// causally linked spans (TraceID / SpanID / parent) with monotonic start and
// end times and typed attributes, so a run can be reconstructed as a tree —
// run → epoch → recovery attempt → verify/merge → WAL seal, with the faults
// and detections marked inside them — instead of a flat event stream.
// Finished spans go to a SpanSink: one JSON line each (JSONLSink), the
// in-memory buffer exported as Chrome trace-event JSON (SpanBuffer, loadable
// in Perfetto or chrome://tracing), and the flight recorder's ring.
//
// The disabled path is a single nil check: a nil *Tracer hands out inert
// spans whose methods do nothing, so instrumented code threads the tracer
// unconditionally and an untraced run stays within noise of an untouched one
// (see the benchmark guard in rt/trace_bench_test.go).

// TraceID identifies one causal tree of spans (one run, one trial, ...).
type TraceID uint64

// SpanID identifies one span within the process.
type SpanID uint64

// SpanContext names a position in a trace: the trace and the span that any
// child should attach to. The zero SpanContext means "no parent": a span
// started against it becomes the root of a fresh trace.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Attr is one typed span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// String, Int, Float, and Bool build typed attributes without the caller
// spelling out struct literals.
func String(k, v string) Attr        { return Attr{Key: k, Value: v} }
func Int(k string, v int) Attr       { return Attr{Key: k, Value: int64(v)} }
func Int64(k string, v int64) Attr   { return Attr{Key: k, Value: v} }
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }
func Bool(k string, v bool) Attr     { return Attr{Key: k, Value: v} }

// SpanData is one finished span as delivered to a SpanSink. A point span
// (Tracer.Mark) has zero Duration.
type SpanData struct {
	Trace  TraceID `json:"trace"`
	ID     SpanID  `json:"span"`
	Parent SpanID  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	// Start is the wall-clock start, for human-readable export.
	Start time.Time `json:"start"`
	// StartOff is the monotonic offset from the tracer's epoch; Duration is
	// the monotonic span length. Both come from the runtime's monotonic
	// clock, so exported timestamps never go backwards even across wall-clock
	// adjustments.
	StartOff time.Duration `json:"start_off_ns"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Attr returns the value of the span's attribute key, or nil.
func (d SpanData) Attr(key string) any {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// SpanSink consumes finished spans. Implementations must be safe for
// concurrent use.
type SpanSink interface {
	RecordSpan(SpanData)
}

// Tracer hands out spans. A nil tracer is fully functional and free: every
// method on it (and on the inert spans it returns) is a nil check.
type Tracer struct {
	epoch time.Time
	sink  SpanSink
	ids   atomic.Uint64
}

// NewTracer returns a tracer delivering finished spans to sink.
func NewTracer(sink SpanSink) *Tracer {
	return &Tracer{epoch: time.Now(), sink: sink}
}

// Enabled reports whether spans are actually recorded. Call sites only need
// it to skip expensive attribute construction; starting spans on a disabled
// tracer is already free.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// nextID hands out process-unique span identifiers (never zero).
func (t *Tracer) nextID() uint64 { return t.ids.Add(1) }

// Span is one in-flight operation. The zero Span (from a nil tracer) is
// inert: End and SetAttr do nothing and Context returns the zero context.
type Span struct {
	tracer *Tracer
	ctx    SpanContext
	parent SpanID
	name   string
	start  time.Time
	attrs  []Attr
}

// Start begins a span as a child of parent. A zero parent starts a new trace
// rooted at this span. On a nil tracer it returns an inert span.
func (t *Tracer) Start(parent SpanContext, name string, attrs ...Attr) Span {
	if t == nil {
		return Span{}
	}
	id := SpanID(t.nextID())
	trace := parent.Trace
	if trace == 0 {
		trace = TraceID(id)
	}
	return Span{
		tracer: t,
		ctx:    SpanContext{Trace: trace, Span: id},
		parent: parent.Span,
		name:   name,
		start:  time.Now(),
		attrs:  attrs,
	}
}

// Mark records a point in time — a fault injected, a detection, a state
// change — as a zero-length span named name under parent (the operation it
// happened in; a zero parent roots it in a trace of its own). On a disabled
// tracer it does nothing, but its attributes are still built: call sites on
// hot paths guard with Enabled.
func (t *Tracer) Mark(parent SpanContext, name string, attrs ...Attr) {
	if !t.Enabled() {
		return
	}
	s := t.Start(parent, name, attrs...)
	s.finish(s.start)
}

// Context returns the span's position for child spans to attach to.
func (s Span) Context() SpanContext { return s.ctx }

// SetAttr appends attributes to the span. It returns the updated span, so
// deferred Ends must be taken on the returned value (or use End's variadic
// attrs instead).
func (s Span) SetAttr(attrs ...Attr) Span {
	if s.tracer == nil {
		return s
	}
	s.attrs = append(s.attrs, attrs...)
	return s
}

// End finishes the span, stamping its monotonic duration and delivering it
// to the tracer's sink. Extra attributes (an outcome, an error) are appended
// before delivery. End on an inert span does nothing.
func (s Span) End(attrs ...Attr) {
	if s.tracer == nil || s.tracer.sink == nil {
		return
	}
	s.SetAttr(attrs...).finish(time.Now())
}

// finish delivers the span, ended at end, to the tracer's sink.
func (s Span) finish(end time.Time) {
	s.tracer.sink.RecordSpan(SpanData{
		Trace:    s.ctx.Trace,
		ID:       s.ctx.Span,
		Parent:   s.parent,
		Name:     s.name,
		Start:    s.start,
		StartOff: s.start.Sub(s.tracer.epoch),
		Duration: end.Sub(s.start),
		Attrs:    s.attrs,
	})
}

// EndErr finishes the span with an ok/error outcome attribute.
func (s Span) EndErr(err error) {
	if s.tracer == nil {
		return
	}
	if err != nil {
		s.End(Bool("ok", false), String("error", err.Error()))
		return
	}
	s.End(Bool("ok", true))
}

// multiSpanSink fans spans out to several sinks.
type multiSpanSink struct{ sinks []SpanSink }

// MultiSpan returns a span sink forwarding to every non-nil sink, or nil
// when none remain (preserving the nil-tracer fast path).
func MultiSpan(sinks ...SpanSink) SpanSink {
	var kept []SpanSink
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
	return &multiSpanSink{sinks: kept}
}

func (m *multiSpanSink) RecordSpan(d SpanData) {
	for _, s := range m.sinks {
		s.RecordSpan(d)
	}
}

// SpanBuffer collects finished spans in memory for export as Chrome
// trace-event JSON. It is bounded: past Cap spans, new spans are dropped and
// counted (Dropped), so a long campaign cannot grow the buffer without
// bound — the flight recorder keeps the newest spans instead.
type SpanBuffer struct {
	mu      sync.Mutex
	spans   []SpanData
	cap     int
	dropped uint64
}

// DefaultSpanCap bounds a SpanBuffer built with NewSpanBuffer(0).
const DefaultSpanCap = 1 << 17

// NewSpanBuffer returns a buffer holding at most cap spans (0 means
// DefaultSpanCap).
func NewSpanBuffer(cap int) *SpanBuffer {
	if cap <= 0 {
		cap = DefaultSpanCap
	}
	return &SpanBuffer{cap: cap}
}

// RecordSpan implements SpanSink.
func (b *SpanBuffer) RecordSpan(d SpanData) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.spans) >= b.cap {
		b.dropped++
		return
	}
	b.spans = append(b.spans, d)
}

// Spans returns a copy of the collected spans in completion order.
func (b *SpanBuffer) Spans() []SpanData {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]SpanData(nil), b.spans...)
}

// Named returns the collected spans called name, in completion order.
func (b *SpanBuffer) Named(name string) []SpanData {
	var out []SpanData
	for _, d := range b.Spans() {
		if d.Name == name {
			out = append(out, d)
		}
	}
	return out
}

// Dropped returns how many spans were discarded after the buffer filled.
func (b *SpanBuffer) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// chromeEvent is one Chrome trace-event entry ("X" complete events).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`  // microseconds since tracer epoch
	Dur  int64          `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the object form of the Chrome trace format, which both
// chrome://tracing and Perfetto load.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeTrace renders spans as Chrome trace-event JSON. Each trace becomes
// one track (tid = trace id), so properly nested spans of one run render as
// a flame stack and concurrent traces (parallel workers, campaign trials)
// get their own lanes. Span and parent ids ride along in args for causal
// reconstruction.
func ChromeTrace(spans []SpanData) chromeDoc {
	out := chromeDoc{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	sorted := append([]SpanData(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].StartOff < sorted[j].StartOff })
	for _, d := range sorted {
		args := map[string]any{
			"span_id": fmt.Sprintf("%016x", uint64(d.ID)),
		}
		if d.Parent != 0 {
			args["parent_id"] = fmt.Sprintf("%016x", uint64(d.Parent))
		}
		for _, a := range d.Attrs {
			args[a.Key] = a.Value
		}
		ts := d.StartOff.Microseconds()
		if ts < 0 {
			ts = 0
		}
		dur := d.Duration.Microseconds()
		if dur < 0 {
			dur = 0
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: d.Name, Cat: "defuse", Ph: "X",
			Ts: ts, Dur: dur,
			Pid: 1, Tid: uint64(d.Trace),
			Args: args,
		})
	}
	return out
}

// WriteChromeTrace writes the buffer's spans as Chrome trace-event JSON.
func (b *SpanBuffer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(ChromeTrace(b.Spans())); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteChromeTraceFile writes the buffer's spans to path.
func (b *SpanBuffer) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
