package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestTracerParentLinks(t *testing.T) {
	c := NewSpanBuffer(0)
	tr := NewTracer(c)
	root := tr.Start(SpanContext{}, "run", Int("epochs", 3))
	child := tr.Start(root.Context(), "epoch", Int("epoch", 0))
	grand := tr.Start(child.Context(), "verify")
	grand.EndErr(nil)
	child.End()
	root.End(Bool("detected", false))

	if len(c.Spans()) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(c.Spans()))
	}
	verify, epoch, run := c.Spans()[0], c.Spans()[1], c.Spans()[2]
	if run.Parent != 0 {
		t.Errorf("root has parent %d", run.Parent)
	}
	if run.Trace == 0 || run.Trace != epoch.Trace || run.Trace != verify.Trace {
		t.Errorf("trace ids not shared: %d %d %d", run.Trace, epoch.Trace, verify.Trace)
	}
	if epoch.Parent != run.ID || verify.Parent != epoch.ID {
		t.Errorf("parent chain broken: verify<-%d epoch<-%d run=%d", verify.Parent, epoch.Parent, run.ID)
	}
	if run.ID == epoch.ID || epoch.ID == verify.ID {
		t.Error("span ids not unique")
	}
	// EndErr(nil) appends ok=true.
	found := false
	for _, a := range verify.Attrs {
		if a.Key == "ok" && a.Value == true {
			found = true
		}
	}
	if !found {
		t.Errorf("EndErr(nil) did not record ok=true: %+v", verify.Attrs)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	s := tr.Start(SpanContext{}, "x", Int("k", 1))
	s = s.SetAttr(String("a", "b"))
	if s.Context() != (SpanContext{}) {
		t.Errorf("inert span has context %+v", s.Context())
	}
	s.End()       // must not panic
	s.EndErr(nil) // must not panic
	child := tr.Start(s.Context(), "y")
	child.End()
	tr.Mark(s.Context(), EvFaultInjected, Int("word", 1))
}

// TestMarkIsZeroLengthChild checks the point-span form every event takes: a
// zero-length span in its parent's trace, or the root of its own trace when
// no span is open.
func TestMarkIsZeroLengthChild(t *testing.T) {
	c := NewSpanBuffer(0)
	tr := NewTracer(c)
	run := tr.Start(SpanContext{}, "run")
	tr.Mark(run.Context(), EvFaultInjected, Int("word", 4))
	run.End()
	tr.Mark(SpanContext{}, EvServerState)

	mark, parent, root := c.Spans()[0], c.Spans()[1], c.Spans()[2]
	if mark.Duration != 0 || mark.Name != EvFaultInjected || mark.Attr("word") != int64(4) {
		t.Errorf("mark = %+v", mark)
	}
	if mark.Parent != parent.ID || mark.Trace != parent.Trace || mark.ID == parent.ID {
		t.Errorf("mark not a child of run: %+v under %+v", mark, parent)
	}
	if root.Parent != 0 || root.Trace != TraceID(root.ID) {
		t.Errorf("parentless mark is not a root: %+v", root)
	}
	if mark.StartOff < parent.StartOff {
		t.Errorf("mark (off %v) precedes its parent (off %v)", mark.StartOff, parent.StartOff)
	}
}

func TestSpanMonotonicTimes(t *testing.T) {
	c := NewSpanBuffer(0)
	tr := NewTracer(c)
	parent := tr.Start(SpanContext{}, "outer")
	time.Sleep(time.Millisecond)
	inner := tr.Start(parent.Context(), "inner")
	time.Sleep(time.Millisecond)
	inner.End()
	parent.End()

	in, out := c.Spans()[0], c.Spans()[1]
	if in.StartOff < out.StartOff {
		t.Errorf("child started (off %v) before parent (off %v)", in.StartOff, out.StartOff)
	}
	if in.Duration <= 0 || out.Duration <= 0 {
		t.Errorf("non-positive durations: %v %v", in.Duration, out.Duration)
	}
	if out.Duration < in.Duration {
		t.Errorf("parent (%v) shorter than enclosed child (%v)", out.Duration, in.Duration)
	}
}

// TestChromeTraceRoundTrip checks the Perfetto-loadable export: valid JSON in
// the object form, monotonically non-decreasing timestamps, and every
// parent_id resolving to an exported span that started no later than its
// child.
func TestChromeTraceRoundTrip(t *testing.T) {
	buf := NewSpanBuffer(0)
	tr := NewTracer(buf)
	for trace := 0; trace < 3; trace++ {
		root := tr.Start(SpanContext{}, "chunk", Int("chunk", trace))
		for i := 0; i < 4; i++ {
			child := tr.Start(root.Context(), "trial", Int("trial", i))
			leaf := tr.Start(child.Context(), "verify")
			leaf.EndErr(nil)
			child.End()
		}
		root.End()
	}

	var out bytes.Buffer
	if err := buf.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 27 {
		t.Fatalf("exported %d events, want 27", len(doc.TraceEvents))
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	starts := map[string]int64{} // span_id -> ts
	last := int64(-1)
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Cat != "defuse" {
			t.Errorf("event %q: ph=%q cat=%q", e.Name, e.Ph, e.Cat)
		}
		if e.Ts < last {
			t.Errorf("timestamps regress: %d after %d", e.Ts, last)
		}
		last = e.Ts
		if e.Dur < 0 {
			t.Errorf("negative duration %d", e.Dur)
		}
		id, ok := e.Args["span_id"].(string)
		if !ok || id == "" {
			t.Fatalf("event %q missing span_id arg", e.Name)
		}
		starts[id] = e.Ts
	}
	for _, e := range doc.TraceEvents {
		p, ok := e.Args["parent_id"].(string)
		if !ok {
			if e.Name != "chunk" {
				t.Errorf("non-root %q has no parent_id", e.Name)
			}
			continue
		}
		pts, ok := starts[p]
		if !ok {
			t.Errorf("event %q: parent %s not exported", e.Name, p)
			continue
		}
		if pts > e.Ts {
			t.Errorf("event %q starts at %d before its parent at %d", e.Name, e.Ts, pts)
		}
	}
}

func TestSpanBufferBounded(t *testing.T) {
	buf := NewSpanBuffer(2)
	tr := NewTracer(buf)
	for i := 0; i < 5; i++ {
		tr.Start(SpanContext{}, "s").End()
	}
	if n := len(buf.Spans()); n != 2 {
		t.Errorf("buffer holds %d spans, cap 2", n)
	}
	if d := buf.Dropped(); d != 3 {
		t.Errorf("dropped = %d, want 3", d)
	}
}
