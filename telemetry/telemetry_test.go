package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestSpanBufferNamed(t *testing.T) {
	buf := NewSpanBuffer(0)
	tr := NewTracer(buf)
	tr.Mark(SpanContext{}, EvFaultInjected, Int("word", 3), Int("bit", 7))
	tr.Mark(SpanContext{}, EvFaultInjected)
	tr.Mark(SpanContext{}, EvVerifyMismatch)
	if got := len(buf.Named(EvFaultInjected)); got != 2 {
		t.Errorf("fault.injected count = %d, want 2", got)
	}
	if got := len(buf.Named(EvVerifyMismatch)); got != 1 {
		t.Errorf("verify.mismatch count = %d, want 1", got)
	}
	d := buf.Named(EvFaultInjected)[0]
	if d.Attr("word") != int64(3) || d.Attr("bit") != int64(7) || d.Attr("absent") != nil {
		t.Errorf("attrs = %v", d.Attrs)
	}
	if d.Start.IsZero() {
		t.Error("span not timestamped")
	}
}

func TestJSONLSinkWritesParseableLines(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	tr := NewTracer(s)
	root := tr.Start(SpanContext{}, "run")
	tr.Mark(root.Context(), EvVerifyOK, String("def", "0x1"))
	root.End()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var spans []SpanData
	for sc.Scan() {
		var d SpanData
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		spans = append(spans, d)
	}
	if len(spans) != 2 || spans[0].Name != EvVerifyOK || spans[1].Name != "run" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Parent != spans[1].ID || spans[0].Trace != spans[1].Trace {
		t.Errorf("mark not linked to its parent: %+v", spans)
	}
	if spans[0].Attr("def") != "0x1" {
		t.Errorf("attrs = %v", spans[0].Attrs)
	}
}

func TestMultiSink(t *testing.T) {
	a, b := NewSpanBuffer(0), NewSpanBuffer(0)
	NewTracer(MultiSpan(nil, a, nil, b)).Mark(SpanContext{}, EvVerifyMismatch)
	if len(a.Named(EvVerifyMismatch)) != 1 || len(b.Named(EvVerifyMismatch)) != 1 {
		t.Error("multi sink did not fan out")
	}
	if MultiSpan(nil, nil) != nil {
		t.Error("MultiSpan of nils should be nil")
	}
	if MultiSpan(a) != SpanSink(a) {
		t.Error("MultiSpan of one sink should return it directly")
	}
}

func TestRegistryCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("defuse_test_total", Label{"kind", "a"})
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	// Same name+labels returns the same instrument.
	if r.Counter("defuse_test_total", Label{"kind", "a"}) != c {
		t.Error("re-registration returned a new counter")
	}
	g := r.Gauge("defuse_test_gauge")
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2.0 {
		t.Errorf("gauge = %v", g.Value())
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Counter("x_total").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x_seconds", DefBuckets()).Observe(0.1)
	if len(r.Snapshot().Metrics) != 0 {
		t.Error("nil registry snapshot should be empty")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on kind conflict")
		}
	}()
	r := NewRegistry()
	r.Counter("defuse_conflict")
	r.Gauge("defuse_conflict")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("defuse_lat_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 5.555 {
		t.Errorf("sum = %v", h.Sum())
	}
	snap := r.Snapshot().Metrics[0]
	wantCum := []uint64{1, 2, 3, 4}
	for i, b := range snap.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %s cumulative = %d, want %d", b.LE, b.Count, wantCum[i])
		}
	}
	if snap.Buckets[len(snap.Buckets)-1].LE != "+Inf" {
		t.Error("missing +Inf bucket")
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("defuse_conc_total")
	h := r.Histogram("defuse_conc_seconds", DefBuckets())
	g := r.Gauge("defuse_conc_gauge")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("hist count = %d, want 8000", h.Count())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("defuse_json_total").Add(7)
	r.Histogram("defuse_json_seconds", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if len(snap.Metrics) != 2 {
		t.Fatalf("metrics = %d, want 2", len(snap.Metrics))
	}
}

func TestTimePhase(t *testing.T) {
	buf := NewSpanBuffer(0)
	r := NewRegistry()
	ran := false
	d := TimePhase(NewTracer(buf), SpanContext{}, r, "compile", "parse", func() { ran = true })
	if !ran || d < 0 {
		t.Error("TimePhase did not run f")
	}
	spans := buf.Named("parse")
	if len(spans) != 1 || spans[0].Attr("component") != "compile" {
		t.Errorf("spans = %+v", spans)
	}
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `defuse_phase_seconds_count{component="compile",phase="parse"} 1`) {
		t.Errorf("prometheus output missing phase count:\n%s", out.String())
	}
	// Nil tracer and registry must also work.
	TimePhase(nil, SpanContext{}, nil, "compile", "parse", func() {})
}
