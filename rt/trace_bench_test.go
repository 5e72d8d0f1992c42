package rt

import (
	"sort"
	"testing"
	"time"

	"defuse/internal/checksum"
	"defuse/telemetry"
)

// The span layer must be free when disabled: the shard fold path never
// consults the tracer (spans record only on the locked merge/drain/verify
// operations), and even those pay a single nil check when no tracer is
// armed. These benchmarks and the guard below pin that contract — the
// "disabled-tracing ≤2%" acceptance budget of the observability ISSUE.

// tracedFoldLoop is shardFoldLoop with periodic merges, so the tracer nil
// check on the merge path is actually exercised rather than amortised to one
// hit per benchmark run.
func tracedFoldLoop(sh *Shard, n int) {
	tr := sh.Tracker()
	v := 1.5
	for i := 0; i < n; i++ {
		v = Def(tr, v, 1)
		_ = UseKnown(tr, v)
		if i%1024 == 1023 {
			sh.Merge()
			tr = sh.Tracker()
		}
	}
	sh.Merge()
}

func BenchmarkShardedFoldNoTracer(b *testing.B) {
	st := NewShardedWith(checksum.ModAdd)
	sh := st.Shard()
	b.ReportAllocs()
	tracedFoldLoop(sh, b.N)
}

// discardSpans is the cheapest possible enabled sink, isolating the span
// bookkeeping cost itself.
type discardSpans struct{}

func (discardSpans) RecordSpan(telemetry.SpanData) {}

func BenchmarkShardedFoldTracerEnabled(b *testing.B) {
	st := NewShardedWith(checksum.ModAdd)
	st.SetTracer(telemetry.NewTracer(discardSpans{}), telemetry.SpanContext{})
	sh := st.Shard()
	b.ReportAllocs()
	tracedFoldLoop(sh, b.N)
}

// pairRatios times pairs short runs of base and other back to back,
// alternating which side runs first, and returns the per-pair ratios
// other/base, sorted. Timing guards gate on the median: a neighbour
// process's burst lands on one short run at a time and shifts only the
// pairs it touches, which the median discards, and the alternation cancels
// any first-or-second bias — so the guard holds under a parallel
// `go test ./...`.
func pairRatios(pairs int, base, other func()) []float64 {
	timed := func(f func()) float64 {
		start := time.Now()
		f()
		return float64(time.Since(start))
	}
	timed(base) // warm both paths before measuring
	timed(other)
	ratios := make([]float64, pairs)
	for i := range ratios {
		var b, o float64
		if i%2 == 0 {
			b, o = timed(base), timed(other)
		} else {
			o, b = timed(other), timed(base)
		}
		ratios[i] = o / b
	}
	sort.Float64s(ratios)
	return ratios
}

// TestDisabledTracerOverheadGuard pins the disabled path: a ShardedTracker
// with a nil tracer armed must fold within 2% of one that never heard of
// tracing. The fold loop merges every 1024 ops so the guarded (nil-checked)
// merge path runs many times per measurement. An over-budget median pair
// ratio means span bookkeeping leaked onto the fold or per-merge path.
func TestDisabledTracerOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	plain := NewShardedWith(checksum.ModAdd)
	shPlain := plain.Shard()
	disabled := NewShardedWith(checksum.ModAdd)
	disabled.SetTracer(nil, telemetry.SpanContext{})
	shDisabled := disabled.Shard()

	const ops, pairs = 1 << 14, 1001
	r := pairRatios(pairs,
		func() { tracedFoldLoop(shPlain, ops) },
		func() { tracedFoldLoop(shDisabled, ops) })
	ratio := r[pairs/2]
	t.Logf("median disabled/plain ratio %.4f over %d pairs of %d ops (quartiles %.4f..%.4f, guard 1.02x)",
		ratio, pairs, ops, r[pairs/4], r[3*pairs/4])
	if ratio > 1.02 {
		t.Errorf("disabled-tracer fold overhead ratio %.4f exceeds the 2%% guard", ratio)
	}
}

// TestTracerSpansOnShardOps checks that an armed tracer sees the locked-path
// spans (merge, verify, epoch.end) parented under the supervisor context it
// was armed with — and that the fold path emits none.
func TestTracerSpansOnShardOps(t *testing.T) {
	buf := telemetry.NewSpanBuffer(0)
	tr := telemetry.NewTracer(buf)
	root := tr.Start(telemetry.SpanContext{}, "run")

	st := NewShardedWith(checksum.ModAdd)
	st.SetTracer(tr, root.Context())
	sh := st.Shard()
	v := Def(sh.Tracker(), 2.5, 1)
	_ = UseKnown(sh.Tracker(), v)
	if got := len(buf.Spans()); got != 0 {
		t.Fatalf("fold path recorded %d spans, want 0", got)
	}
	sh.Merge()
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
	root.End()

	names := map[string]int{}
	for _, s := range buf.Spans() {
		names[s.Name]++
		if s.Name != "run" && s.Trace != root.Context().Trace {
			t.Errorf("span %q not in the supervisor's trace", s.Name)
		}
	}
	if names["shard.merge"] == 0 || names["verify"] == 0 {
		t.Errorf("missing locked-path spans: %v", names)
	}
}
