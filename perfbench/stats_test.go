package main

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: summarize must sort
	}
	return xs
}

func TestSummarizeReportsMedianAndHighestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n             int
		p50, tail     float64
		tailPct       float64
		wantInsideStr string
	}{
		{n: 1000, p50: 500, tail: 990, tailPct: 99, wantInsideStr: "p99 990 ms (n=1000)"},
		{n: 10000, p50: 5000, tail: 9990, tailPct: 99.9, wantInsideStr: "(n=10000)"},
		{n: 100, p50: 50, tail: 90, tailPct: 90, wantInsideStr: "p90 90 ms (n=100)"},
		{n: 44, p50: 22, tail: 33, tailPct: 75, wantInsideStr: "p75 33 ms (n=44)"},
		// Too few samples for any rung: the tail falls back to the median.
		{n: 15, p50: 8, tail: 8, tailPct: 50, wantInsideStr: "p50 8 ms (n=15)"},
	} {
		p := summarize(seq(tc.n))
		if p.N != tc.n || p.P50 != tc.p50 || p.Tail != tc.tail || p.TailPct != tc.tailPct {
			t.Errorf("n=%d: got %+v, want p50 %v, p%v %v", tc.n, p, tc.p50, tc.tailPct, tc.tail)
		}
		if s := p.String("ms"); !strings.Contains(s, tc.wantInsideStr) {
			t.Errorf("n=%d: String() = %q, want it to contain %q", tc.n, s, tc.wantInsideStr)
		}
	}
}

func TestSummarizeTailHasTenSamplesBeyond(t *testing.T) {
	for n := 11; n < 3000; n += 7 {
		p := summarize(seq(n))
		beyond := 0
		for _, x := range seq(n) {
			if x > p.Tail {
				beyond++
			}
		}
		if p.TailPct > 50 && beyond < minBeyond {
			t.Fatalf("n=%d: p%v has only %d samples beyond it", n, p.TailPct, beyond)
		}
	}
	if p := summarize(nil); p.N != 0 || p.P50 != 0 {
		t.Fatalf("empty sample: got %+v", p)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestGeomean(t *testing.T) {
	got, err := geomean([]float64{2, 8})
	if err != nil || math.Abs(got-4) > 1e-12 {
		t.Fatalf("geomean(2, 8) = %v, %v; want 4", got, err)
	}
	got, err = geomean([]float64{1.79})
	if err != nil || math.Abs(got-1.79) > 1e-12 {
		t.Fatalf("geomean(1.79) = %v, %v", got, err)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}, {math.Inf(1)}, {math.NaN()}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v): want an error", bad)
		}
	}
}

func TestTallyCountsFailuresWithoutStopping(t *testing.T) {
	var tl tally
	tl.check(true, "fine")
	tl.check(false, "request %d: status %d", 7, 429)
	tl.checkMany(512, 0, "clean cell")
	tl.checkMany(512, 3, "cell %s", "masking")
	a, f := tl.counts()
	if a != 1026 || f != 4 {
		t.Fatalf("counts = %d attempted, %d failed; want 1026, 4", a, f)
	}
	if got, want := tl.share(), 4.0/1026; math.Abs(got-want) > 1e-15 {
		t.Fatalf("share = %v, want %v", got, want)
	}
	if s := tl.failures(); !strings.Contains(s, "request 7: status 429") || !strings.Contains(s, "cell masking") {
		t.Fatalf("failures() = %q", s)
	}
	var empty tally
	if empty.share() != 0 {
		t.Fatal("share of an empty tally must be 0")
	}
}

func TestTallyKeepsFewDescriptionsAndIsConcurrencySafe(t *testing.T) {
	var tl tally
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tl.check(i%10 != 0, "g%d op %d", g, i)
			}
		}(g)
	}
	wg.Wait()
	a, f := tl.counts()
	if a != 4000 || f != 400 {
		t.Fatalf("counts = %d, %d; want 4000, 400", a, f)
	}
	if n := len(strings.Split(tl.failures(), "\n")); n != maxKept {
		t.Fatalf("kept %d descriptions, want %d", n, maxKept)
	}
}

func TestSelfTimesSubtractChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 4, Start: 62, End: 64},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 50, 2: 20, 3: 30, 4: 8, 5: 2} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	sp := rec.start(0, "codegen", "kernel")
	if d := sp.end(); d != 0 {
		t.Fatalf("inert span lasted %v", d)
	}
	if got := rec.snapshot(); got != nil {
		t.Fatalf("nil recorder has spans %v", got)
	}
	live := newRecorder()
	p := live.start(0, "bench", "root")
	live.start(p.id, "wal", "append").end()
	p.end()
	got := live.snapshot()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[0].Name != "root" {
		t.Fatalf("spans = %+v", got)
	}
}
