package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// tailLadder lists the percentiles a tail figure may take, highest first.
// The reported tail is the highest of them with at least minBeyond samples
// above it, so a small sample never passes off its maximum as a p99.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// percentiles is the report of one latency sample: the median plus the
// highest ladder percentile with at least minBeyond samples beyond it.
type percentiles struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // 50 when the sample is too small for any ladder rung
}

// summarize computes the percentile report of raw samples. Percentiles use
// the nearest-rank definition, so every reported value is a measured sample.
func summarize(xs []float64) percentiles {
	if len(xs) == 0 {
		return percentiles{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := percentiles{N: len(s), P50: rank(s, 50)}
	for _, q := range tailLadder {
		i := rankIndex(len(s), q)
		if len(s)-1-i >= minBeyond {
			p.Tail, p.TailPct = s[i], q
			return p
		}
	}
	// Too few samples for any rung: the median is the highest percentile
	// that can be stated honestly.
	p.Tail, p.TailPct = p.P50, 50
	return p
}

// rankIndex is the 0-based index of the nearest-rank q-th percentile of n
// sorted samples.
func rankIndex(n int, q float64) int {
	// The small tolerance keeps float error (99.9/100*10000 is not exactly
	// 9990) from pushing the rank up by one.
	i := int(math.Ceil(q*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func rank(sorted []float64, q float64) float64 { return sorted[rankIndex(len(sorted), q)] }

// String renders the report with its sample count, e.g.
// "p50 1.203 ms, p99 4.100 ms (n=7500)".
func (p percentiles) String(unit string) string {
	return fmt.Sprintf("p50 %.4g %s, p%g %.4g %s (n=%d)", p.P50, unit, p.TailPct, p.Tail, unit, p.N)
}

// median returns the middle value of xs (mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of xs, which must all be positive.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geomean of no values")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 1) {
			return 0, fmt.Errorf("geomean of non-positive or infinite value %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// tally counts checked operations and the ones that failed their check. A
// failed check never aborts the run: it is counted, and the first few are
// kept for the report. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string
}

// maxKept bounds how many failure descriptions a tally keeps.
const maxKept = 8

// check records one attempted operation; when ok is false it also records a
// failure described by the format arguments.
func (t *tally) check(ok bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if ok {
		return
	}
	t.failed++
	if len(t.first) < maxKept {
		t.first = append(t.first, fmt.Sprintf(format, args...))
	}
}

// checkMany records n attempted operations of which bad failed.
func (t *tally) checkMany(n, bad int, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += n
	if bad <= 0 {
		return
	}
	t.failed += bad
	if len(t.first) < maxKept {
		t.first = append(t.first, fmt.Sprintf(format, args...))
	}
}

// counts returns the attempted and failed totals.
func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// share is failed over attempted (0 when nothing was attempted).
func (t *tally) share() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// failures lists the kept failure descriptions, one per line.
func (t *tally) failures() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.first, "\n")
}
