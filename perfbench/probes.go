package main

import (
	"fmt"
	"time"

	"defuse/internal/checksum"
	"defuse/rt"
)

// Timed calls into the detector's hot path, shaped like one fault-campaign
// trial: a 64-word working set under the def/use discipline. Each figure is
// the median over probeBatches batches of the per-call time.

const (
	probeWords   = 64
	probeBatches = 7
	probeRounds  = 2000 // 64-word rounds per batch
)

// probeSink keeps probed results live so the compiler cannot drop the
// calls that produce them.
var probeSink error

// probeFigures are the per-call times, in nanoseconds.
type probeFigures struct {
	scaleFold, verify, scrub, merge   float64
	use, defDyn, final                float64
	endEpoch, rollback, scrubDetector float64
}

// timeBatches runs fn probeBatches times under one span each and returns
// the median of fn's per-call nanoseconds.
func timeBatches(rec *recorder, parent int64, layer, name string, fn func() float64) float64 {
	xs := make([]float64, probeBatches)
	for i := range xs {
		sp := rec.start(parent, layer, name)
		xs[i] = fn()
		sp.end()
	}
	return median(xs)
}

// runProbes times the checksum.Pair and rt calls. It fails if a balanced
// epoch does not verify, which would mean the probe itself is wrong.
func runProbes(rec *recorder, parent int64) (probeFigures, error) {
	var f probeFigures
	vals := make([]uint64, probeWords)
	for i := range vals {
		vals[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}

	p := checksum.NewPair(checksum.ModAdd)
	other := checksum.NewPair(checksum.ModAdd)
	f.scaleFold = timeBatches(rec, parent, "checksum", "checksum.Pair.ScaleFold", func() float64 {
		t0 := time.Now()
		for r := 0; r < probeRounds; r++ {
			for _, v := range vals {
				p.ScaleFold(checksum.AccDef, v, 3)
			}
		}
		return perCall(time.Since(t0), probeRounds*probeWords)
	})
	p.Reset()
	const single = probeRounds * 16
	f.verify = timeBatches(rec, parent, "checksum", "checksum.Pair.Verify", func() float64 {
		t0 := time.Now()
		for r := 0; r < single; r++ {
			probeSink = p.Verify()
		}
		return perCall(time.Since(t0), single)
	})
	f.scrub = timeBatches(rec, parent, "checksum", "checksum.Pair.Scrub", func() float64 {
		t0 := time.Now()
		for r := 0; r < single; r++ {
			probeSink = p.Scrub()
		}
		return perCall(time.Since(t0), single)
	})
	f.merge = timeBatches(rec, parent, "checksum", "checksum.Pair.Merge", func() float64 {
		t0 := time.Now()
		for r := 0; r < single; r++ {
			p.Merge(other)
		}
		return perCall(time.Since(t0), single)
	})
	if err := p.Scrub(); err != nil {
		return f, fmt.Errorf("probe: pair scrub after merges: %w", err)
	}

	tr := rt.NewTracker()
	ctrs := make([]rt.Counter, probeWords)
	defineAll := func() {
		for i, v := range vals {
			rt.DefDyn(tr, &ctrs[i], v, v)
		}
	}
	finalAll := func() {
		for i, v := range vals {
			rt.Final(tr, &ctrs[i], v)
		}
	}
	f.defDyn = timeBatches(rec, parent, "rt", "rt.DefDyn", func() float64 {
		t0 := time.Now()
		for r := 0; r < probeRounds; r++ {
			defineAll()
		}
		return perCall(time.Since(t0), probeRounds*probeWords)
	})
	f.use = timeBatches(rec, parent, "rt", "rt.Use", func() float64 {
		t0 := time.Now()
		for r := 0; r < probeRounds; r++ {
			for i, v := range vals {
				rt.Use(tr, &ctrs[i], v)
			}
		}
		return perCall(time.Since(t0), probeRounds*probeWords)
	})
	f.final = timeBatches(rec, parent, "rt", "rt.Final", func() float64 {
		var d time.Duration
		for r := 0; r < probeRounds/8; r++ {
			defineAll()
			t0 := time.Now()
			finalAll()
			d += time.Since(t0)
		}
		return perCall(d, probeRounds/8*probeWords)
	})

	// One 64-word epoch: define, use, finalize, then seal; roll back to
	// the epoch's entry; scrub the detector.
	const epochs = 200
	tr.Reset()
	for i := range ctrs {
		ctrs[i] = rt.Counter{}
	}
	var st rt.EpochState
	var sealErr error
	epoch := func() {
		st = tr.BeginEpoch()
		defineAll()
		for i, v := range vals {
			rt.Use(tr, &ctrs[i], v)
		}
		finalAll()
	}
	f.endEpoch = timeBatches(rec, parent, "rt", "rt.Tracker.EndEpoch", func() float64 {
		var d time.Duration
		for e := 0; e < epochs; e++ {
			epoch()
			t0 := time.Now()
			_, err := tr.EndEpoch()
			d += time.Since(t0)
			if err != nil && sealErr == nil {
				sealErr = err
			}
		}
		return perCall(d, epochs)
	})
	if sealErr != nil {
		return f, fmt.Errorf("probe: balanced epoch failed to seal: %w", sealErr)
	}
	f.rollback = timeBatches(rec, parent, "rt", "rt.Tracker.Rollback", func() float64 {
		var d time.Duration
		for e := 0; e < epochs; e++ {
			epoch()
			t0 := time.Now()
			err := tr.Rollback(st)
			d += time.Since(t0)
			if err != nil && sealErr == nil {
				sealErr = err
			}
		}
		return perCall(d, epochs)
	})
	f.scrubDetector = timeBatches(rec, parent, "rt", "rt.Tracker.ScrubDetector", func() float64 {
		t0 := time.Now()
		for r := 0; r < single; r++ {
			if err := tr.ScrubDetector(); err != nil && sealErr == nil {
				sealErr = err
			}
		}
		return perCall(time.Since(t0), single)
	})
	if sealErr != nil {
		return f, fmt.Errorf("probe: rollback or scrub failed: %w", sealErr)
	}
	return f, nil
}

func perCall(d time.Duration, calls int) float64 { return float64(d.Nanoseconds()) / float64(calls) }
