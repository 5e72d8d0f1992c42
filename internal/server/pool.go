package server

import (
	"context"
	"fmt"

	"defuse/internal/bench"
	"defuse/rt"
)

// Pools hand out exclusive detector state per request. Concurrent requests
// must never share a tracker: two interleaved requests on one tracker would
// fold each other's words into a common checksum and produce spurious
// mismatches. "Pooled" therefore means reused across requests, never shared
// within one — a request checks a tracker out, runs its epochs, and the pool
// Resets it (nothing leaks between requests).

// trackerPool is a fixed-size free list of trackers.
type trackerPool struct {
	ch chan *rt.Tracker
}

func newTrackerPool(n int) *trackerPool {
	p := &trackerPool{ch: make(chan *rt.Tracker, n)}
	for i := 0; i < n; i++ {
		p.ch <- rt.NewTracker()
	}
	return p
}

// get blocks until a tracker is free or ctx is done. Admission control caps
// in-flight requests at the pool size, so under normal operation get returns
// immediately.
func (p *trackerPool) get(ctx context.Context) (*rt.Tracker, error) {
	select {
	case t := <-p.ch:
		return t, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// put resets the tracker and returns it to the free list.
func (p *trackerPool) put(t *rt.Tracker) {
	t.Reset()
	p.ch <- t
}

// kernelPool is a fixed-size free list of preloaded kernel runners, all for
// the same benchmark. Building a runner parses and instruments the program
// and allocates its memory image, so the pool pays that cost n times at
// startup instead of per request.
type kernelPool struct {
	ch  chan *kernelRunner
	ref uint64 // warmup reference digest, shared by every runner
}

func newKernelPool(ctx context.Context, name string, scale float64, n int, tel bench.Telemetry) (*kernelPool, error) {
	b, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	p := &kernelPool{ch: make(chan *kernelRunner, n)}
	for i := 0; i < n; i++ {
		kr, err := newKernelRunner(b, scale, tel)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			// One warmup run establishes the reference digest every request
			// must reproduce — and proves the instrumented kernel verifies
			// cleanly before the service advertises readiness.
			ref, werr := kr.warmup(ctx)
			if werr != nil {
				return nil, werr
			}
			p.ref = ref
		}
		p.ch <- kr
	}
	return p, nil
}

func (p *kernelPool) get(ctx context.Context) (*kernelRunner, error) {
	if p == nil {
		return nil, fmt.Errorf("server: no kernel configured")
	}
	select {
	case kr := <-p.ch:
		return kr, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (p *kernelPool) put(kr *kernelRunner) {
	kr.reset()
	p.ch <- kr
}
