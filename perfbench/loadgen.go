package main

import (
	"context"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator is open-loop: request i is due at start + i/rate no
// matter how earlier requests fared, so a slow server faces the same
// arrivals as a fast one and a queue can build. At most conns requests are
// in flight at once (one per client connection); a request whose connection
// is still busy when it falls due waits, and that wait is charged to it,
// because latency is timed from the due time rather than the send time.

// shot is the timing of one scheduled request.
type shot struct {
	Due  time.Duration // scheduled send time, since the schedule started
	Sent time.Duration // when a connection actually sent it
	Done time.Duration // when its response completed
	Err  error         // the send function's error, if any
}

// Latency is the request's latency as its caller sees it: from due to done.
func (s shot) Latency() time.Duration { return s.Done - s.Due }

// Late is how far behind schedule the generator sent the request.
func (s shot) Late() time.Duration { return s.Sent - s.Due }

// openLoop sends n requests at rate per second over conns concurrent
// connections and returns each request's timing, indexed by request. send
// performs request i; it runs on one of conns goroutines, all of which have
// returned when openLoop does. Cancelling ctx stops sending; requests never
// sent keep a zero shot with ctx's error.
func openLoop(ctx context.Context, rate float64, n, conns int, send func(i int) error) []shot {
	shots := make([]shot, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				sleepUntil(ctx, start.Add(due))
				if err := ctx.Err(); err != nil {
					shots[i] = shot{Due: due, Err: err}
					continue
				}
				sent := time.Since(start)
				err := send(i)
				shots[i] = shot{Due: due, Sent: sent, Done: time.Since(start), Err: err}
			}
		}()
	}
	wg.Wait()
	return shots
}

// sleepUntil blocks until deadline or until ctx is done. Runtime timers wake
// up to a millisecond late when the process is otherwise idle (the poller
// waits in whole milliseconds), which at these request rates would swamp
// the server's own latency, so the last stretch of the wait is a nanosleep
// system call, which the kernel's high-resolution timers end on time.
func sleepUntil(ctx context.Context, deadline time.Time) {
	const slice = 20 * time.Millisecond
	for {
		wait := time.Until(deadline)
		if wait <= 0 || ctx.Err() != nil {
			return
		}
		wait = min(wait, slice)
		ts := syscall.NsecToTimespec(int64(wait))
		// EINTR only cuts the sleep short; the loop sleeps the remainder.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
