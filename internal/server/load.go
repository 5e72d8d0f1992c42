package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"defuse/internal/bench"
	"defuse/internal/faults"
	"defuse/internal/recovery"
	"defuse/telemetry"
)

// The load generator is the service's adversarial client: it drives
// configurable-concurrency request streams against a running defused,
// independently recomputes which requests the server must have injected
// (the sampler is a pure function of rate, seed, and request ID) and what
// digest each must produce, and audits every response against that local
// truth. The server never gets to grade its own homework.

// LoadConfig drives one load generation run.
type LoadConfig struct {
	// Target is the service base URL, e.g. "http://127.0.0.1:9150".
	Target string
	// Streams is the number of concurrent client streams (>= 1).
	Streams int
	// Requests is the total request count across all streams.
	Requests int
	// Words/Epochs size each verify request (0: server defaults — but the
	// auditor needs them to recompute references, so they must be explicit
	// and must match the server's seed-derived workload).
	Words  int
	Epochs int
	// Seed must equal the server's Config.Seed for reference recomputation.
	Seed uint64
	// FaultRate, FaultSeed, and FaultAddrFraction must mirror the server's
	// live sampler so the client knows which requests were injected and with
	// which fault shape.
	FaultRate         float64
	FaultSeed         uint64
	FaultAddrFraction float64
	// KernelEvery, when > 0, makes every Nth request a kernel job.
	KernelEvery int
	// FirstID offsets request IDs (so successive runs against one journal
	// never reuse an ID).
	FirstID uint64
	// Timeout bounds each HTTP request (default 60s).
	Timeout time.Duration
	// MaxRetries bounds how many times one request is retried after a 429 or
	// 503 refusal before the refusal is recorded as the final outcome
	// (default 3; negative disables retries). The wait between attempts
	// honors the server's Retry-After header, falling back to the
	// recovery-policy backoff schedule when the server did not name a delay.
	MaxRetries int
	// RetryBackoff is the fallback delay policy (default: recovery defaults,
	// 4ms doubling).
	RetryBackoff recovery.Policy
}

// LoadResult is the audited outcome of a load run.
type LoadResult struct {
	Row bench.ServiceRow
	// Mismatches lists audit failures (injected-but-undetected,
	// unrecovered, or wrong digest), at most 10, for the error message.
	Mismatches []string
}

// Gate enforces the sustained-load robustness bar: every injected fault
// detected and recovered to the exact reference result, zero clean-request
// digest mismatches, zero transport/server errors. Shed (429) and rejected
// (503) requests are legitimate admission-control outcomes, not failures.
func (r LoadResult) Gate() error {
	row := r.Row
	switch {
	case len(r.Mismatches) > 0:
		return fmt.Errorf("loadgen: %d audit failures, first: %s", len(r.Mismatches), r.Mismatches[0])
	case row.Errors > 0:
		return fmt.Errorf("loadgen: %d requests errored", row.Errors)
	case row.Injected != row.Detected || row.Injected != row.Recovered:
		return fmt.Errorf("loadgen: injected %d, detected %d, recovered %d — want all equal",
			row.Injected, row.Detected, row.Recovered)
	case row.CleanMismatches > 0:
		return fmt.Errorf("loadgen: %d clean requests returned wrong digests", row.CleanMismatches)
	case row.Requests == 0:
		return fmt.Errorf("loadgen: no requests completed")
	}
	return nil
}

// RunLoad drives the configured streams to completion and audits every
// response. ctx cancels the run early (remaining requests count as errors
// only if they were in flight).
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadResult, error) {
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}
	if cfg.Requests <= 0 {
		cfg.Requests = cfg.Streams
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.Words <= 0 || cfg.Epochs <= 0 {
		return LoadResult{}, fmt.Errorf("loadgen: words and epochs must be explicit (the auditor recomputes references from them)")
	}
	switch {
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = 3
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff.Backoff <= 0 {
		cfg.RetryBackoff = recovery.DefaultPolicy()
		cfg.RetryBackoff.Backoff = 50 * time.Millisecond
	}
	sampler := faults.NewLiveSampler(cfg.FaultRate, cfg.FaultSeed).
		WithAddrFraction(cfg.FaultAddrFraction)

	reg := telemetry.NewRegistry()
	hist := reg.Histogram("loadgen_request_seconds", telemetry.DefBuckets())
	client := &http.Client{Timeout: cfg.Timeout}

	var (
		next       atomic.Uint64 // dispensed request ordinals
		mu         sync.Mutex
		row        = bench.ServiceRow{Streams: cfg.Streams, FaultRate: cfg.FaultRate, FaultAddrFraction: cfg.FaultAddrFraction}
		mismatches []string
	)
	audit := func(req Request, resp Response) {
		v := Audit(sampler, cfg.Seed, req, resp)
		fail := v.Failure()
		mu.Lock()
		defer mu.Unlock()
		row.Requests++
		if v.Injected {
			row.Injected++
			// Recompute the full plan the server must have derived — the
			// sampler contract covers the fault shape, not just the hit set.
			if sampler.Plan(req.ID, req.Words, req.Epochs).Kind == faults.LiveAddrWrong {
				row.InjectedAddr++
			}
			if resp.Detected {
				row.Detected++
			}
			if resp.Recovered {
				row.Recovered++
			}
		} else {
			row.Clean++
			if fail != "" {
				row.CleanMismatches++
			}
		}
		if fail != "" && len(mismatches) < 10 {
			mismatches = append(mismatches, fail)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < cfg.Streams; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1)
				if n > uint64(cfg.Requests) {
					return
				}
				if ctx.Err() != nil {
					return
				}
				req := Request{ID: cfg.FirstID + n, Kind: KindVerify, Words: cfg.Words, Epochs: cfg.Epochs}
				if cfg.KernelEvery > 0 && n%uint64(cfg.KernelEvery) == 0 {
					req.Kind = KindKernel
					req.Words, req.Epochs = 0, 0
				}
				// Refusals (429/503) are retried with bounded backoff,
				// honoring the server's Retry-After; only the outcome of the
				// final attempt is recorded as Shed/Rejected, so the gate's
				// arithmetic stays meaningful under deliberate overload.
				var (
					res     PostResult
					err     error
					elapsed float64
				)
				attempt := 0
				for {
					t0 := time.Now()
					res, err = PostRun(ctx, client, cfg.Target, req)
					elapsed = time.Since(t0).Seconds()
					refused := err == nil &&
						(res.Status == http.StatusTooManyRequests || res.Status == http.StatusServiceUnavailable)
					if !refused || attempt >= cfg.MaxRetries || ctx.Err() != nil {
						break
					}
					mu.Lock()
					row.Retries++
					mu.Unlock()
					delay := res.RetryAfter
					if delay <= 0 {
						delay = cfg.RetryBackoff.Delay(attempt)
					}
					attempt++
					select {
					case <-ctx.Done():
					case <-time.After(delay):
					}
				}
				mu.Lock()
				switch {
				case err != nil:
					row.Errors++
				case res.Status == http.StatusTooManyRequests:
					row.Shed++
				case res.Status == http.StatusServiceUnavailable:
					row.Rejected++
				case res.Status != http.StatusOK:
					row.Errors++
				case attempt > 0:
					row.RetriedOK++
				}
				mu.Unlock()
				if err == nil && res.Status == http.StatusOK {
					hist.Observe(elapsed)
					audit(req, res.Response)
				}
			}
		}()
	}
	wg.Wait()
	row.DurationSeconds = time.Since(start).Seconds()
	if row.DurationSeconds > 0 {
		row.ThroughputRPS = float64(row.Requests) / row.DurationSeconds
	}
	if q, ok := reg.Snapshot().FamilyQuantiles("loadgen_request_seconds"); ok {
		row.P50Seconds = q.P50
		row.P99Seconds = q.P99
		row.P999Seconds = q.P999
	}
	return LoadResult{Row: row, Mismatches: mismatches}, nil
}
