package chaos

// The soak's client side: every request is audited against locally computed
// truth (the live-fault sampler and the reference digest are pure functions
// the client recomputes), refusals are retried honoring Retry-After, and a
// running XOR-of-IDs ledger of every acknowledged request is kept for the
// end-of-soak conservation check against the journal. The adversarial
// volleys — stalled bodies, mid-flight disconnects, duplicates, malformed
// payloads, bursts — live here too: they are requests, just hostile ones.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"defuse/internal/faults"
	"defuse/internal/recovery"
	"defuse/internal/server"
)

// loader drives audited traffic at one child incarnation after another (the
// target moves across restarts; the ledger does not).
type loader struct {
	client  *http.Client
	sampler *faults.LiveSampler
	words   int
	epochs  int
	seed    uint64
	kernel  bool
	backoff recovery.Policy

	mu     sync.Mutex
	target string
	nextID uint64
	lastOK uint64 // newest acknowledged ID (the duplicate adversary replays it)

	// The ledger: every 200-acknowledged request, by count and XOR of IDs.
	acked     int
	xorIDs    uint64
	injected  int
	detected  int
	recovered int
	kernelN   int

	// Final refusals and observed journal faults.
	shed        int
	rejected    int
	retries     int
	retriedOK   int
	writeFaults int

	// Zero-tolerance tallies. anomalies counts every fail() call (the
	// failures list is bounded; the counter is not) — client-side findings
	// with no dedicated column of their own.
	silent     int
	undetected int
	anomalies  int
	failures   []string
}

func newLoader(target string, cfg Config) *loader {
	return &loader{
		client:  &http.Client{Timeout: 10 * time.Second},
		sampler: faults.NewLiveSampler(cfg.FaultRate, cfg.FaultSeed),
		words:   cfg.Words,
		epochs:  cfg.Epochs,
		seed:    cfg.WorkSeed,
		kernel:  cfg.Kernel != "",
		backoff: recovery.Policy{Backoff: 20 * time.Millisecond, BackoffFactor: 2},
		target:  target,
	}
}

// retarget points the loader at a restarted child.
func (ld *loader) retarget(target string) {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	ld.target = target
}

func (ld *loader) url(path string) string {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	return ld.target + path
}

// fail records one audit violation (bounded detail; the count is what gates).
func (ld *loader) fail(format string, args ...any) {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	ld.anomalies++
	if len(ld.failures) < 20 {
		ld.failures = append(ld.failures, fmt.Sprintf(format, args...))
	}
}

// post sends one /run request to the current child.
func (ld *loader) post(ctx context.Context, req server.Request) (server.PostResult, error) {
	return server.PostRun(ctx, ld.client, ld.url(""), req)
}

// claimID dispenses the next request ID. IDs are never reused across
// incarnations, so any 409 outside the duplicate adversary is a finding.
func (ld *loader) claimID() uint64 {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	ld.nextID++
	return ld.nextID
}

// audit grades one 200 response against the locally recomputed truth and
// folds it into the ledger.
func (ld *loader) audit(req server.Request, resp server.Response) {
	v := server.Audit(ld.sampler, ld.seed, req, resp)
	ld.mu.Lock()
	defer ld.mu.Unlock()
	ld.acked++
	ld.xorIDs ^= req.ID
	ld.lastOK = req.ID
	if req.Kind == server.KindKernel {
		ld.kernelN++
	}
	if v.Injected {
		ld.injected++
		if resp.Detected {
			ld.detected++
		}
		if resp.Recovered {
			ld.recovered++
		}
	}
	note := func(msg string) {
		if len(ld.failures) < 20 {
			ld.failures = append(ld.failures, msg)
		}
	}
	if v.Undetected != "" {
		ld.undetected++
		note(v.Undetected)
	}
	if v.Wrong != "" {
		ld.silent++
		note(v.Wrong)
	}
}

// request runs one audited request to a final outcome, retrying refusals
// with Retry-After-honoring backoff. maxRetries bounds the retry budget.
func (ld *loader) request(ctx context.Context, maxRetries int) {
	id := ld.claimID()
	req := server.Request{ID: id, Kind: server.KindVerify, Words: ld.words, Epochs: ld.epochs}
	if ld.kernel && id%7 == 0 {
		req.Kind = server.KindKernel
		req.Words, req.Epochs = 0, 0
	}
	attempt := 0
	for {
		res, err := ld.post(ctx, req)
		status, retryAfter := res.Status, res.RetryAfter
		switch {
		case err != nil:
			if ctx.Err() == nil {
				ld.fail("request %d: transport: %v", id, err)
			}
			return
		case status == http.StatusOK:
			ld.audit(req, res.Response)
			if attempt > 0 {
				ld.mu.Lock()
				ld.retriedOK++
				ld.mu.Unlock()
			}
			return
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			if retryAfter == 0 && status == http.StatusTooManyRequests {
				ld.fail("request %d: 429 without Retry-After", id)
			}
			if attempt >= maxRetries || ctx.Err() != nil {
				ld.mu.Lock()
				if status == http.StatusTooManyRequests {
					ld.shed++
				} else {
					ld.rejected++
				}
				ld.mu.Unlock()
				return
			}
			ld.mu.Lock()
			ld.retries++
			ld.mu.Unlock()
			delay := retryAfter
			if delay <= 0 || delay > time.Second {
				delay = ld.backoff.Delay(attempt)
			}
			attempt++
			select {
			case <-ctx.Done():
				return
			case <-time.After(delay):
			}
		case status == http.StatusInternalServerError && strings.Contains(res.Body, "injected"):
			// The armed WAL fault fired under this request: the append was
			// rolled back, the failure declared, and the ID conservatively
			// reserved — a retry of the same ID must be refused with 409.
			ld.mu.Lock()
			ld.writeFaults++
			ld.mu.Unlock()
			res2, err2 := ld.post(ctx, req)
			if err2 == nil && res2.Status != http.StatusConflict {
				ld.fail("request %d: retry after injected journal fault got %d, want 409 (reservation lost)", id, res2.Status)
			}
			return
		case status == http.StatusConflict:
			ld.fail("request %d: unexpected 409 (ID never reused): %s", id, res.Body)
			return
		default:
			if ctx.Err() == nil {
				ld.fail("request %d: status %d: %s", id, status, res.Body)
			}
			return
		}
	}
}

// round drives n audited requests with conc workers and waits for them all.
func (ld *loader) round(ctx context.Context, n, conc int) {
	if conc <= 0 {
		conc = 2
	}
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			ld.request(ctx, 4)
		}()
	}
	wg.Wait()
}

// burst fires a volley far past the admission queue with a minimal retry
// budget, then reports whether the ladder was seen off the healthy rung.
func (ld *loader) burst(ctx context.Context, volley int) (sawOverload bool) {
	stateCh := make(chan string, 1)
	watchCtx, stopWatch := context.WithCancel(ctx)
	go func() {
		worst := ""
		for watchCtx.Err() == nil {
			if st, err := ld.stats(watchCtx); err == nil {
				if st.State == server.StateDegraded {
					worst = st.State
					break
				}
				if st.State == server.StateShedding && worst == "" {
					worst = st.State
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		stateCh <- worst
	}()
	var wg sync.WaitGroup
	for i := 0; i < volley; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ld.request(ctx, 1)
		}()
	}
	wg.Wait()
	stopWatch()
	worst := <-stateCh
	return worst != ""
}

// stats fetches the child's live counters.
func (ld *loader) stats(ctx context.Context) (server.Stats, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, ld.url("/stats"), nil)
	if err != nil {
		return server.Stats{}, err
	}
	hresp, err := ld.client.Do(hreq)
	if err != nil {
		return server.Stats{}, err
	}
	defer hresp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(hresp.Body).Decode(&st); err != nil {
		return server.Stats{}, err
	}
	return st, nil
}

// stallReader trickles its payload a few bytes at a time — the stalled-body
// adversary. The server must neither hang forever nor corrupt state.
type stallReader struct {
	data  []byte
	pos   int
	chunk int
	pause time.Duration
}

func (r *stallReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	if r.pos > 0 {
		time.Sleep(r.pause)
	}
	n := copy(p, r.data[r.pos:min(r.pos+r.chunk, len(r.data))])
	r.pos += n
	return n, nil
}

// adversaries runs one hostile-client volley. Every sub-attack has an exact
// expected outcome; anything else is an audit failure.
func (ld *loader) adversaries(ctx context.Context) {
	// Stalled body: a valid request dribbled out slowly must still complete
	// and audit clean.
	id := ld.claimID()
	req := server.Request{ID: id, Kind: server.KindVerify, Words: ld.words, Epochs: ld.epochs}
	raw, _ := json.Marshal(req)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ld.url("/run"),
		&stallReader{data: raw, chunk: 4, pause: 15 * time.Millisecond})
	if err == nil {
		hreq.Header.Set("Content-Type", "application/json")
		if hresp, err := ld.client.Do(hreq); err == nil {
			func() {
				defer hresp.Body.Close()
				if hresp.StatusCode == http.StatusOK {
					var resp server.Response
					if json.NewDecoder(hresp.Body).Decode(&resp) == nil {
						ld.audit(req, resp)
					}
				} else if hresp.StatusCode != http.StatusTooManyRequests &&
					hresp.StatusCode != http.StatusServiceUnavailable {
					ld.fail("stalled-body request %d: status %d", id, hresp.StatusCode)
				}
			}()
		} else if ctx.Err() == nil {
			ld.fail("stalled-body request %d: %v", id, err)
		}
	}

	// Mid-flight disconnect: the client vanishes while the body streams. The
	// ID is burned (the server may or may not have parsed it); nothing is
	// audited — the next requests prove the server survived.
	id = ld.claimID()
	req = server.Request{ID: id, Kind: server.KindVerify, Words: ld.words, Epochs: ld.epochs}
	raw, _ = json.Marshal(req)
	cutCtx, cut := context.WithCancel(ctx)
	hreq, err = http.NewRequestWithContext(cutCtx, http.MethodPost, ld.url("/run"),
		&stallReader{data: raw, chunk: 2, pause: 30 * time.Millisecond})
	if err == nil {
		hreq.Header.Set("Content-Type", "application/json")
		go func() {
			time.Sleep(20 * time.Millisecond)
			cut()
		}()
		if hresp, err := ld.client.Do(hreq); err == nil {
			hresp.Body.Close()
		}
	}
	cut()

	// Duplicate ID: replaying an acknowledged (journaled) ID must be refused
	// with 409 — accepting it would make the journal ambiguous.
	ld.mu.Lock()
	dup := ld.lastOK
	ld.mu.Unlock()
	if dup != 0 {
		req = server.Request{ID: dup, Kind: server.KindVerify, Words: ld.words, Epochs: ld.epochs}
		if res, err := ld.post(ctx, req); err == nil && res.Status != http.StatusConflict {
			if res.Status == http.StatusOK {
				ld.mu.Lock()
				ld.silent++
				ld.mu.Unlock()
			}
			ld.fail("duplicate request %d: status %d, want 409", dup, res.Status)
		}
	}

	// Malformed payload: not JSON. Must be a 400, not a hang or a 500.
	hreq, err = http.NewRequestWithContext(ctx, http.MethodPost, ld.url("/run"),
		strings.NewReader(`{"id": 7, "kind": `))
	if err == nil {
		hreq.Header.Set("Content-Type", "application/json")
		if hresp, err := ld.client.Do(hreq); err == nil {
			hresp.Body.Close()
			if hresp.StatusCode != http.StatusBadRequest {
				ld.fail("malformed payload: status %d, want 400", hresp.StatusCode)
			}
		} else if ctx.Err() == nil {
			ld.fail("malformed payload: %v", err)
		}
	}

	// Oversized dimensions: past the 4x size cap. Must be refused with 400
	// before consuming a slot.
	req = server.Request{ID: ld.claimID(), Kind: server.KindVerify, Words: 100 * ld.words, Epochs: ld.epochs}
	if res, err := ld.post(ctx, req); err == nil && res.Status != http.StatusBadRequest {
		ld.fail("oversized request: status %d, want 400", res.Status)
	}
}
