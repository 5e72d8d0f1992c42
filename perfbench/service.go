package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"defuse/internal/faults"
	"defuse/internal/server"
	"defuse/internal/wal"
)

// service-verify: an in-process defused service (server.New) journaling to
// local disk with 5% live fault injection, served over loopback and driven
// open-loop at 500 and then 1500 requests per second over at most two
// connections. Every response is audited against a locally recomputed
// sampler schedule and server.ReferenceDigest.

const (
	svcWords     = 64
	svcEpochs    = 8
	svcFaultRate = 0.05
	svcConns     = 2
	svcWarmup    = 200
)

// svcRates are the open-loop steps, each run for half of --seconds.
var svcRates = []float64{500, 1500}

// service is one running server with its loopback listener.
type service struct {
	srv     *server.Server
	cfg     server.Config
	http    *http.Server
	url     string
	client  *http.Client
	done    chan error
	sampler *faults.LiveSampler

	// acked accounts every request answered 200, which the journal must
	// hold: its count, injected count, and the XOR of its IDs.
	mu       sync.Mutex
	ackN     int
	ackInj   int
	ackXorID uint64
}

// serviceConfig derives the server configuration from the run seed.
func serviceConfig(seed int64, walPath string) server.Config {
	return server.Config{
		Words: svcWords, Epochs: svcEpochs,
		Seed:      uint64(seed)*0x9e3779b97f4a7c15 + 1,
		FaultRate: svcFaultRate, FaultSeed: uint64(seed) + 17,
		WALPath: walPath,
	}
}

// startService builds the server and serves its Handler on a loopback
// listener.
func startService(cfg server.Config) (*service, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background()) // the listen error is the one to report
		return nil, err
	}
	s := &service{
		srv: srv, cfg: cfg,
		http: &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String() + "/run",
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: svcConns, MaxIdleConnsPerHost: svcConns,
		}},
		done:    make(chan error, 1),
		sampler: faults.NewLiveSampler(cfg.FaultRate, cfg.FaultSeed),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the server, then shuts the listener down and waits for it.
// It returns the drain time.
func (s *service) stop() (time.Duration, error) {
	t0 := time.Now()
	derr := s.srv.Drain(context.Background())
	d := time.Since(t0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	serr := s.http.Shutdown(ctx)
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) && serr == nil {
		serr = err
	}
	s.client.CloseIdleConnections()
	return d, errors.Join(derr, serr)
}

// outcome is one audited request.
type outcome struct {
	injected bool
	execute  float64 // the server's elapsed_seconds
	ok       bool
}

// call sends one verify request and audits the response: it must be a 200
// whose injection flag matches the locally recomputed sampler, whose
// injected fault was detected and recovered, that did not degrade, and
// whose digest equals the reference.
func (s *service) call(id uint64, t *tally) outcome {
	out := outcome{injected: s.sampler.Sample(id)}
	// Marshal cannot fail on a struct of integers and strings.
	body, _ := json.Marshal(server.Request{ID: id, Kind: "verify", Words: svcWords, Epochs: svcEpochs})
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.check(false, "request %d: %v", id, err)
		return out
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.check(false, "request %d: status %d %v", id, resp.StatusCode, err)
		return out
	}
	var r server.Response
	if err := json.Unmarshal(raw, &r); err != nil {
		t.check(false, "request %d: %v", id, err)
		return out
	}
	s.mu.Lock()
	s.ackN++
	s.ackXorID ^= id
	if r.Injected {
		s.ackInj++
	}
	s.mu.Unlock()
	out.execute = r.Elapsed
	ref := server.ReferenceDigest(svcWords, svcEpochs, s.cfg.Seed, id)
	var fail string
	switch {
	case r.Injected != out.injected:
		fail = fmt.Sprintf("injected=%v, local sampler says %v", r.Injected, out.injected)
	case out.injected && (!r.Detected || !r.Recovered):
		fail = fmt.Sprintf("injected fault detected=%v recovered=%v", r.Detected, r.Recovered)
	case r.Tainted:
		fail = "degraded to tainted"
	case r.Digest != ref:
		fail = fmt.Sprintf("digest %x, reference %x", r.Digest, ref)
	}
	t.check(fail == "", "request %d: %s", id, fail)
	out.ok = fail == ""
	return out
}

// step is one open-loop rate step's results.
type step struct {
	rate     float64
	shots    []shot
	outcomes []outcome
}

// latencies returns the client latencies (seconds) of successful requests,
// clean or injected.
func (st step) latencies(injected bool) []float64 {
	var xs []float64
	for i, sh := range st.shots {
		if o := st.outcomes[i]; o.ok && o.injected == injected {
			xs = append(xs, sh.Latency().Seconds())
		}
	}
	return xs
}

// runStep drives one open-loop step of n requests starting at ID first.
func (s *service) runStep(ctx context.Context, rate float64, n int, first uint64, t *tally, rec *recorder, parent int64) step {
	st := step{rate: rate, outcomes: make([]outcome, n)}
	st.shots = openLoop(ctx, rate, n, svcConns, func(i int) error {
		sp := rec.start(parent, "server", "POST /run")
		st.outcomes[i] = s.call(first+uint64(i), t)
		sp.end()
		return nil
	})
	return st
}

// warm sends closed-loop requests so connections, pools and the journal
// file are live before anything is timed.
func (s *service) warm(n int, first uint64, t *tally) {
	var wg sync.WaitGroup
	for c := 0; c < svcConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += svcConns {
				s.call(first+uint64(i), t)
			}
		}(c)
	}
	wg.Wait()
}

// walAppendTimes times n appends of journal-sized (42-byte) records to a
// fresh segmented log in dir; each append fsyncs.
func walAppendTimes(dir string, n int, rec *recorder, parent int64) ([]float64, error) {
	path := filepath.Join(dir, "append-probe.wal")
	l, err := wal.CreateSegmented(path, wal.SegmentOptions{})
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 42)
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		payload[0] = byte(i)
		sp := rec.start(parent, "wal", "wal.SegmentedLog.Append")
		t0 := time.Now()
		err := l.Append(payload)
		d := time.Since(t0)
		sp.end()
		if err != nil {
			_ = l.Close()
			return nil, err
		}
		xs = append(xs, d.Seconds())
	}
	if err := l.Close(); err != nil {
		return nil, err
	}
	return xs, nil
}

// checkJournal verifies the drained service's journal and requires it to
// account for exactly the acknowledged requests.
func (s *service) checkJournal(t *tally) (server.JournalStats, time.Duration, error) {
	t0 := time.Now()
	js, err := server.VerifyJournal(s.cfg.WALPath)
	d := time.Since(t0)
	if err != nil {
		return js, d, fmt.Errorf("verify journal: %w", err)
	}
	t.check(js.Total == s.ackN && js.XorIDs == s.ackXorID,
		"journal holds %d records (xor %x), %d acknowledged (xor %x)", js.Total, js.XorIDs, s.ackN, s.ackXorID)
	t.check(js.Injected == s.ackInj && js.Detected == js.Injected && js.Recovered == js.Injected && js.Tainted == 0,
		"journal: injected %d (acknowledged %d), detected %d, recovered %d, tainted %d",
		js.Injected, s.ackInj, js.Detected, js.Recovered, js.Tainted)
	t.check(!js.TornTail && !js.Corrupt, "journal: torn tail %v, corrupt %v", js.TornTail, js.Corrupt)
	return js, d, nil
}

// resume reopens the drained journal with server.New, checks what the
// resume scan found against the journal, and drains the new instance.
func resumeService(cfg server.Config, js server.JournalStats, t *tally) (time.Duration, error) {
	t0 := time.Now()
	srv, err := server.New(cfg)
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("resume: %w", err)
	}
	info := srv.Resume()
	t.check(info.Records+info.Compacted == js.Total && info.Reverified && !info.TornTail && !info.Corrupt,
		"resume: %d live + %d compacted records, re-verified %v, torn %v, corrupt %v; journal holds %d",
		info.Records, info.Compacted, info.Reverified, info.TornTail, info.Corrupt, js.Total)
	return d, srv.Drain(context.Background())
}

// newDir makes a fresh directory for one service instance.
func newDir(root, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
