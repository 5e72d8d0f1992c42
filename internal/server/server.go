package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"defuse/internal/bench"
	"defuse/internal/faults"
	"defuse/internal/recovery"
	"defuse/internal/wal"
	"defuse/telemetry"
)

// Config describes one resident detection service.
type Config struct {
	// Words and Epochs are the verify-job defaults (requests may override
	// within [1, 4*default]).
	Words  int
	Epochs int
	// Seed derives verify jobs' initial data.
	Seed uint64
	// Kernel, when non-empty, preloads a pool of interpreter machines for
	// the named benchmark at Scale; requests with kind "kernel" run on them.
	Kernel string
	Scale  float64
	// MaxInFlight bounds concurrently executing requests (default 4); it is
	// also the size of each pool.
	MaxInFlight int
	// QueueDepth bounds requests waiting for a free slot; arrivals beyond it
	// are shed with 429 (default 2*MaxInFlight).
	QueueDepth int
	// Timeout is the per-request deadline propagated into epoch supervision
	// and interpreter step loops (default 30s).
	Timeout time.Duration
	// FaultRate and FaultSeed configure sampled live fault injection on
	// verify requests. Rate 0 disables injection.
	FaultRate float64
	FaultSeed uint64
	// FaultAddrFraction is the fraction of sampled hits injected as address
	// faults (a wrong-location load) instead of data bit flips. Part of the
	// sampler's shared contract: the load generator must mirror it to audit.
	FaultAddrFraction float64
	// WALPath, when non-empty, journals every completed request for
	// crash-consistent resume.
	WALPath string
	// WALSegmentBytes seals the journal's active segment before it exceeds
	// this size (default 64 MiB — effectively one segment for CI bursts).
	WALSegmentBytes int64
	// WALMaxSegments caps sealed segments before the oldest compacts into
	// the summary (default 8; 0 keeps the default, -1 disables compaction).
	WALMaxSegments int
	// WALFS, when non-nil, routes journal writes through an alternate file
	// layer (the chaos soak injects fsync/write faults here).
	WALFS wal.FS
	// DegradeAfterSheds is how many consecutive sheds push the overload
	// ladder from shedding to degraded (default 2*QueueDepth).
	DegradeAfterSheds int
	// RecoverAfterOK is how many consecutive successful admissions walk the
	// ladder back to healthy (default QueueDepth).
	RecoverAfterOK int
	// Policy bounds per-request recovery effort (zero value: DefaultPolicy).
	Policy recovery.Policy
	// Obs supplies telemetry (any component may be nil); the obs Health, when
	// present, tracks readiness and in-flight count.
	Obs *telemetry.Obs
}

// Stats is the service's live counter snapshot, served at /stats.
type Stats struct {
	Requests     int64  `json:"requests"`
	Verify       int64  `json:"verify"`
	Kernel       int64  `json:"kernel"`
	Shed         int64  `json:"shed"`
	Rejected     int64  `json:"rejected"`
	Errors       int64  `json:"errors"`
	Injected     int64  `json:"injected"`
	Detected     int64  `json:"detected"`
	Recovered    int64  `json:"recovered"`
	Tainted      int64  `json:"tainted"`
	Duplicates   int64  `json:"duplicates"`
	JournalFault int64  `json:"journal_faults"`
	InFlight     int64  `json:"in_flight"`
	WALRecords   int    `json:"wal_records"`
	WALCompacted int    `json:"wal_compacted"`
	WALSegments  int    `json:"wal_segments"`
	WALDiskBytes int64  `json:"wal_disk_bytes"`
	State        string `json:"state"`
	DegradedN    int64  `json:"degraded_entered"`
	Draining     bool   `json:"draining"`
}

// Request is the /run request body.
type Request struct {
	ID     uint64 `json:"id"`
	Kind   string `json:"kind,omitempty"`   // "verify" (default) or "kernel"
	Words  int    `json:"words,omitempty"`  // verify override
	Epochs int    `json:"epochs,omitempty"` // verify override
}

// Response is the /run response body.
type Response struct {
	ID        uint64  `json:"id"`
	Kind      string  `json:"kind"`
	Injected  bool    `json:"injected"`
	Detected  bool    `json:"detected"`
	Recovered bool    `json:"recovered"`
	Tainted   bool    `json:"tainted"`
	Retries   int     `json:"retries"`
	Restarts  int     `json:"restarts"`
	Digest    uint64  `json:"digest"`
	RefDigest uint64  `json:"ref_digest"`
	Elapsed   float64 `json:"elapsed_seconds"`
}

// Server is the resident detection service.
type Server struct {
	cfg      Config
	tel      bench.Telemetry
	health   *telemetry.Health
	sampler  *faults.LiveSampler
	trackers *trackerPool
	kernels  *kernelPool
	journal  *journal
	resume   ResumeInfo
	ladder   *ladder

	slots    chan struct{} // in-flight semaphore, cap MaxInFlight
	queued   atomic.Int64  // requests waiting for a slot
	drainCh  chan struct{} // closed when draining starts
	drainOne sync.Once
	wg       sync.WaitGroup // in-flight request workers

	requests, verifyN, kernelN     atomic.Int64
	shed, rejected, errCount       atomic.Int64
	injected, detected, recoveredN atomic.Int64
	taintedN                       atomic.Int64
	duplicates, journalFaults      atomic.Int64
	latency                        *telemetry.Histogram
	requestCount                   func(result string) *telemetry.Counter
}

// New builds the service: pools allocated, kernel warmed up, journal scanned
// and resumed (the newest valid record is re-verified from first
// principles), health still unready — the caller flips it after mounting
// routes.
func New(cfg Config) (*Server, error) {
	if cfg.Words <= 0 {
		cfg.Words = 64
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 8
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.MaxInFlight
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.WALSegmentBytes <= 0 {
		cfg.WALSegmentBytes = 64 << 20
	}
	switch {
	case cfg.WALMaxSegments == 0:
		cfg.WALMaxSegments = 8
	case cfg.WALMaxSegments < 0:
		cfg.WALMaxSegments = 0 // compaction disabled
	}
	if cfg.DegradeAfterSheds <= 0 {
		cfg.DegradeAfterSheds = 2 * cfg.QueueDepth
	}
	if cfg.RecoverAfterOK <= 0 {
		cfg.RecoverAfterOK = cfg.QueueDepth
	}
	if cfg.Policy.MaxRetries == 0 && cfg.Policy.MaxRestarts == 0 {
		cfg.Policy = recovery.DefaultPolicy()
	}
	obs := cfg.Obs
	if obs == nil {
		obs = &telemetry.Obs{}
	}
	s := &Server{
		cfg:     cfg,
		tel:     bench.Telemetry{Metrics: obs.Metrics, Tracer: obs.Tracer},
		health:  obs.Health,
		slots:   make(chan struct{}, cfg.MaxInFlight),
		drainCh: make(chan struct{}),
	}
	s.ladder = newLadder(cfg.DegradeAfterSheds, cfg.RecoverAfterOK, announceState(obs))
	obs.Health.SetState(StateHealthy)
	if reg := obs.Metrics; reg != nil {
		reg.Gauge("defuse_server_state").Set(stateLevel(StateHealthy))
	}
	if cfg.FaultRate > 0 {
		s.sampler = faults.NewLiveSampler(cfg.FaultRate, cfg.FaultSeed).
			WithAddrFraction(cfg.FaultAddrFraction)
	}
	s.trackers = newTrackerPool(cfg.MaxInFlight)
	if cfg.Kernel != "" {
		scale := cfg.Scale
		if scale <= 0 {
			scale = 0.002
		}
		kp, err := newKernelPool(context.Background(), cfg.Kernel, scale, cfg.MaxInFlight, s.tel)
		if err != nil {
			return nil, err
		}
		s.kernels = kp
	}
	if cfg.WALPath != "" {
		jcfg := journalConfig{
			SegmentBytes: cfg.WALSegmentBytes,
			MaxSegments:  cfg.WALMaxSegments,
			FS:           cfg.WALFS,
		}
		if tr := obs.Tracer; tr.Enabled() || obs.Metrics != nil {
			jcfg.OnRotate = func(path string, bytes int64, records int) {
				tr.Mark(telemetry.SpanContext{}, telemetry.EvJournalRotate, telemetry.String("segment", path),
					telemetry.Int64("bytes", bytes), telemetry.Int("records", records))
				if reg := obs.Metrics; reg != nil {
					reg.Counter("defuse_journal_rotations_total").Inc()
				}
			}
			jcfg.OnCompact = func(path string, folded int, diskBytes int64) {
				tr.Mark(telemetry.SpanContext{}, telemetry.EvJournalCompact, telemetry.String("segment", path),
					telemetry.Int("folded", folded), telemetry.Int64("disk_bytes", diskBytes))
				if reg := obs.Metrics; reg != nil {
					reg.Counter("defuse_journal_compactions_total").Inc()
					reg.Gauge("defuse_journal_disk_bytes").Set(float64(diskBytes))
				}
			}
		}
		j, info, err := openJournal(cfg.WALPath, jcfg)
		if err != nil {
			return nil, fmt.Errorf("server: journal: %w", err)
		}
		s.journal = j
		s.resume = info
	}
	if reg := obs.Metrics; reg != nil {
		s.latency = reg.Histogram("defuse_service_request_seconds", telemetry.DefBuckets())
		s.requestCount = func(result string) *telemetry.Counter {
			return reg.Counter("defuse_service_requests_total",
				telemetry.Label{Key: "result", Value: result})
		}
	}
	return s, nil
}

// Resume reports what the startup journal scan found.
func (s *Server) Resume() ResumeInfo { return s.resume }

// KernelRef returns the kernel pool's warmup reference digest (0 when no
// kernel is configured).
func (s *Server) KernelRef() uint64 {
	if s.kernels == nil {
		return 0
	}
	return s.kernels.ref
}

// Mount registers the service's routes on the telemetry server's mux, so
// /run and /stats share a port with /metrics, /healthz, and /readyz.
func (s *Server) Mount(ts *telemetry.Server) {
	ts.Handle("/run", http.HandlerFunc(s.handleRun))
	ts.Handle("/stats", http.HandlerFunc(s.handleStats))
}

// Handler returns a standalone mux with the service routes (test use).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// Draining reports whether a drain has started.
func (s *Server) Draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// Drain performs the graceful shutdown sequence: flip unready (load
// balancers stop sending), stop admitting (new arrivals and queued waiters
// get 503), wait for in-flight epochs to complete and verify, then seal the
// WAL. ctx bounds the wait; on expiry the WAL is still sealed (its records
// are each already fsynced) and the error reports the abandonment.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOne.Do(func() {
		s.health.SetDraining()
		s.ladder.noteDrain()
		close(s.drainCh)
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("server: drain abandoned with %d in flight: %w", s.health.InFlight(), ctx.Err())
	}
	if serr := s.journal.seal(); serr != nil && err == nil {
		err = serr
	}
	return err
}

// Stats snapshots the live counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:     s.requests.Load(),
		Verify:       s.verifyN.Load(),
		Kernel:       s.kernelN.Load(),
		Shed:         s.shed.Load(),
		Rejected:     s.rejected.Load(),
		Errors:       s.errCount.Load(),
		Injected:     s.injected.Load(),
		Detected:     s.detected.Load(),
		Recovered:    s.recoveredN.Load(),
		Tainted:      s.taintedN.Load(),
		Duplicates:   s.duplicates.Load(),
		JournalFault: s.journalFaults.Load(),
		InFlight:     s.health.InFlight(),
		WALRecords:   s.journal.records(),
		WALCompacted: s.journal.compacted(),
		WALSegments:  s.journal.segments(),
		WALDiskBytes: s.journal.diskBytes(),
		State:        s.ladder.current(),
		DegradedN:    s.ladder.degradedEntered(),
		Draining:     s.Draining(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Stats())
}

// count increments the per-result request counter when metrics are armed.
func (s *Server) count(result string) {
	if s.requestCount != nil {
		s.requestCount(result).Inc()
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Kind == "" {
		req.Kind = KindVerify
	}
	if req.Kind != KindVerify && req.Kind != KindKernel {
		http.Error(w, "unknown kind "+req.Kind, http.StatusBadRequest)
		return
	}
	if req.Kind == KindKernel && s.kernels == nil {
		http.Error(w, "no kernel configured", http.StatusBadRequest)
		return
	}
	// Malformed-by-size requests are refused before admission: they must
	// never consume a slot, and 400 tells the client not to retry.
	if req.Words > 4*s.cfg.Words || req.Epochs > 4*s.cfg.Epochs || req.Words < 0 || req.Epochs < 0 {
		s.errCount.Add(1)
		s.count("invalid")
		http.Error(w, fmt.Sprintf("request %d exceeds size caps (words <= %d, epochs <= %d)",
			req.ID, 4*s.cfg.Words, 4*s.cfg.Epochs), http.StatusBadRequest)
		return
	}
	// A request ID the journal already holds is refused with 409: replaying
	// an ID would make the journal ambiguous. (The journal re-checks under
	// its lock; this early check just avoids burning a slot.)
	if s.journal.knownID(req.ID) {
		s.duplicates.Add(1)
		s.count("duplicate")
		http.Error(w, fmt.Sprintf("duplicate request ID %d", req.ID), http.StatusConflict)
		return
	}

	// Admission, ordered by the degradation ladder. Draining refuses
	// outright (503: retry elsewhere); degraded refuses expensive kernel
	// jobs while still serving verify jobs (503 with Retry-After); a full
	// queue sheds (429 with Retry-After: back off). Queued waiters are
	// released with 503 the moment a drain starts — their work has not
	// begun, so refusing them keeps the drain window short and loses
	// nothing.
	if s.Draining() {
		s.rejected.Add(1)
		s.count("rejected")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if req.Kind == KindKernel && s.ladder.rejectKernel() {
		s.rejected.Add(1)
		s.count("degraded")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "degraded: kernel jobs rejected until load subsides", http.StatusServiceUnavailable)
		return
	}
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.shed.Add(1)
		s.count("shed")
		s.ladder.noteShed()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded", http.StatusTooManyRequests)
		return
	}
	select {
	case s.slots <- struct{}{}:
		s.queued.Add(-1)
		s.ladder.noteAdmit()
	case <-s.drainCh:
		s.queued.Add(-1)
		s.rejected.Add(1)
		s.count("rejected")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	case <-r.Context().Done():
		s.queued.Add(-1)
		s.errCount.Add(1)
		s.count("canceled")
		http.Error(w, "client gone", 499)
		return
	}

	// Admitted: from here the request runs to completion even if a drain
	// starts — in-flight epochs finish and verify.
	s.wg.Add(1)
	s.health.Add(1)
	defer func() {
		<-s.slots
		s.health.Add(-1)
		s.wg.Done()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Timeout)
	defer cancel()
	start := time.Now()
	resp, err := s.execute(ctx, &req)
	elapsed := time.Since(start)
	if s.latency != nil {
		s.latency.Observe(elapsed.Seconds())
	}
	if err != nil {
		s.errCount.Add(1)
		s.count("error")
		status := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		http.Error(w, err.Error(), status)
		return
	}
	resp.Elapsed = elapsed.Seconds()
	s.requests.Add(1)
	s.count("ok")
	if jerr := s.journal.append(JournalRecord{
		ID: resp.ID, Kind: resp.Kind,
		Injected: resp.Injected, Detected: resp.Detected,
		Recovered: resp.Recovered, Tainted: resp.Tainted,
		Words: req.Words, Epochs: req.Epochs, Seed: s.cfg.Seed,
		Digest: resp.Digest, RefDigest: resp.RefDigest,
	}); jerr != nil {
		if errors.Is(jerr, errDuplicateID) {
			// Lost the race with a concurrent duplicate that appended first.
			s.duplicates.Add(1)
			s.count("duplicate")
			http.Error(w, jerr.Error(), http.StatusConflict)
			return
		}
		// The request executed but could not be made durable; the append was
		// rolled back, so the journal stays consistent and the client must
		// treat the request as failed. Injected faults are declared in the
		// body (wal: injected ...) so an auditing client can tell the chaos
		// schedule's work from real disk trouble.
		s.errCount.Add(1)
		s.journalFaults.Add(1)
		if s.tel.Metrics != nil {
			s.tel.Metrics.Counter("defuse_journal_append_faults_total").Inc()
		}
		s.tel.Tracer.Mark(telemetry.SpanContext{}, telemetry.EvJournalFault,
			telemetry.Attr{Key: "id", Value: resp.ID}, telemetry.Bool("injected", errors.Is(jerr, wal.ErrInjected)),
			telemetry.String("error", jerr.Error()))
		http.Error(w, "journal: "+jerr.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// execute runs one admitted request on pooled state.
func (s *Server) execute(ctx context.Context, req *Request) (*Response, error) {
	switch req.Kind {
	case KindKernel:
		s.kernelN.Add(1)
		kr, err := s.kernels.get(ctx)
		if err != nil {
			return nil, err
		}
		defer s.kernels.put(kr)
		digest, out, err := kr.run(ctx, s.cfg.Policy)
		if err != nil {
			return nil, err
		}
		resp := &Response{
			ID: req.ID, Kind: KindKernel,
			Detected: out.Detected, Recovered: out.Recovered, Tainted: out.Tainted,
			Retries: out.Retries, Restarts: out.Restarts,
			Digest: digest, RefDigest: s.kernels.ref,
		}
		s.noteOutcome(resp)
		return resp, nil
	default:
		s.verifyN.Add(1)
		job := verifyJob{id: req.ID, words: req.Words, epochs: req.Epochs, seed: s.cfg.Seed}
		if job.words <= 0 {
			job.words = s.cfg.Words
		}
		if job.epochs <= 0 {
			job.epochs = s.cfg.Epochs
		}
		if job.words > 4*s.cfg.Words || job.epochs > 4*s.cfg.Epochs {
			return nil, fmt.Errorf("server: request %d exceeds size caps", req.ID)
		}
		req.Words, req.Epochs = job.words, job.epochs
		var plan *faults.LivePlan
		if s.sampler.Sample(req.ID) {
			p := s.sampler.Plan(req.ID, job.words, job.epochs)
			plan = &p
			s.injected.Add(1)
		}
		st, err := s.trackers.get(ctx)
		if err != nil {
			return nil, err
		}
		defer s.trackers.put(st)
		// One trace per request: the supervisor's epoch and recovery spans
		// and the injected fault's mark hang from the request span.
		var span telemetry.Span
		if s.tel.Tracer.Enabled() {
			span = s.tel.Tracer.Start(telemetry.SpanContext{}, "request",
				telemetry.Attr{Key: "id", Value: req.ID}, telemetry.Bool("injected", plan != nil))
		}
		res, err := runVerify(ctx, st, job, plan, s.cfg.Policy, s.tel, span.Context())
		span.EndErr(err)
		if err != nil {
			return nil, err
		}
		resp := &Response{
			ID: req.ID, Kind: KindVerify,
			Injected: plan != nil,
			Detected: res.outcome.Detected, Recovered: res.outcome.Recovered,
			Tainted: res.outcome.Tainted,
			Retries: res.outcome.Retries, Restarts: res.outcome.Restarts,
			Digest: res.digest, RefDigest: res.refDigest,
		}
		s.noteOutcome(resp)
		return resp, nil
	}
}

// noteOutcome tallies a completed request's detection/recovery flags.
func (s *Server) noteOutcome(resp *Response) {
	if resp.Detected {
		s.detected.Add(1)
	}
	if resp.Recovered {
		s.recoveredN.Add(1)
	}
	if resp.Tainted {
		s.taintedN.Add(1)
	}
}
