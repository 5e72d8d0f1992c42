package faults

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"defuse/internal/checksum"
	"defuse/internal/splitmix"
	"defuse/internal/wal"
	"defuse/rt"
	"defuse/telemetry"
)

// This file is the hardened campaign driver: a worker pool runs injection
// trials in fixed-size chunks, every trial derives its own deterministic
// sub-seed, the whole campaign is context-cancellable with per-trial
// timeouts, and completed chunks are checkpointed to a JSON file so a killed
// run resumes where it left off. Because every tally is a sum over
// independently seeded trials, the final CoverageResult is byte-identical
// regardless of worker count, chunk completion order, or interruptions.

// DefaultChunkSize is the number of trials per checkpointable work unit.
const DefaultChunkSize = 256

// CampaignSchema identifies the campaign result JSON document.
const CampaignSchema = "defuse/faultcov/v2"

// checkpointSchema identifies the resume checkpoint JSON document. v2 added
// the per-chunk detection-latency histogram; v3 added the skipped-trial count
// and folded the cell backend and address-fault kind into the fingerprint, so
// a checkpoint written against a different cell matrix (or by an older binary
// that tallied skips as detections) is refused rather than resumed. v4 chunks
// embed Tally, so their count keys are its field names.
const checkpointSchema = "defuse/faultcov-checkpoint/v4"

// Campaign runs a set of coverage cells on a worker pool.
type Campaign struct {
	Cells []CoverageConfig
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// TrialTimeout bounds each trial's supervised execution. A trial that
	// exceeds it aborts the campaign with an error (after checkpointing),
	// keeping results deterministic rather than skewing tallies.
	TrialTimeout time.Duration
	// CheckpointPath, when non-empty, is the JSON file completed chunks are
	// recorded in. An existing compatible checkpoint is resumed; a
	// checkpoint written by a different campaign configuration is rejected.
	CheckpointPath string
	// ChunkSize overrides DefaultChunkSize (the checkpoint granularity).
	ChunkSize int
}

// workerState is one pool worker's reusable per-chunk scratch: the classic
// mode's data buffer, and the epoch mode's fold trackers (one per operator)
// with the counter table they share. Nothing leaks between trials: every
// trial Resets its tracker and zeroes the counters on entry, so a campaign
// allocates one tracker per (worker, operator), not per trial.
type workerState struct {
	buf      []uint64
	trackers map[checksum.Kind]*rt.Tracker
	counters []rt.Counter
}

// tracker returns the worker's fold tracker for an operator, building it on
// first use.
func (ws *workerState) tracker(k checksum.Kind) *rt.Tracker {
	tr := ws.trackers[k]
	if tr == nil {
		if ws.trackers == nil {
			ws.trackers = map[checksum.Kind]*rt.Tracker{}
		}
		tr = rt.NewTrackerWith(k)
		ws.trackers[k] = tr
	}
	return tr
}

// zeroCounters returns the worker's counter table resized to n zeroed
// counters, growing the backing array only when n does.
func (ws *workerState) zeroCounters(n int) []rt.Counter {
	if cap(ws.counters) < n {
		ws.counters = make([]rt.Counter, n)
	}
	ws.counters = ws.counters[:n]
	clear(ws.counters)
	return ws.counters
}

// CampaignResult aggregates the campaign's cells.
type CampaignResult struct {
	Schema string `json:"schema"`
	// Completed is false when the campaign was interrupted; the checkpoint
	// file then holds the finished chunks.
	Completed bool `json:"completed"`
	// ResumedChunks counts chunks restored from the checkpoint file rather
	// than re-run.
	ResumedChunks int `json:"resumed_chunks,omitempty"`
	// Cells are JSON-friendly summaries, one per configured cell.
	Cells []CellReport `json:"cells"`
	// Results are the raw per-cell results, index-aligned with Cells.
	Results []CoverageResult `json:"-"`
}

// CellReport is the flat JSON summary of one cell's outcome.
type CellReport struct {
	Operator             string  `json:"operator"`
	Words                int     `json:"words"`
	BitFlips             int     `json:"bit_flips"`
	Pattern              string  `json:"pattern"`
	Scheme               string  `json:"scheme"`
	Trials               int     `json:"trials"`
	Seed                 int64   `json:"seed"`
	Epochs               int     `json:"epochs,omitempty"`
	EndOnlyVerify        bool    `json:"end_only_verify,omitempty"`
	Recover              bool    `json:"recover,omitempty"`
	Target               string  `json:"target,omitempty"`
	Hardened             bool    `json:"hardened,omitempty"`
	Backend              string  `json:"backend,omitempty"`
	AddrFault            string  `json:"addr_fault,omitempty"`
	Skipped              int     `json:"skipped,omitempty"`
	Undetected           int     `json:"undetected"`
	UndetectedPercent    float64 `json:"undetected_percent"`
	Detected             int     `json:"detected"`
	MeanDetectionLatency float64 `json:"mean_detection_latency_epochs"`
	MaxDetectionLatency  int     `json:"max_detection_latency_epochs"`
	// DetectionLatency is the full per-cell latency distribution (cumulative
	// buckets over epoch bounds plus interpolated quantiles); present for
	// epoch cells with at least one detection.
	DetectionLatency    *LatencyReport `json:"detection_latency,omitempty"`
	Recovered           int            `json:"recovered"`
	RecoverySuccessRate float64        `json:"recovery_success_rate"`
	Tainted             int            `json:"tainted"`
	Retries             int64          `json:"retries"`
	Restarts            int64          `json:"restarts"`
	Rebuilds            int64          `json:"rebuilds,omitempty"`
	DetectorFaults      int64          `json:"detector_faults,omitempty"`
	CheckpointFaults    int64          `json:"checkpoint_faults,omitempty"`
	FalseNegatives      int            `json:"false_negatives,omitempty"`
	FalsePositives      int            `json:"false_positives,omitempty"`
}

// LatencyReport is a detection-latency histogram in report form: cumulative
// bucket counts over telemetry.EpochBuckets (Prometheus-style, with a
// closing +Inf bucket) and interpolated p50/p99/p999.
type LatencyReport struct {
	Buckets   []telemetry.BucketSnapshot `json:"buckets"`
	Quantiles telemetry.QuantileSummary  `json:"quantiles"`
}

// latencyReport renders a per-bucket count slice (EpochBuckets bounds plus
// overflow) as a LatencyReport, or nil when empty.
func latencyReport(hist []int64) *LatencyReport {
	var total uint64
	counts := make([]uint64, len(hist))
	for i, c := range hist {
		counts[i] = uint64(c)
		total += uint64(c)
	}
	if total == 0 {
		return nil
	}
	bounds := telemetry.EpochBuckets()
	rep := &LatencyReport{
		Quantiles: telemetry.QuantileSummary{
			Count: total,
			P50:   telemetry.QuantileFromBuckets(bounds, counts, 0.50),
			P99:   telemetry.QuantileFromBuckets(bounds, counts, 0.99),
			P999:  telemetry.QuantileFromBuckets(bounds, counts, 0.999),
		},
	}
	cum := uint64(0)
	for i := range counts {
		cum += counts[i]
		le := "+Inf"
		if i < len(bounds) {
			le = strconv.FormatFloat(bounds[i], 'g', -1, 64)
		}
		rep.Buckets = append(rep.Buckets, telemetry.BucketSnapshot{LE: le, Count: cum})
	}
	return rep
}

// Report renders the result as its JSON summary row.
func (r CoverageResult) Report() CellReport {
	rep := CellReport{
		Operator:             r.Kind.String(),
		Words:                r.Words,
		BitFlips:             r.BitFlips,
		Pattern:              r.Pattern.String(),
		Scheme:               r.scheme(),
		Trials:               r.Trials,
		Seed:                 r.Seed,
		Epochs:               r.Epochs,
		EndOnlyVerify:        r.EndOnlyVerify,
		Recover:              r.Recover,
		Undetected:           r.Undetected,
		UndetectedPercent:    r.UndetectedPercent(),
		Detected:             r.Detected,
		MeanDetectionLatency: r.MeanDetectionLatency(),
		MaxDetectionLatency:  r.LatencyMax,
		Recovered:            r.Recovered,
		RecoverySuccessRate:  r.RecoveryRate(),
		Tainted:              r.Tainted,
		Retries:              r.Retries,
		Restarts:             r.Restarts,
		Rebuilds:             r.Rebuilds,
		DetectorFaults:       r.DetectorFaults,
		CheckpointFaults:     r.CheckpointFaults,
		FalseNegatives:       r.FalseNegatives,
		FalsePositives:       r.FalsePositives,
	}
	if r.Target != TargetData {
		rep.Target = r.Target.String()
		rep.Hardened = r.Hardened
	}
	if r.Backend != BackendChecksum {
		rep.Backend = r.Backend.String()
	}
	if r.AddrFault != AddrNone {
		rep.AddrFault = r.AddrFault.String()
	}
	rep.Skipped = r.Skipped
	if r.Epochs > 0 {
		rep.DetectionLatency = latencyReport(r.LatencyHist)
	}
	return rep
}

// Gate inspects a finished campaign with a CI gate's eyes: it returns a
// non-nil error if the campaign is incomplete, recorded any undetected
// corruption, any false negative or false positive, any trial that degraded
// (tainted), or — in recovery-enabled cells — any detected corruption that
// was not steered back to a verified correct state. cmd/faultcov's -gate
// flag exits non-zero on this error so CI can block regressions.
func (r *CampaignResult) Gate() error {
	if !r.Completed {
		return fmt.Errorf("faults: gate: campaign incomplete")
	}
	for i, res := range r.Results {
		cell := fmt.Sprintf("cell %d (%s)", i, res.String())
		switch {
		case res.Undetected > 0:
			return fmt.Errorf("faults: gate: %s: %d undetected corruptions", cell, res.Undetected)
		case res.FalseNegatives > 0:
			return fmt.Errorf("faults: gate: %s: %d false negatives", cell, res.FalseNegatives)
		case res.FalsePositives > 0:
			return fmt.Errorf("faults: gate: %s: %d false positives", cell, res.FalsePositives)
		case res.Tainted > 0:
			return fmt.Errorf("faults: gate: %s: %d tainted (degraded) trials", cell, res.Tainted)
		case res.Recover && res.Recovered < res.Detected:
			return fmt.Errorf("faults: gate: %s: %d of %d detected corruptions not recovered",
				cell, res.Detected-res.Recovered, res.Detected)
		}
	}
	return nil
}

// trialSeed derives trial t's deterministic sub-seed from the cell seed with
// a splitmix64 step, so trials are independent of execution order and of one
// another's random streams.
func trialSeed(seed int64, trial int) int64 {
	return int64(splitmix.Mix(uint64(seed) + uint64(trial)*splitmix.Golden))
}

// chunkTally is the checkpointable aggregate of one chunk of trials.
type chunkTally struct {
	Start int `json:"start"`
	Count int `json:"count"`
	Tally
}

type cellCheckpoint struct {
	Cell   int          `json:"cell"`
	Chunks []chunkTally `json:"chunks"`
}

type checkpointFile struct {
	Schema string           `json:"schema"`
	Key    uint64           `json:"key"`
	Cells  []cellCheckpoint `json:"cells"`
}

// fingerprint hashes the semantic campaign configuration so a checkpoint
// written by a different campaign cannot be resumed by accident. The 0
// between Recover and Target fills the slot of the retired per-cell retry
// bound, which no checkpoint ever held non-zero, so keys written before its
// removal still match.
func (c *Campaign) fingerprint(chunkSize int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "chunk=%d;", chunkSize)
	for _, cfg := range c.Cells {
		fmt.Fprintf(h, "%d|%d|%d|%d|%v|%d|%d|%d|%v|%v|0|%d|%v|%d|%d;",
			cfg.Kind, cfg.Words, cfg.BitFlips, cfg.Pattern, cfg.Dual,
			cfg.Trials, cfg.Seed, cfg.Epochs, cfg.EndOnlyVerify, cfg.Recover,
			cfg.Target, cfg.Hardened, cfg.Backend, cfg.AddrFault)
	}
	return h.Sum64()
}

type chunkJob struct{ cell, start, count int }

// Run executes the campaign. On context cancellation it checkpoints the
// finished chunks (when CheckpointPath is set) and returns the context error
// alongside the partial result; re-running the same campaign resumes from
// the checkpoint and produces the same final result as an uninterrupted run.
func (c *Campaign) Run(ctx context.Context) (*CampaignResult, error) {
	if len(c.Cells) == 0 {
		return nil, fmt.Errorf("faults: campaign has no cells")
	}
	for i, cfg := range c.Cells {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	chunkSize := c.ChunkSize
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	key := c.fingerprint(chunkSize)

	// done maps (cell, chunk start) to its finished tally.
	done := map[[2]int]chunkTally{}
	resumed := 0
	if c.CheckpointPath != "" {
		n, err := loadCheckpoint(c.CheckpointPath, key, done)
		if err != nil {
			return nil, err
		}
		resumed = n
	}

	var jobs []chunkJob
	for ci, cfg := range c.Cells {
		for start := 0; start < cfg.Trials; start += chunkSize {
			if _, ok := done[[2]int{ci, start}]; !ok {
				jobs = append(jobs, chunkJob{cell: ci, start: start, count: min(chunkSize, cfg.Trials-start)})
			}
		}
	}

	err := runPool(ctx, c.Workers, jobs,
		func() func(context.Context, chunkJob) (chunkTally, error) {
			ws := &workerState{}
			return func(ctx context.Context, job chunkJob) (chunkTally, error) {
				return c.runChunk(ctx, job, ws)
			}
		},
		func(job chunkJob, t chunkTally) error {
			done[[2]int{job.cell, job.start}] = t
			if c.CheckpointPath == "" {
				return nil
			}
			return c.writeCheckpoint(key, done)
		})

	// runPool returns nil only once every job has run and been collected.
	res := &CampaignResult{Schema: CampaignSchema, Completed: err == nil, ResumedChunks: resumed}
	for ci, cfg := range c.Cells {
		r := CoverageResult{CoverageConfig: cfg}
		for start := 0; start < cfg.Trials; start += chunkSize {
			if t, ok := done[[2]int{ci, start}]; ok {
				r.add(t.Tally)
			}
		}
		res.Results = append(res.Results, r)
		res.Cells = append(res.Cells, r.Report())
	}
	return res, err
}

// runPool runs jobs on a pool of workers goroutines (0 means GOMAXPROCS).
// Each worker calls newWorker once for its job runner. collect receives
// every successful job's result on the caller's goroutine, so it needs no
// lock. The first error — a job's or collect's — cancels the jobs
// not yet run and is returned; job errors after that are consequences of the
// cancellation and are dropped. A cancelled ctx returns ctx.Err().
func runPool[J, R any](ctx context.Context, workers int, jobs []J,
	newWorker func() func(context.Context, J) (R, error),
	collect func(J, R) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		job J
		out R
		err error
	}
	jobCh := make(chan J)
	resCh := make(chan result)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := newWorker()
			for job := range jobCh {
				out, err := run(runCtx, job)
				resCh <- result{job, out, err}
			}
		}()
	}
	go func() {
		defer close(jobCh)
		for _, j := range jobs {
			select {
			case jobCh <- j:
			case <-runCtx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(resCh)
	}()

	var firstErr error
	for r := range resCh {
		err := r.err
		if err == nil {
			err = collect(r.job, r.out)
		} else if runCtx.Err() != nil {
			continue
		}
		if err != nil && firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// runChunk executes one chunk's trials sequentially on a worker. Cell
// instruments are resolved once per chunk — the registry lookup takes a
// mutex and renders labels, which a per-trial call would pay thousands of
// times over — and epoch trials fold through the worker's reusable tracker.
func (c *Campaign) runChunk(ctx context.Context, job chunkJob, ws *workerState) (chunkTally, error) {
	cfg := c.Cells[job.cell]
	tally := chunkTally{Start: job.start, Count: job.count}
	inst := newCellInstruments(cfg)
	// One chunk span roots the trace for this work unit; per-trial spans are
	// its children, labeled by the cell so a Perfetto view groups campaign
	// work by (cell, chunk) lanes. Attributes are built once per chunk, and
	// only when tracing: an untraced trial allocates none.
	tracing := cfg.Tracer.Enabled()
	var cellAttrs []telemetry.Attr
	var chunk telemetry.Span
	if tracing {
		cellAttrs = []telemetry.Attr{
			telemetry.Int("cell", job.cell),
			telemetry.String("scheme", cfg.scheme()),
			telemetry.Int("words", cfg.Words),
			telemetry.Int("flips", cfg.BitFlips),
		}
		if cfg.Target != TargetData {
			cellAttrs = append(cellAttrs, telemetry.String("target", cfg.Target.String()))
		}
		chunk = cfg.Tracer.Start(telemetry.SpanContext{}, "chunk",
			append([]telemetry.Attr{telemetry.Int("start", job.start), telemetry.Int("count", job.count)}, cellAttrs...)...)
		defer chunk.End()
	}
	// Epoch trials fold through the worker's reusable tracker; classic
	// trials reuse its buffer.
	var runTrial func(trial int, span telemetry.SpanContext) (Tally, error)
	if cfg.Epochs > 0 {
		runTrial = func(trial int, span telemetry.SpanContext) (Tally, error) {
			tctx, cancel := ctx, context.CancelFunc(func() {})
			if c.TrialTimeout > 0 {
				tctx, cancel = context.WithTimeout(ctx, c.TrialTimeout)
			}
			defer cancel()
			out, err := runEpochTrial(tctx, cfg, trial, ws, inst, span)
			if err != nil {
				err = fmt.Errorf("faults: epoch trial %d: %w", trial, err)
			}
			return out, err
		}
	} else {
		if len(ws.buf) < cfg.Words {
			ws.buf = make([]uint64, cfg.Words)
		}
		r := &classicRunner{cfg: cfg, data: ws.buf[:cfg.Words], inst: inst}
		runTrial = func(trial int, span telemetry.SpanContext) (Tally, error) { return r.trial(trial, span), nil }
	}
	for i := 0; i < job.count; i++ {
		if err := ctx.Err(); err != nil {
			return tally, err
		}
		trial := job.start + i
		var tspan telemetry.Span
		if tracing {
			tspan = cfg.Tracer.Start(chunk.Context(), "trial",
				append([]telemetry.Attr{telemetry.Int("trial", trial)}, cellAttrs...)...)
		}
		out, err := runTrial(trial, tspan.Context())
		if err != nil {
			tspan.EndErr(err)
			return tally, err
		}
		if tracing {
			tspan.End(telemetry.Bool("detected", out.Detected > 0), telemetry.Bool("recovered", out.Recovered > 0))
		}
		tally.add(out)
	}
	return tally, nil
}

// classicRunner executes the paper's single-shot Table 1 trials against a
// worker-local buffer.
type classicRunner struct {
	cfg          CoverageConfig
	data         []uint64
	inst         cellInstruments
	baseReady    bool
	base1, base2 uint64
}

// trial runs one classic trial, marking its fault.injected under span (the
// campaign's trial span, whose detected attribute carries the outcome).
func (r *classicRunner) trial(trial int, span telemetry.SpanContext) Tally {
	cfg := r.cfg
	in := NewInjector(trialSeed(cfg.Seed, trial))
	if cfg.Pattern == Random {
		in.Fill(r.data, Random)
		r.base1, r.base2 = initialSums(cfg, r.data)
	} else if !r.baseReady {
		// Constant patterns carry identical data in every trial: fill and
		// compute the base sums once per chunk (flips are undone below).
		in.Fill(r.data, cfg.Pattern)
		r.base1, r.base2 = initialSums(cfg, r.data)
		r.baseReady = true
	}
	flips := in.FlipBits(r.data, cfg.BitFlips)
	var s1, s2 uint64
	if cfg.Dual {
		s1, s2 = checksum.DualSum(cfg.Kind, r.data)
	} else {
		s1 = checksum.Sum(cfg.Kind, r.data)
	}
	undetected := s1 == r.base1 && (!cfg.Dual || s2 == r.base2)
	r.inst.record(undetected)
	if cfg.Tracer.Enabled() {
		cfg.Tracer.Mark(span, telemetry.EvFaultInjected,
			telemetry.Attr{Key: "flips", Value: flipCoords(flips)},
			telemetry.String("pattern", cfg.Pattern.String()))
	}
	// Undo the flips so constant-pattern trials can reuse the base sums.
	for _, f := range flips {
		r.data[f.Word] ^= 1 << uint(f.Bit)
	}
	t := Tally{Undetected: one(undetected)}
	if !undetected {
		t.detect(0)
	}
	return t
}

// cellLabels renders the metric labels identifying one cell.
func cellLabels(cfg CoverageConfig) []telemetry.Label {
	labels := []telemetry.Label{
		{Key: "flips", Value: strconv.Itoa(cfg.BitFlips)},
		{Key: "words", Value: strconv.Itoa(cfg.Words)},
		{Key: "pattern", Value: cfg.Pattern.String()},
		{Key: "scheme", Value: cfg.scheme()},
	}
	if cfg.Epochs > 0 {
		labels = append(labels, telemetry.Label{Key: "epochs", Value: strconv.Itoa(cfg.Epochs)})
	}
	if cfg.Target != TargetData {
		detector := "unhardened"
		if cfg.Hardened {
			detector = "hardened"
		}
		labels = append(labels,
			telemetry.Label{Key: "target", Value: cfg.Target.String()},
			telemetry.Label{Key: "detector", Value: detector})
	}
	if cfg.Backend != BackendChecksum {
		labels = append(labels, telemetry.Label{Key: "backend", Value: cfg.Backend.String()})
	}
	if cfg.AddrFault != AddrNone {
		labels = append(labels, telemetry.Label{Key: "fault", Value: cfg.AddrFault.String()})
	}
	return labels
}

// cellInstruments caches one cell's telemetry instruments so the hot trial
// loop increments atomics instead of going through the registry's mutexed,
// label-rendering lookup on every trial. Instruments from a nil registry are
// unregistered but functional, so the disabled path needs no guards.
type cellInstruments struct {
	trials     *telemetry.Counter
	undetected *telemetry.Counter
	recovered  *telemetry.Counter
	latency    *telemetry.Histogram
	scrubPass  *telemetry.Counter
	scrubFail  *telemetry.Counter
}

// newCellInstruments resolves the instruments for one cell.
func newCellInstruments(cfg CoverageConfig) cellInstruments {
	labels := cellLabels(cfg)
	return cellInstruments{
		trials:     cfg.Metrics.Counter("defuse_faultcov_trials_total", labels...),
		undetected: cfg.Metrics.Counter("defuse_faultcov_undetected_total", labels...),
		recovered:  cfg.Metrics.Counter("defuse_recovery_recovered_total", labels...),
		latency: cfg.Metrics.Histogram("defuse_detection_latency_epochs",
			telemetry.EpochBuckets(), labels...),
		scrubPass: cfg.Metrics.Counter("defuse_scrub_total",
			telemetry.Label{Key: "result", Value: "pass"}),
		scrubFail: cfg.Metrics.Counter("defuse_scrub_total",
			telemetry.Label{Key: "result", Value: "fail"}),
	}
}

// detachedInstruments serve the trials that belong to no campaign cell —
// the service's verify jobs and the crash child — so no count of theirs
// reaches a registry.
var detachedInstruments = newCellInstruments(CoverageConfig{})

// record tallies one trial's verdict.
func (i cellInstruments) record(undetected bool) {
	i.trials.Inc()
	if undetected {
		i.undetected.Inc()
	}
}

// loadCheckpoint merges a checkpoint file into done, returning the number of
// chunks restored. A missing file is not an error; a key mismatch is.
func loadCheckpoint(path string, key uint64, done map[[2]int]chunkTally) (int, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var cp checkpointFile
	if err := json.Unmarshal(raw, &cp); err != nil {
		return 0, fmt.Errorf("faults: corrupt checkpoint %s: %w", path, err)
	}
	if cp.Schema != checkpointSchema {
		return 0, fmt.Errorf("faults: checkpoint %s has schema %q, want %q", path, cp.Schema, checkpointSchema)
	}
	if cp.Key != key {
		return 0, fmt.Errorf("faults: checkpoint %s belongs to a different campaign configuration", path)
	}
	n := 0
	for _, cell := range cp.Cells {
		for _, ch := range cell.Chunks {
			done[[2]int{cell.Cell, ch.Start}] = ch
			n++
		}
	}
	return n, nil
}

// writeCheckpoint atomically persists the finished chunks.
func (c *Campaign) writeCheckpoint(key uint64, done map[[2]int]chunkTally) error {
	cp := checkpointFile{Schema: checkpointSchema, Key: key}
	byCell := map[int][]chunkTally{}
	for k, t := range done {
		byCell[k[0]] = append(byCell[k[0]], t)
	}
	cells := make([]int, 0, len(byCell))
	for ci := range byCell {
		cells = append(cells, ci)
	}
	sort.Ints(cells)
	for _, ci := range cells {
		chunks := byCell[ci]
		sort.Slice(chunks, func(i, j int) bool { return chunks[i].Start < chunks[j].Start })
		cp.Cells = append(cp.Cells, cellCheckpoint{Cell: ci, Chunks: chunks})
	}
	raw, err := json.MarshalIndent(cp, "", " ")
	if err != nil {
		return err
	}
	// Temp-write + fsync + rename + dir fsync: a campaign killed mid-write
	// leaves either the previous checkpoint or the complete new one, never a
	// truncated JSON that a resume would reject as corrupt.
	return wal.WriteFileAtomic(c.CheckpointPath, raw, 0o644)
}
