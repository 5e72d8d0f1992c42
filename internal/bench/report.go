package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"defuse/telemetry"
)

// This file defines the machine-readable overhead record written by
// cmd/overhead -json (BENCH_overhead.json): the repo's perf-trajectory
// format, so Figure 10/11 overhead claims can be regression-tracked across
// PRs instead of living only in terminal scrollback.

// OverheadSchema identifies the BENCH_overhead.json format version. v2 added
// the optional quantiles block (epoch-verify latency and detection latency
// distributions); v3 added the optional service block (sustained-load latency
// and fault-recovery results from the resident defused service); v4 added the
// optional native block (wall-clock overheads of the compiled codegen
// backend); v5 adds the optional soak block (chaos-soak survival results from
// defused -soak) and the service row's retry tallies. Only v5 is read.
const OverheadSchema = "defuse/overhead/v5"

// OverheadRow is one benchmark's cost-model result across the three
// variants: the interpreter's op-count ratios (Figure 10) and the
// hardware-unit estimate (Figure 11), all deterministic. Wall clock lives in
// the native block.
type OverheadRow struct {
	Bench        string  `json:"bench"`
	ResilientOps float64 `json:"resilient_ops"`
	OptimizedOps float64 `json:"optimized_ops"`
	HWEstimate   float64 `json:"hw_estimate"`
}

// OverheadGeomean summarizes the suite the way the paper does.
type OverheadGeomean struct {
	ResilientOps float64 `json:"resilient_ops"`
	OptimizedOps float64 `json:"optimized_ops"`
	HWEstimate   float64 `json:"hw_estimate"`
}

// OverheadQuantiles carries the latency distributions behind the headline
// geomeans: how long a boundary verification takes in wall-clock terms, and
// how many epochs a detection lags its injection, both summarized as
// histogram-derived p50/p99/p999. New in defuse/overhead/v2.
type OverheadQuantiles struct {
	EpochVerifySeconds     *telemetry.QuantileSummary `json:"epoch_verify_seconds,omitempty"`
	DetectionLatencyEpochs *telemetry.QuantileSummary `json:"detection_latency_epochs,omitempty"`
}

// ServiceRow is the sustained-load result block from a defused loadgen run:
// request latency quantiles and verified throughput measured while a sampled
// fraction of live requests had faults injected. The counts are the
// robustness gate's evidence — Injected == Detected == Recovered and
// CleanMismatches == 0 is what "detects and recovers without disturbing
// clean traffic" means, measured. New in defuse/overhead/v3.
type ServiceRow struct {
	// Streams is the number of concurrent request streams the loadgen drove.
	Streams int `json:"streams"`
	// Requests is the number of requests that completed successfully
	// (excluding shed and errored requests).
	Requests int `json:"requests"`
	// FaultRate is the configured sampled-injection fraction, and
	// FaultAddrFraction the fraction of hits injected as address faults
	// (wrong-location loads) rather than bit flips.
	FaultRate         float64 `json:"fault_rate"`
	FaultAddrFraction float64 `json:"fault_addr_fraction,omitempty"`
	// Injected / Detected / Recovered count the sampled requests that
	// received an injection, those whose fault was detected, and those that
	// additionally recovered to the correct result. InjectedAddr is the
	// subset of Injected that received an address fault.
	Injected     int `json:"injected"`
	InjectedAddr int `json:"injected_addr,omitempty"`
	Detected     int `json:"detected"`
	Recovered    int `json:"recovered"`
	// Clean counts un-injected requests; CleanMismatches counts those whose
	// result deviated from the locally computed reference (must be zero).
	Clean           int `json:"clean"`
	CleanMismatches int `json:"clean_mismatches"`
	// Shed counts requests refused by admission control (429), Rejected
	// counts requests refused because the server was draining or degraded
	// (503), and Errors counts other failures. Both are final outcomes: a
	// request that was refused, retried, and eventually served counts only
	// under Requests.
	Shed     int `json:"shed"`
	Rejected int `json:"rejected"`
	Errors   int `json:"errors"`
	// Retries counts individual 429/503 refusals that were retried (each
	// refused attempt is one retry), and RetriedOK counts requests that
	// succeeded only after at least one retry. Tallied separately from
	// Shed/Rejected so the robustness gate's arithmetic stays meaningful
	// under deliberate overload. New in v5.
	Retries   int `json:"retries,omitempty"`
	RetriedOK int `json:"retried_ok,omitempty"`
	// Latency quantiles over successful requests, in seconds.
	P50Seconds  float64 `json:"p50_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	P999Seconds float64 `json:"p999_seconds"`
	// ThroughputRPS is successful requests per wall-clock second.
	ThroughputRPS   float64 `json:"throughput_rps"`
	DurationSeconds float64 `json:"duration_seconds"`
}

// SoakRow is the chaos-soak survival block from a defused -soak run: a real
// defused child process driven under a seeded disturbance schedule (SIGKILL,
// SIGSTOP/SIGCONT, torn WAL tails, disk bit flips, injected append faults,
// adversarial clients, overload bursts) while an audit thread independently
// recomputes the schedule and re-verifies the journal across restarts. The
// zero-tolerance columns (SilentCorruptions, UndetectedFaults,
// ResumeMismatches, AuditFailures) are the soak gate's evidence. New in
// defuse/overhead/v5.
type SoakRow struct {
	// Seed and DurationSeconds identify the schedule: the same seed and
	// duration reproduce the same disturbance sequence.
	Seed            uint64  `json:"seed"`
	DurationSeconds float64 `json:"duration_seconds"`
	// Disturbance tallies: process kills (SIGKILL), pauses
	// (SIGSTOP/SIGCONT), torn WAL tails and disk bit flips applied between
	// restarts, injected append-path I/O faults, and overload bursts.
	Kills       int `json:"kills"`
	Pauses      int `json:"pauses"`
	TornWrites  int `json:"torn_writes"`
	BitFlips    int `json:"bit_flips"`
	WriteFaults int `json:"write_faults"`
	Bursts      int `json:"bursts"`
	Restarts    int `json:"restarts"`
	DegradedN   int `json:"degraded_entered"`
	// Request-level tallies across the whole soak, audited client-side.
	Requests  int `json:"requests"`
	Injected  int `json:"injected"`
	Detected  int `json:"detected"`
	Recovered int `json:"recovered"`
	Shed      int `json:"shed"`
	Rejected  int `json:"rejected"`
	Retries   int `json:"retries"`
	// Journal accounting at the end of the soak: records surviving live,
	// records folded into compaction summaries, sealed segment count, and
	// the final on-disk footprint (bounded by rotation).
	JournalLive      int   `json:"journal_live"`
	JournalCompacted int   `json:"journal_compacted"`
	JournalSegments  int   `json:"journal_segments"`
	JournalDiskBytes int64 `json:"journal_disk_bytes"`
	// Zero-tolerance columns. SilentCorruptions counts responses or journal
	// records accepted with a wrong digest; UndetectedFaults counts injected
	// faults (live or I/O) the system failed to surface; ResumeMismatches
	// counts restarts where the surviving WAL bytes differed from the
	// pre-crash capture; AuditFailures counts every other audit violation.
	SilentCorruptions int `json:"silent_corruptions"`
	UndetectedFaults  int `json:"undetected_faults"`
	ResumeMismatches  int `json:"resume_mismatches"`
	AuditFailures     int `json:"audit_failures"`
}

// BackendRow is one detection backend's summary from the faultcov backend
// comparison (cmd/faultcov -backend all -bench-out): per-trial cost, mean
// detection latency, and the valid-word-aliasing cell's outcome — the fault
// shape that separates the backends, since data checksums provably cannot
// see it while the address-stream and dual-execution backends must. Optional
// block under the v3 schema.
type BackendRow struct {
	Backend string `json:"backend"`
	// NsPerTrial is the measured wall time per injection trial — the
	// comparison's overhead column.
	NsPerTrial float64 `json:"ns_per_trial"`
	// MeanDetectionLatency averages epochs-to-detection over detected trials.
	MeanDetectionLatency float64 `json:"mean_detection_latency_epochs"`
	// AliasEscapes and AliasDetected are the addr-alias cell's tallies:
	// escapes > 0 with zero detections for the checksum backend (structural
	// blindness), zero escapes for addrsum and dme.
	AliasEscapes  int `json:"alias_escapes"`
	AliasDetected int `json:"alias_detected"`
	// AllExpected is true when every comparison cell met its expectation.
	AllExpected bool `json:"all_expected"`
}

// NativeRow is one benchmark's wall-clock measurement on the compiled
// native backend (cmd/overhead -backend native): the committed generated
// kernels in internal/codegen/gennative, built by the Go compiler and run
// against codegen.Machine. Unlike OverheadRow there are no op-count columns —
// native code has no interpreter to count ops; wall clock on compiled code is
// the measurement, the closest analogue of the paper's icc numbers. Optional
// block, new in defuse/overhead/v4.
type NativeRow struct {
	Bench string `json:"bench"`
	// OriginalSeconds is the median per-run wall time of the uninstrumented
	// kernel. ResilientTime and OptimizedTime are the medians, over reps, of
	// a variant's time over the Original's time in the same rep (the three
	// variants run interleaved rep by rep, Original = 1.0).
	OriginalSeconds float64 `json:"original_seconds"`
	ResilientTime   float64 `json:"resilient_time"`
	OptimizedTime   float64 `json:"optimized_time"`
	// The quartiles of those per-rep ratios: optional additions to v5, absent
	// from rows measured before the reps were interleaved.
	ResilientQ1 float64 `json:"resilient_q1,omitempty"`
	ResilientQ3 float64 `json:"resilient_q3,omitempty"`
	OptimizedQ1 float64 `json:"optimized_q1,omitempty"`
	OptimizedQ3 float64 `json:"optimized_q3,omitempty"`
	// Reps is how many timed repetitions each variant ran (fresh machine and
	// data per rep; only the kernel call is timed).
	Reps int `json:"reps"`
}

// NativeGeoMeans summarizes native rows the way GeoMeans summarizes the
// interpreter's Figure 10 rows.
func NativeGeoMeans(rows []NativeRow) (resilient, optimized float64) {
	if len(rows) == 0 {
		return 0, 0
	}
	rs, os := 0.0, 0.0
	for _, r := range rows {
		rs += math.Log(r.ResilientTime)
		os += math.Log(r.OptimizedTime)
	}
	n := float64(len(rows))
	return math.Exp(rs / n), math.Exp(os / n)
}

// FormatNative renders native rows as the compiled-code analogue of the
// Figure 10 table.
func FormatNative(rows []NativeRow) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-10s %14s %20s %20s %8s\n",
		"Benchmark", "Orig(s/run)", "Resil(wall) [q1,q3]", "Opt(wall) [q1,q3]", "Reps")
	spread := func(med, q1, q3 float64) string {
		if q1 == 0 && q3 == 0 {
			return fmt.Sprintf("%.3f", med)
		}
		return fmt.Sprintf("%.3f [%.2f,%.2f]", med, q1, q3)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %14.6f %20s %20s %8d\n", r.Bench, r.OriginalSeconds,
			spread(r.ResilientTime, r.ResilientQ1, r.ResilientQ3),
			spread(r.OptimizedTime, r.OptimizedQ1, r.OptimizedQ3), r.Reps)
	}
	rg, og := NativeGeoMeans(rows)
	fmt.Fprintf(&b, "%-10s %14s %20.3f %20.3f %8s\n", "geomean", "", rg, og, "")
	return b.String()
}

// OverheadReport is the full BENCH_overhead.json document.
type OverheadReport struct {
	Schema      string          `json:"schema"`
	GeneratedAt time.Time       `json:"generated_at"`
	Scale       float64         `json:"scale"`
	Rows        []OverheadRow   `json:"rows"`
	Geomean     OverheadGeomean `json:"geomean"`
	// Quantiles is present when the run recorded the relevant histograms
	// (cmd/overhead -json runs a small supervised fault probe to fill it).
	Quantiles *OverheadQuantiles `json:"quantiles,omitempty"`
	// Service is the resident-service load result (defused -loadgen
	// -json-out merges it into the committed report).
	Service *ServiceRow `json:"service,omitempty"`
	// Backends holds the detection-backend comparison rows (cmd/faultcov
	// -backend ... -bench-out merges them).
	Backends []BackendRow `json:"backends,omitempty"`
	// Native holds the compiled-backend wall-clock rows (cmd/overhead
	// -backend native -json merges them). The interpreter run remains the
	// document's owner; the native backend only annotates it.
	Native []NativeRow `json:"native,omitempty"`
	// Soak is the chaos-soak survival result (defused -soak -json-out merges
	// it).
	Soak *SoakRow `json:"soak,omitempty"`
	// Durable holds the WAL-seal overhead rows (cmd/overhead -wal DIR -json
	// merges them). An optional addition to v5.
	Durable []DurableRow `json:"durable,omitempty"`
}

// AttachQuantiles pulls the epoch-verify and detection-latency families out
// of a metrics snapshot and records their quantile summaries on the report.
// Families that recorded no observations are left out rather than reported
// as zeros.
func (r *OverheadReport) AttachQuantiles(snap telemetry.Snapshot) {
	q := &OverheadQuantiles{}
	if s, ok := snap.FamilyQuantiles("defuse_epoch_verify_seconds"); ok {
		q.EpochVerifySeconds = &s
	}
	if s, ok := snap.FamilyQuantiles("defuse_detection_latency_epochs"); ok {
		q.DetectionLatencyEpochs = &s
	}
	if q.EpochVerifySeconds != nil || q.DetectionLatencyEpochs != nil {
		r.Quantiles = q
	}
}

// BuildOverheadReport merges Figure 10 and Figure 11 rows into one report.
// The row slices must be parallel (as Figure10With returns them).
func BuildOverheadReport(rows10 []Figure10Row, rows11 []Figure11Row, scale float64) (OverheadReport, error) {
	if len(rows10) != len(rows11) {
		return OverheadReport{}, fmt.Errorf("bench: %d figure-10 rows vs %d figure-11 rows", len(rows10), len(rows11))
	}
	rep := OverheadReport{
		Schema:      OverheadSchema,
		GeneratedAt: time.Now().UTC(),
		Scale:       scale,
	}
	hwSum, hwN := 0.0, 0
	for i, r := range rows10 {
		if rows11[i].Bench != r.Bench {
			return OverheadReport{}, fmt.Errorf("bench: row %d mismatch: %s vs %s", i, r.Bench, rows11[i].Bench)
		}
		rep.Rows = append(rep.Rows, OverheadRow{
			Bench:        r.Bench,
			ResilientOps: r.ResilientOps,
			OptimizedOps: r.OptimizedOps,
			HWEstimate:   rows11[i].HWEstimate,
		})
		hwSum += math.Log(rows11[i].HWEstimate)
		hwN++
	}
	rg, og := GeoMeans(rows10)
	rep.Geomean = OverheadGeomean{ResilientOps: rg, OptimizedOps: og}
	if hwN > 0 {
		rep.Geomean.HWEstimate = math.Exp(hwSum / float64(hwN))
	}
	return rep, nil
}

// WriteJSON writes the report as indented JSON.
func (r OverheadReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ParseOverheadReport reads a report back, validating its schema tag — the
// consumer side of the perf trajectory.
func ParseOverheadReport(r io.Reader) (OverheadReport, error) {
	var rep OverheadReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return rep, fmt.Errorf("bench: parsing overhead report: %w", err)
	}
	if rep.Schema != OverheadSchema {
		return rep, fmt.Errorf("bench: unexpected schema %q (want %q)", rep.Schema, OverheadSchema)
	}
	if len(rep.Rows) == 0 {
		return rep, fmt.Errorf("bench: overhead report has no rows")
	}
	return rep, nil
}

// MergeReport installs one block into an existing report file: the document
// at path is parsed, install replaces its block (for example
// func(r *OverheadReport) { r.Service = &row }), and the file is rewritten
// via writeFile (pass wal.WriteFileAtomic or os.WriteFile). Every other
// block survives, so the committed BENCH_overhead.json accumulates the
// service, backend, native, soak and durable rows without re-running the
// whole overhead suite. A missing file is an error wrapping fs.ErrNotExist.
func MergeReport(path string, install func(*OverheadReport), writeFile func(string, []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("bench: merging into report: %w", err)
	}
	rep, err := ParseOverheadReport(f)
	f.Close()
	if err != nil {
		return err
	}
	install(&rep)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return err
	}
	return writeFile(path, buf.Bytes())
}
