package faults

import (
	"context"
	"fmt"
	"sort"

	"defuse/internal/checksum"
	"defuse/telemetry"
)

// This file implements the Table 1 fault-coverage experiment of the paper:
// initialize an array of 64-bit integers, compute its checksum(s), inject a
// k-bit error, recompute, and count the trials in which the checksums still
// match (the error escaped detection).
//
// With Epochs > 0 the experiment additionally measures what the paper's
// program-end verification cannot: detection latency (epochs between
// injection and detection) and — with Recover — the success rate of
// checkpoint/rollback recovery (see trial.go).

// Target selects what an epoch trial's injected fault strikes. The paper's
// experiment (TargetData) corrupts the protected array; the detector-targeted
// variants aim the same transient-fault model at the detection machinery
// itself — accumulators, shadow use counters, parked checkpoints, or a
// compensating accumulator flip that masks a real data fault — to measure the
// false-negative/false-positive rates the hardened detector removes.
type Target int

const (
	// TargetData flips bits in the protected array (the paper's experiment).
	TargetData Target = iota
	// TargetAccumulator flips one bit of the primary copy of a randomly
	// chosen checksum accumulator. Unhardened, the next verification reports
	// a phantom data fault (false positive) and triggers a needless rollback.
	TargetAccumulator
	// TargetCounter flips one bit of a shadow use counter's primary state
	// (count or defined flag).
	TargetCounter
	// TargetCheckpoint flips a data bit to force a rollback AND flips one bit
	// of the parked epoch checkpoint it will restore from, modeling a fault
	// striking recovery state while it waits to be needed.
	TargetCheckpoint
	// TargetMasking flips one data bit, then — when the accumulator values
	// permit — applies the compensating single-bit flips to the use and e_use
	// accumulators that make verification pass despite the wrong data: the
	// adversarial false-negative scenario.
	TargetMasking
)

var targetNames = map[Target]string{
	TargetData:        "data",
	TargetAccumulator: "accumulator",
	TargetCounter:     "counter",
	TargetCheckpoint:  "checkpoint",
	TargetMasking:     "masking",
}

// String returns the lower-case name of the target.
func (t Target) String() string { return enumName(targetNames, t, "Target") }

// ParseTarget resolves a target name as used by cmd/faultcov -target.
func ParseTarget(s string) (Target, error) { return parseEnum(targetNames, s, "target") }

// Backend selects which detector an epoch trial arms. The backends are
// deliberately run in isolation — each trial's verdict comes from exactly
// one detector — so the comparison campaign (compare.go) can attribute
// every escape and every detection to a specific mechanism.
type Backend int

const (
	// BackendChecksum is the paper's data def/use checksum detector.
	BackendChecksum Backend = iota
	// BackendAddrsum is the PRESAGE-style address-stream detector
	// (internal/addrsum): it checksums where accesses went, not what they
	// carried, so it catches wrong-location accesses that observe valid
	// data and misses pure data corruption.
	BackendAddrsum
	// BackendDME is divergent dual execution (internal/dme): two
	// structurally decorrelated variants of the workload cross-checked at
	// every epoch boundary.
	BackendDME
)

var backendNames = map[Backend]string{
	BackendChecksum: "checksum",
	BackendAddrsum:  "addrsum",
	BackendDME:      "dme",
}

// String returns the lower-case name of the backend.
func (b Backend) String() string { return enumName(backendNames, b, "Backend") }

// ParseBackend resolves a backend name as used by cmd/faultcov -backend.
func ParseBackend(s string) (Backend, error) { return parseEnum(backendNames, s, "backend") }

// AddrFault selects the address-generation fault shape an epoch trial
// injects instead of data bit flips. All three corrupt the index of one
// iteration's accesses inside the injection epoch.
type AddrFault int

const (
	// AddrNone injects no address fault (the data/detector targets apply).
	AddrNone AddrFault = iota
	// AddrWrong redirects one iteration's load to a uniformly chosen other
	// word — the classic wrong-address load. The stale intended word is
	// still finalized from memory, so data checksums catch this whp.
	AddrWrong
	// AddrIndexBit flips one bit of one iteration's load index (the
	// redirect stays in range) — the single-event-upset form of AddrWrong.
	AddrIndexBit
	// AddrAlias redirects one iteration's entire read-modify-write — load
	// AND store — to the same wrong word, modeling an index register
	// corrupted once and used for both accesses. Every value the detector
	// observes is a valid tracked word and the fold balances exactly at
	// every boundary, so data checksums are *structurally* blind to it
	// (100% escape, any operator, any data pattern; see DESIGN.md), while
	// the final state is wrong: the intended word is stale and the aliased
	// word was advanced twice.
	AddrAlias
)

var addrFaultNames = map[AddrFault]string{
	AddrNone:     "none",
	AddrWrong:    "addr-wrong",
	AddrIndexBit: "addr-bit",
	AddrAlias:    "addr-alias",
}

// String returns the lower-case name of the address-fault shape.
func (a AddrFault) String() string { return enumName(addrFaultNames, a, "AddrFault") }

// CoverageConfig describes one cell of Table 1, optionally extended with
// epoch-scoped verification and recovery.
type CoverageConfig struct {
	Kind     checksum.Kind // checksum operator (the paper uses ModAdd)
	Words    int           // array size in 64-bit words (10^2, 10^4, 10^6)
	BitFlips int           // number of bits flipped per trial (2..6)
	Pattern  Pattern       // data initialization
	Dual     bool          // use the two-checksum (rotated) scheme
	Trials   int           // number of injection trials (paper: 100,000)
	Seed     int64         // RNG seed; each trial derives its own sub-seed

	// Epochs, when positive, switches the trial to an epoch-structured run:
	// the data is a live working set advanced once per epoch under the
	// def/use tracker discipline, the fault is injected inside a random
	// epoch, and verification runs at every epoch boundary.
	Epochs int
	// EndOnlyVerify restricts verification to the final epoch boundary
	// (the paper's program-end placement), for measuring the latency the
	// epoch scheme removes.
	EndOnlyVerify bool
	// Recover enables the checkpoint/rollback supervisor: a detected epoch
	// is rolled back and re-executed with bounded retries before escalating
	// to restart and finally degradation.
	Recover bool
	// Target aims the injected fault (epoch mode only): at the protected
	// data (default) or at the detector itself. See the Target constants.
	Target Target
	// Hardened enables the detector's self-checks in epoch trials: a
	// ScrubDetector pass at every verifying boundary and integrity-digest
	// verification of every checkpoint restore. Unhardened trials use the
	// unchecked restore paths and never scrub, measuring what the paper's
	// register-residency assumption silently costs when the accumulators are
	// ordinary memory.
	Hardened bool
	// Backend selects the armed detector for epoch trials (default: the
	// paper's data checksums). Non-checksum backends run the identical
	// workload and injection schedule, so per-backend escape counts are
	// directly comparable cell by cell.
	Backend Backend
	// AddrFault, when not AddrNone, replaces the data bit flips with an
	// address-generation fault on one iteration of the injection epoch.
	// Epoch mode only, data target only. Cells over 1-word regions tally
	// the trial as skipped (there is no wrong location) instead of
	// crashing.
	AddrFault AddrFault

	// Metrics, when non-nil, receives per-cell trial and undetected
	// counters labeled by flips/words/pattern/scheme, and in epoch mode a
	// detection-latency histogram and recovery counters.
	Metrics *telemetry.Registry `json:"-"`
	// Tracer, when non-nil, records one span per trial (labeled by the
	// cell's scheme/words/flips/target, ending with its detected/recovered
	// outcome) with a fault.injected point span carrying the flipped
	// coordinates and, in epoch mode, the supervisor's epoch, verification
	// and recovery spans and hardened scrub marks as children. A nil tracer
	// is free.
	Tracer *telemetry.Tracer `json:"-"`
}

// Validate reports configuration errors a run would otherwise surface as
// divisions by zero or panics deep in a campaign.
func (cfg CoverageConfig) Validate() error {
	if cfg.Trials <= 0 {
		return fmt.Errorf("faults: Trials must be positive, got %d", cfg.Trials)
	}
	if cfg.Words <= 0 {
		return fmt.Errorf("faults: Words must be positive, got %d", cfg.Words)
	}
	if cfg.BitFlips <= 0 {
		return fmt.Errorf("faults: BitFlips must be positive, got %d", cfg.BitFlips)
	}
	if cfg.BitFlips > 64*cfg.Words {
		return fmt.Errorf("faults: cannot flip %d bits in %d words", cfg.BitFlips, cfg.Words)
	}
	if cfg.Epochs < 0 {
		return fmt.Errorf("faults: Epochs must be non-negative, got %d", cfg.Epochs)
	}
	if cfg.Epochs == 0 && (cfg.EndOnlyVerify || cfg.Recover) {
		return fmt.Errorf("faults: EndOnlyVerify/Recover require Epochs > 0")
	}
	if cfg.Epochs > 0 && cfg.Dual {
		return fmt.Errorf("faults: the dual rotated-checksum scheme applies to the array-sum experiment, not epoch mode")
	}
	if cfg.Epochs == 0 && cfg.Target != TargetData {
		return fmt.Errorf("faults: target %v requires Epochs > 0 (detector-targeted injection is an epoch-trial experiment)", cfg.Target)
	}
	if cfg.Epochs == 0 && cfg.Hardened {
		return fmt.Errorf("faults: Hardened requires Epochs > 0")
	}
	if cfg.Target == TargetCheckpoint && !cfg.Recover {
		return fmt.Errorf("faults: target checkpoint requires Recover (an unused checkpoint can never be observed corrupt)")
	}
	if cfg.Target == TargetMasking {
		if cfg.BitFlips != 1 {
			return fmt.Errorf("faults: target masking requires BitFlips == 1 (the compensating flip is single-bit), got %d", cfg.BitFlips)
		}
		if cfg.Kind != checksum.ModAdd && cfg.Kind != checksum.XOR {
			return fmt.Errorf("faults: target masking supports modadd and xor, not %v", cfg.Kind)
		}
	}
	if cfg.Backend != BackendChecksum {
		if cfg.Epochs == 0 {
			return fmt.Errorf("faults: backend %v requires Epochs > 0 (it is an epoch-boundary detector)", cfg.Backend)
		}
		if cfg.Target != TargetData {
			return fmt.Errorf("faults: backend %v supports the data target only (detector-targeted strikes aim at the checksum machinery)", cfg.Backend)
		}
	}
	if cfg.AddrFault != AddrNone {
		if cfg.Epochs == 0 {
			return fmt.Errorf("faults: address fault %v requires Epochs > 0 (the fault strikes a live access stream)", cfg.AddrFault)
		}
		if cfg.Target != TargetData {
			return fmt.Errorf("faults: address fault %v combines with the data target only, not %v", cfg.AddrFault, cfg.Target)
		}
		if cfg.Pattern != Random {
			return fmt.Errorf("faults: address fault %v requires the random pattern: under a constant pattern a redirected load observes the same value it would have read, a benign no-op no backend could or should flag", cfg.AddrFault)
		}
	}
	return nil
}

// scheme returns the metrics label for the checksum scheme.
func (cfg CoverageConfig) scheme() string {
	if cfg.Dual {
		return "dual"
	}
	return "single"
}

// CoverageResult reports the outcome of a coverage experiment. All tallies
// are exact sums over per-trial outcomes, so a result is byte-identical for
// a given config regardless of worker count or campaign interruption.
type CoverageResult struct {
	CoverageConfig
	Tally
}

// Tally counts trial outcomes. One type serves one trial, one checkpointed
// chunk of trials, and a whole cell: a chunk or a cell is the add of its
// trials' tallies.
type Tally struct {
	// Undetected counts trials whose corruption escaped every verification.
	Undetected int
	// Detected counts trials whose corruption was flagged by verification.
	Detected int
	// Skipped counts trials whose fault could not be modeled (an address
	// fault over a 1-word region has no wrong location); they ran clean and
	// count toward neither Detected nor Undetected.
	Skipped int
	// LatencySum accumulates, over detected trials, the number of epochs
	// between injection and detection (0 = caught at the injection epoch's
	// own boundary). Always 0 for the classic single-shot experiment.
	LatencySum int64
	// LatencyMax is the worst detection latency observed, in epochs.
	LatencyMax int
	// LatencyHist is the full detection-latency distribution: per-bucket
	// counts over telemetry.EpochBuckets plus a trailing overflow bucket,
	// so reports can state p50/p99/p999 rather than just a mean.
	LatencyHist []int64
	// Recovered counts detected trials whose rollback re-execution restored
	// a correct, fully verified final state.
	Recovered int
	// Tainted counts trials that exhausted retries and restarts and
	// completed in degraded (report-and-continue) mode.
	Tainted int
	// Retries and Restarts count recovery attempts across all trials.
	Retries  int64
	Restarts int64
	// FalseNegatives counts trials that completed undetected with a wrong
	// final state: the corruption escaped every check AND mattered.
	FalseNegatives int
	// FalsePositives counts trials in which recovery acted on a data-fault
	// verdict although no data fault was injected — a fault in the detector
	// itself was misread as corruption of the protected data.
	FalsePositives int
	// DetectorFaults, CheckpointFaults, and Rebuilds aggregate the
	// supervisor's per-mode classification counts across all trials.
	DetectorFaults   int64
	CheckpointFaults int64
	Rebuilds         int64
}

// detect counts one detection at latency epochs.
func (t *Tally) detect(latency int) {
	t.Detected++
	t.LatencySum += int64(latency)
	t.LatencyMax = max(t.LatencyMax, latency)
	bounds := telemetry.EpochBuckets()
	if t.LatencyHist == nil {
		t.LatencyHist = make([]int64, len(bounds)+1)
	}
	t.LatencyHist[sort.SearchFloat64s(bounds, float64(latency))]++
}

// add sums o into t.
func (t *Tally) add(o Tally) {
	t.Undetected += o.Undetected
	t.Detected += o.Detected
	t.Skipped += o.Skipped
	t.LatencySum += o.LatencySum
	t.LatencyMax = max(t.LatencyMax, o.LatencyMax)
	if len(t.LatencyHist) < len(o.LatencyHist) {
		t.LatencyHist = append(t.LatencyHist, make([]int64, len(o.LatencyHist)-len(t.LatencyHist))...)
	}
	for i, n := range o.LatencyHist {
		t.LatencyHist[i] += n
	}
	t.Recovered += o.Recovered
	t.Tainted += o.Tainted
	t.Retries += o.Retries
	t.Restarts += o.Restarts
	t.FalseNegatives += o.FalseNegatives
	t.FalsePositives += o.FalsePositives
	t.DetectorFaults += o.DetectorFaults
	t.CheckpointFaults += o.CheckpointFaults
	t.Rebuilds += o.Rebuilds
}

// UndetectedPercent returns the percentage of undetected errors, the quantity
// Table 1 reports.
func (r CoverageResult) UndetectedPercent() float64 {
	if r.Trials == 0 {
		return 0
	}
	return 100 * float64(r.Undetected) / float64(r.Trials)
}

// MeanDetectionLatency returns the mean epochs between injection and
// detection over detected trials.
func (r CoverageResult) MeanDetectionLatency() float64 {
	if r.Detected == 0 {
		return 0
	}
	return float64(r.LatencySum) / float64(r.Detected)
}

// RecoveryRate returns the fraction of detected corruptions that were fully
// recovered.
func (r CoverageResult) RecoveryRate() float64 {
	if r.Detected == 0 {
		return 0
	}
	return float64(r.Recovered) / float64(r.Detected)
}

func (r CoverageResult) String() string {
	scheme := "one checksum"
	if r.Dual {
		scheme = "two checksums"
	}
	s := fmt.Sprintf("%d flips, N=%d, %v, %s: %.3f%% undetected",
		r.BitFlips, r.Words, r.Pattern, scheme, r.UndetectedPercent())
	if r.Backend != BackendChecksum {
		s += fmt.Sprintf(", backend=%v", r.Backend)
	}
	if r.AddrFault != AddrNone {
		s += fmt.Sprintf(", fault=%v", r.AddrFault)
		if r.Skipped > 0 {
			s += fmt.Sprintf(" (%d skipped)", r.Skipped)
		}
	}
	if r.Epochs > 0 {
		s += fmt.Sprintf(", %d epochs: mean latency %.2f, recovery %.1f%%",
			r.Epochs, r.MeanDetectionLatency(), 100*r.RecoveryRate())
	}
	if r.Target != TargetData {
		detector := "unhardened"
		if r.Hardened {
			detector = "hardened"
		}
		s += fmt.Sprintf(", target=%v %s: FN=%d FP=%d detector=%d checkpoint=%d rebuilds=%d",
			r.Target, detector, r.FalseNegatives, r.FalsePositives,
			r.DetectorFaults, r.CheckpointFaults, r.Rebuilds)
	}
	return s
}

// RunCoverage executes the experiment described by cfg with default campaign
// settings (one worker pool over trials, no checkpointing). It returns an
// error for invalid configurations instead of dividing by zero later.
func RunCoverage(cfg CoverageConfig) (CoverageResult, error) {
	res, err := (&Campaign{Cells: []CoverageConfig{cfg}}).Run(context.Background())
	if err != nil {
		return CoverageResult{CoverageConfig: cfg}, err
	}
	return res.Results[0], nil
}

func initialSums(cfg CoverageConfig, data []uint64) (uint64, uint64) {
	if cfg.Dual {
		return checksum.DualSum(cfg.Kind, data)
	}
	return checksum.Sum(cfg.Kind, data), 0
}

// Table1Cell runs the paper's Table 1 cell for the given parameters with the
// paper's operator (integer modulo addition).
func Table1Cell(words, bitFlips int, p Pattern, dual bool, trials int, seed int64) (CoverageResult, error) {
	return RunCoverage(CoverageConfig{
		Kind:     checksum.ModAdd,
		Words:    words,
		BitFlips: bitFlips,
		Pattern:  p,
		Dual:     dual,
		Trials:   trials,
		Seed:     seed,
	})
}
