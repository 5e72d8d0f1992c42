// Command faultcov reproduces Table 1 of the paper: the percentage of
// undetected multi-bit memory errors under integer-modulo-addition checksums
// over arrays of 64-bit integers, with one checksum and with the
// two-checksum (address-rotated) scheme.
//
// Usage:
//
//	faultcov [-trials 100000] [-sizes 100,10000,1000000] [-flips 2,3,4,5,6] \
//	         [-patterns zero,one,random] [-schemes single,dual] [-seed 1] \
//	         [-epochs 0] [-endonly] [-recover] [-workers 0] [-timeout 0] \
//	         [-target data] [-detector unhardened] [-gate] \
//	         [-resume checkpoint.json] [-json out.json] \
//	         [-trace spans.jsonl] [-metrics out] \
//	         [-serve addr] [-flight dump.json] [-chrome trace.json]
//
// The paper uses 100,000 trials; -trials 10000 gives the same shape in
// seconds rather than minutes. Trials run on a worker pool (-workers, default
// GOMAXPROCS) with deterministic per-trial seeding, so results are identical
// for any worker count. -resume names a checkpoint file: an interrupted
// campaign (Ctrl-C) records its finished work there and a re-run with the
// same configuration picks up where it stopped, producing the same final
// numbers as an uninterrupted run.
//
// -epochs E switches from the paper's single-shot array experiment to the
// epoch-scoped one: the array is a live working set advanced for E epochs
// under the def/use tracker, verification runs at every epoch boundary
// (-endonly restricts it to the last, the paper's program-end placement), and
// -recover (default true) runs each trial under the checkpoint/rollback
// supervisor, reporting detection latency and recovery success rate. Epoch
// mode uses the single-checksum scheme.
//
// -target aims the injected fault (epoch mode): at the protected data
// (default), or at the detector itself — "accumulator" and "counter" strike
// the checksum state, "checkpoint" corrupts a parked recovery snapshot, and
// "masking" pairs a data flip with the compensating accumulator flips that
// hide it. -detector selects "unhardened" (the paper's register-residency
// assumption taken on faith) and/or "hardened" (shadow-copy scrubs plus
// digest-verified checkpoint restores) variants of each cell, so the
// false-negative/false-positive cost of the assumption is measured directly.
//
// -gate turns the run into a CI check: after the campaign completes, exit
// non-zero if any cell recorded undetected corruption, a false negative or
// false positive, a degraded (tainted) trial, or a detected corruption that
// recovery failed to repair.
//
// -backend switches to the backend-comparison mode: the named detection
// backends (comma list of checksum, addrsum, dme — or "all") race an
// identical matrix of fault cells (a data bit flip plus the three address
// faults, including the valid-word-aliasing redirect that data checksums
// provably cannot see), and each (backend, cell) pair is judged against its
// structural expectation — Detect cells must show zero escapes, Blind cells
// zero detections. Uses the first -sizes entry as the word count and -epochs
// (default 4) epochs; -gate exits non-zero on any expectation violation, and
// -bench-out merges the per-backend overhead/latency rows into an existing
// BENCH_overhead.json.
//
// -trace writes every span as one JSON line: per cell, chunk spans holding
// one trial span per trial (ending with its detected/recovered outcome), each
// with one fault.injected point span (the flipped word/bit coordinates) and,
// in epoch mode, the supervisor's epoch, verify and recovery spans; select a
// single cell (one size, one flip count, one pattern, one scheme) to get
// exactly -trials fault.injected lines. Crash campaigns mark one crash.trial
// span per trial.
//
// -serve starts the live telemetry endpoint (/metrics, /flight, /trace,
// /debug/pprof) for watching a long campaign. -flight arms the crash flight
// recorder: the most recent spans are kept in a fixed ring and dumped to the
// named file automatically when a trial's verification fails, a fault hits
// the detector itself (detector.fault), a checkpoint or WAL record is
// refused, or the process is signalled. -chrome writes the per-trial and
// supervisor spans as Chrome trace-event JSON loadable in Perfetto.
//
// -crash N switches to the process-level crash campaign: each trial runs the
// durable (WAL-checkpointing) epoch workload in a child process — faultcov
// re-executes itself — SIGKILLs it at a seeded step, optionally corrupts the
// on-disk log (-crash-cells kill,torn-write,disk-flip), restarts it, and
// requires the resumed run to be byte-identical to an uninterrupted one. The
// workload uses the first -sizes entry as its word count and -epochs (default
// 6) epochs. -wal names the scratch directory holding the per-trial WALs and
// reports (default: a temporary directory, removed afterwards); -gate exits
// non-zero on any mismatch, silent acceptance of a corrupt checkpoint, or
// missed resume.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"defuse/internal/bench"
	"defuse/internal/checksum"
	"defuse/internal/faults"
	"defuse/internal/wal"
	"defuse/telemetry"
)

type options struct {
	trials   int
	sizes    string
	flips    string
	patterns string
	schemes  string
	seed     int64
	op       string
	epochs   int
	endOnly  bool
	recover  bool
	workers  int
	timeout  time.Duration
	resume   string
	jsonOut  string
	targets  string
	detector string
	gate     bool
	crash    int
	crashSel string
	walDir   string
	backend  string
	benchOut string
}

func main() {
	if faults.IsCrashChild() {
		faults.CrashChildMain() // crash-campaign child: run the workload, never return
	}
	var o options
	flag.IntVar(&o.trials, "trials", 100000, "injection trials per cell (paper: 100000)")
	flag.StringVar(&o.sizes, "sizes", "100,10000,1000000", "array sizes in 64-bit words")
	flag.StringVar(&o.flips, "flips", "2,3,4,5,6", "bit-flip counts")
	flag.StringVar(&o.patterns, "patterns", "zero,one,random", "data patterns: zero, one, random")
	flag.StringVar(&o.schemes, "schemes", "single,dual", "checksum schemes: single, dual (ignored with -epochs)")
	flag.Int64Var(&o.seed, "seed", 1, "random seed; each trial derives its own sub-seed")
	flag.StringVar(&o.op, "op", "modadd", "checksum operator: modadd, xor, onescomp")
	flag.IntVar(&o.epochs, "epochs", 0, "run the epoch-scoped experiment with this many epochs per trial (0 = classic Table 1)")
	flag.BoolVar(&o.endOnly, "endonly", false, "with -epochs: verify only at the final boundary (the paper's program-end placement)")
	flag.BoolVar(&o.recover, "recover", true, "with -epochs: run trials under the checkpoint/rollback recovery supervisor")
	flag.StringVar(&o.targets, "target", "data", "fault targets (comma list): data, accumulator, counter, checkpoint, masking (non-data need -epochs)")
	flag.StringVar(&o.detector, "detector", "unhardened", "detector variants (comma list): unhardened, hardened")
	flag.BoolVar(&o.gate, "gate", false, "exit non-zero on undetected corruption, false verdicts, degraded trials, or failed recovery")
	flag.IntVar(&o.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.DurationVar(&o.timeout, "timeout", 0, "per-trial timeout (0 = none)")
	flag.StringVar(&o.resume, "resume", "", "checkpoint file: record finished chunks and resume an interrupted campaign from it")
	flag.StringVar(&o.jsonOut, "json", "", `write the campaign result as JSON to this file ("-" for stdout)`)
	flag.IntVar(&o.crash, "crash", 0, "run the process-level crash campaign with this many trials per cell (0 = disabled)")
	flag.StringVar(&o.crashSel, "crash-cells", "kill,torn-write,disk-flip", "crash cells (comma list): kill, torn-write, disk-flip")
	flag.StringVar(&o.walDir, "wal", "", "with -crash: scratch directory for the per-trial write-ahead logs (default: a removed temp dir)")
	flag.StringVar(&o.backend, "backend", "", "run the backend comparison over these detection backends (comma list: checksum, addrsum, dme; or all)")
	flag.StringVar(&o.benchOut, "bench-out", "", "with -backend: merge the per-backend rows into this existing BENCH_overhead.json")
	obsFlags := telemetry.ObsFlags(flag.CommandLine)
	flag.Parse()

	obs, err := telemetry.SetupObs(obsFlags())
	if err != nil {
		fatal(err)
	}
	if obs.Server != nil {
		fmt.Fprintf(os.Stderr, "faultcov: serving telemetry on http://%s\n", obs.Server.Addr())
	}
	// Uniform two-stage signal discipline: the first SIGINT/SIGTERM cancels
	// the context for a graceful, resumable shutdown — and flushes the
	// telemetry artifacts (JSONL buffer, flight ring, metrics, Chrome trace)
	// so they survive even a later SIGKILL; a second signal finishes the
	// sinks and exits immediately.
	ctx, stop := telemetry.GracefulSignals(obs)
	err = run(ctx, o, obs)
	stop()
	if ferr := obs.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		fatal(err)
	}
}

func run(ctx context.Context, o options, obs *telemetry.Obs) error {
	tr, reg := obs.Tracer, obs.Metrics
	kind, err := parseKind(o.op)
	if err != nil {
		return err
	}
	sizeList, err := parseInts(o.sizes)
	if err != nil {
		return err
	}
	flipList, err := parseInts(o.flips)
	if err != nil {
		return err
	}
	patternList, err := parsePatterns(o.patterns)
	if err != nil {
		return err
	}
	dualList, err := parseSchemes(o.schemes)
	if err != nil {
		return err
	}
	targetList, err := parseTargets(o.targets)
	if err != nil {
		return err
	}
	hardenedList, err := parseDetectors(o.detector)
	if err != nil {
		return err
	}
	if o.crash > 0 {
		return runCrash(ctx, o, kind, sizeList[0], tr, reg)
	}
	if o.backend != "" {
		return runCompare(ctx, o, kind, sizeList[0])
	}
	if o.epochs > 0 {
		// Epoch mode measures the single def/use checksum pair; the dual
		// rotated scheme belongs to the array-sum experiment.
		dualList = []bool{false}
	}

	var cells []faults.CoverageConfig
	for _, k := range flipList {
		for _, n := range sizeList {
			for _, dual := range dualList {
				for _, p := range patternList {
					for _, tgt := range targetList {
						for _, hardened := range hardenedList {
							cells = append(cells, faults.CoverageConfig{
								Kind: kind, Words: n, BitFlips: k, Pattern: p,
								Dual: dual, Trials: o.trials, Seed: o.seed,
								Epochs: o.epochs, EndOnlyVerify: o.endOnly,
								Recover: o.epochs > 0 && o.recover,
								Target:  tgt, Hardened: hardened,
								Metrics: reg, Tracer: tr,
							})
						}
					}
				}
			}
		}
	}

	camp := &faults.Campaign{
		Cells:          cells,
		Workers:        o.workers,
		TrialTimeout:   o.timeout,
		CheckpointPath: o.resume,
	}
	res, runErr := camp.Run(ctx)
	if res != nil {
		if err := render(o, res, sizeList, flipList, patternList, dualList); err != nil && runErr == nil {
			runErr = err
		}
	}
	if errors.Is(runErr, context.Canceled) && o.resume != "" {
		fmt.Fprintf(os.Stderr, "faultcov: interrupted; finished chunks saved to %s, re-run to resume\n", o.resume)
	}
	if o.gate && runErr == nil && res != nil {
		runErr = res.Gate()
	}
	return runErr
}

// runCompare races the detection backends over the shared fault matrix and
// renders the comparison artifact (stdout table, -json document, and
// optionally the -bench-out merge into BENCH_overhead.json).
func runCompare(ctx context.Context, o options, kind checksum.Kind, words int) error {
	epochs := o.epochs
	if epochs <= 0 {
		epochs = 4
	}
	var backends []faults.Backend
	if strings.TrimSpace(o.backend) != "all" {
		for _, name := range strings.Split(o.backend, ",") {
			b, err := faults.ParseBackend(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			backends = append(backends, b)
		}
	}
	res, err := faults.RunComparison(ctx, faults.CompareConfig{
		Words: words, Epochs: epochs, Trials: o.trials, Seed: o.seed,
		Kind: kind, Backends: backends, Workers: o.workers,
	})
	if err != nil {
		return err
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, res); err != nil {
			return err
		}
	} else {
		fmt.Printf("backend comparison: %d words, %d epochs, %d trials per cell\n\n", words, epochs, o.trials)
		fmt.Printf("%-9s %-10s %-7s %9s %11s %8s %5s\n", "backend", "cell", "expect", "detected", "undetected", "skipped", "ok")
		for _, c := range res.Cells {
			fmt.Printf("%-9s %-10s %-7s %9d %11d %8d %5v\n",
				c.Backend, c.Cell, c.Expectation, c.Detected, c.Undetected, c.Skipped, c.OK)
		}
		fmt.Println()
		for _, r := range res.Rows {
			fmt.Printf("%-9s %10.0f ns/trial  mean detection latency %.2f epochs  all-expected=%v\n",
				r.Backend, r.NsPerTrial, r.MeanDetectionLatency, r.AllExpected)
		}
	}
	if o.benchOut != "" {
		rows := make([]bench.BackendRow, 0, len(res.Rows))
		for _, r := range res.Rows {
			row := bench.BackendRow{
				Backend:              r.Backend,
				NsPerTrial:           r.NsPerTrial,
				MeanDetectionLatency: r.MeanDetectionLatency,
				AllExpected:          r.AllExpected,
			}
			for _, c := range res.Cells {
				if c.Backend == r.Backend && c.Cell == "addr-alias" {
					row.AliasEscapes = c.Undetected
					row.AliasDetected = c.Detected
				}
			}
			rows = append(rows, row)
		}
		err := bench.MergeReport(o.benchOut, func(r *bench.OverheadReport) { r.Backends = rows }, func(path string, data []byte) error {
			return wal.WriteFileAtomic(path, data, 0o644)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "faultcov: merged %d backend rows into %s\n", len(rows), o.benchOut)
	}
	if o.gate {
		return res.Gate()
	}
	return nil
}

// runCrash executes the process-level crash campaign: faultcov re-executes
// itself as the child (the CrashChildEnv hook at the top of main routes the
// child into the workload).
func runCrash(ctx context.Context, o options, kind checksum.Kind, words int, tr *telemetry.Tracer, reg *telemetry.Registry) error {
	epochs := o.epochs
	if epochs <= 0 {
		epochs = 6
	}
	var cells []faults.CrashConfig
	for _, name := range strings.Split(o.crashSel, ",") {
		cell, err := faults.ParseCrashCell(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		cells = append(cells, faults.CrashConfig{
			Kind: kind, Words: words, Epochs: epochs,
			Trials: o.crash, Seed: o.seed, Cell: cell,
			Tracer: tr, Metrics: reg,
		})
	}
	camp := &faults.CrashCampaign{Cells: cells, Dir: o.walDir, Workers: o.workers}
	res, err := camp.Run(ctx)
	if err != nil {
		return err
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, res); err != nil {
			return err
		}
	} else {
		fmt.Printf("crash campaign: %d words, %d epochs, %d trials per cell\n\n", words, epochs, o.crash)
		for _, c := range res.Cells {
			fmt.Printf("%-11s killed=%d identical=%d resumed=%d fresh=%d torn=%d corrupt=%d silent=%d mismatched=%d\n",
				c.CellName, c.Killed, c.Identical, c.Resumed, c.Fresh,
				c.TornReported, c.CorruptReported, c.SilentAcceptances, c.Mismatched)
		}
	}
	if o.gate {
		return res.Gate()
	}
	return nil
}

// writeJSON writes v as indented JSON to path, or to stdout when path is
// "-".
func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func render(o options, res *faults.CampaignResult, sizes, flips []int,
	patterns []faults.Pattern, duals []bool) error {
	if o.jsonOut != "" {
		return writeJSON(o.jsonOut, res)
	}
	if o.epochs > 0 {
		fmt.Printf("epoch-scoped fault coverage: %d epochs, %d trials per cell\n\n", o.epochs, o.trials)
		for _, r := range res.Results {
			fmt.Println(r.String())
		}
		if !res.Completed {
			fmt.Println("(campaign incomplete: partial tallies above)")
		}
		return nil
	}

	// Classic mode: the Table 1 grid. Results arrive indexed in the same
	// flips->sizes->schemes->patterns nesting order the cells were built in.
	fmt.Printf("Table 1: percentage of undetected errors with %s checksums (%d trials)\n\n", o.op, o.trials)
	fmt.Printf("%-10s %-9s", "#bit-flips", "N")
	for _, dual := range duals {
		for _, p := range patterns {
			fmt.Printf(" | %-11s", cellName(p, dual))
		}
	}
	fmt.Println()
	i := 0
	for _, k := range flips {
		for _, n := range sizes {
			fmt.Printf("%-10d %-9d", k, n)
			for range duals {
				for range patterns {
					fmt.Printf(" | %-11s", fmt.Sprintf("%.3f%%", res.Results[i].UndetectedPercent()))
					i++
				}
			}
			fmt.Println()
		}
	}
	if !res.Completed {
		fmt.Println("(campaign incomplete: partial tallies above)")
	}
	return nil
}

func cellName(p faults.Pattern, dual bool) string {
	scheme := "1cs"
	if dual {
		scheme = "2cs"
	}
	return fmt.Sprintf("%s %v", scheme, p)
}

func parseKind(s string) (checksum.Kind, error) {
	switch s {
	case "modadd":
		return checksum.ModAdd, nil
	case "xor":
		return checksum.XOR, nil
	case "onescomp":
		return checksum.OnesComp, nil
	}
	return 0, fmt.Errorf("unknown operator %q", s)
}

func parsePatterns(s string) ([]faults.Pattern, error) {
	var out []faults.Pattern
	for _, p := range strings.Split(s, ",") {
		switch strings.TrimSpace(p) {
		case "zero":
			out = append(out, faults.AllZero)
		case "one":
			out = append(out, faults.AllOne)
		case "random":
			out = append(out, faults.Random)
		default:
			return nil, fmt.Errorf("unknown pattern %q (want zero, one, or random)", p)
		}
	}
	return out, nil
}

func parseSchemes(s string) ([]bool, error) {
	var out []bool
	for _, p := range strings.Split(s, ",") {
		switch strings.TrimSpace(p) {
		case "single":
			out = append(out, false)
		case "dual":
			out = append(out, true)
		default:
			return nil, fmt.Errorf("unknown scheme %q (want single or dual)", p)
		}
	}
	return out, nil
}

func parseTargets(s string) ([]faults.Target, error) {
	var out []faults.Target
	for _, p := range strings.Split(s, ",") {
		t, err := faults.ParseTarget(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

func parseDetectors(s string) ([]bool, error) {
	var out []bool
	for _, p := range strings.Split(s, ",") {
		switch strings.TrimSpace(p) {
		case "unhardened":
			out = append(out, false)
		case "hardened":
			out = append(out, true)
		default:
			return nil, fmt.Errorf("unknown detector variant %q (want unhardened or hardened)", p)
		}
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faultcov:", err)
	os.Exit(1)
}
