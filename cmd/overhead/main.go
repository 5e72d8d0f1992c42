// Command overhead reproduces Figures 10 and 11 of the paper: the normalized
// runtimes of the Resilient (Algorithm 3) and Resilient-Optimized (index-set
// splitting + inspector hoisting) variants of the Table 2 benchmarks, and
// the estimated runtimes under a hardware checksum functional unit.
//
// Usage:
//
//	overhead [-backend interp|native] [-fig 10|11|all] [-scale 0.01] \
//	         [-bench name] [-list] \
//	         [-parallel N] [-json] [-json-out BENCH_overhead.json] \
//	         [-wal dir] [-wal-epochs 8] \
//	         [-trace spans.jsonl] [-metrics out] \
//	         [-serve addr] [-flight dump.json] [-chrome trace.json] [-linger]
//
// -backend native switches from the instruction-counting interpreter to the
// committed compiled kernels (internal/codegen/gennative): real wall-clock
// overheads of the defuse compiler's output under the Go compiler, merged
// into the -json report as the native block. -parallel requires N within the
// host's CPU count — oversubscribed workers would report wall parity that
// measures the scheduler, not the executor.
//
// -wal switches to the durability measurement: each kernel runs once under
// plain epoch supervision and once with crash-consistent WAL checkpoints
// sealed (encoded, CRC-framed, fsynced) at every verified epoch boundary,
// reporting the runtime ratio and the checkpoint log size. Outputs of the
// two runs are verified equal. With -json the rows are merged into the
// report as its durable block.
//
// Scale multiplies the paper's problem sizes; the kernels execute on the
// package's instruction-counting interpreter, so the Figure 10/11 rows carry
// only deterministic, machine-independent op counts. -json additionally merges
// the results into the machine-readable overhead report (schema
// defuse/overhead/v5, created if missing; the blocks other commands merged
// in are kept) for regression tracking across commits, including
// histogram-derived p50/p99/p999 quantiles for epoch-verification cost and
// detection latency (measured by a small supervised fault-injection probe).
// -parallel N runs the parallel-safe kernels through the sharded executor at
// worker counts 1,2,4,...,N and appends the scaling curve (wall-clock and
// deterministic critical-path speedups) to the report.
//
// -trace writes every span as one JSON line (instrument and bench.run spans,
// the probe's trial trees, their fault and verification marks). -serve
// starts the live telemetry endpoint (/metrics, /flight, /trace,
// /debug/pprof); -linger keeps it up after the measurements finish until
// SIGINT/SIGTERM. -flight arms the crash flight recorder (the span ring
// dumps there on a failed verification, a detector fault, or exit) and
// -chrome writes the recorded spans as Chrome trace-event JSON loadable in
// Perfetto.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime"

	"defuse/internal/bench"
	"defuse/internal/checksum"
	"defuse/internal/faults"
	"defuse/telemetry"
)

func main() {
	backend := flag.String("backend", "interp", "execution backend: interp (cost-model interpreter) or native (compiled gennative kernels)")
	fig := flag.String("fig", "all", "which figure to regenerate: 10, 11, or all")
	scale := flag.Float64("scale", 0.004, "problem-size scale relative to the paper's sizes")
	one := flag.String("bench", "", "run a single benchmark by Table 2 name")
	list := flag.Bool("list", false, "print Table 2 (benchmarks and problem sizes) and exit")
	parallel := flag.Int("parallel", 0, "measure the sharded executor's scaling curve up to N workers (0 disables)")
	jsonOut := flag.Bool("json", false, "also merge the results into the machine-readable overhead report (created if missing)")
	jsonPath := flag.String("json-out", "BENCH_overhead.json", "path of the -json report")
	wal := flag.String("wal", "", "measure durable-checkpoint overhead, writing per-benchmark WALs into this directory")
	walEpochs := flag.Int("wal-epochs", 8, "with -wal: epochs (checkpoint seals) per benchmark run")
	linger := flag.Bool("linger", false, "with -serve: keep serving after the run until SIGINT/SIGTERM")
	obsFlags := telemetry.ObsFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Printf("%-10s %-46s %s\n", "Benchmark", "Description", "Paper problem size")
		for _, b := range bench.Suite() {
			fmt.Printf("%-10s %-46s %s\n", b.Name, b.Description, b.PaperSize)
		}
		return
	}

	if err := validateParallel(*parallel, runtime.NumCPU()); err != nil {
		fatal(err)
	}
	if *backend == "native" {
		// The native path times compiled code: the interpreter-only modes
		// (sharded executor, WAL measurement) do not apply to it.
		if *parallel > 0 || *wal != "" {
			fatal(fmt.Errorf("-backend native does not support -parallel or -wal"))
		}
		if err := runNative(*scale, *one, *jsonOut, *jsonPath); err != nil {
			fatal(err)
		}
		return
	}
	if *backend != "interp" {
		fatal(fmt.Errorf("unknown -backend %q (want interp or native)", *backend))
	}

	obs, err := telemetry.SetupObs(obsFlags())
	if err != nil {
		fatal(err)
	}
	if obs.Server != nil {
		fmt.Fprintf(os.Stderr, "overhead: serving telemetry on http://%s\n", obs.Server.Addr())
	}
	// Uniform two-stage signal discipline: the first SIGINT/SIGTERM flushes
	// every armed artifact (JSONL trace, flight ring, metrics, Chrome trace)
	// and cancels the linger; a second forces immediate exit with everything
	// flushed. A partial run still leaves complete, parseable files behind.
	ctx, stop := telemetry.GracefulSignals(obs)
	err = run(*fig, *scale, *one, *parallel, *jsonOut, *jsonPath, *wal, *walEpochs,
		bench.Telemetry{Metrics: obs.Metrics, Tracer: obs.Tracer})
	if err == nil && *linger && obs.Server != nil {
		fmt.Fprintln(os.Stderr, "overhead: lingering; interrupt to exit")
		<-ctx.Done()
	}
	stop()
	if ferr := obs.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		fatal(err)
	}
}

// validateParallel rejects worker counts beyond the host's CPUs. The sharded
// executor's wall-clock column is the point of -parallel; oversubscribed
// workers time-slice on the same cores and silently report wall parity, a
// measurement that looks valid and isn't — so asking for it is an error, not
// a degraded run.
func validateParallel(n, cpus int) error {
	if n > cpus {
		return fmt.Errorf("-parallel %d exceeds the %d available CPUs; "+
			"oversubscribed workers produce meaningless wall-clock parity rows", n, cpus)
	}
	return nil
}

// workerLadder returns the doubling ladder 1, 2, 4, ... capped at n, always
// ending at n itself so the requested count is measured.
func workerLadder(n int) []int {
	var ladder []int
	for w := 1; w < n; w *= 2 {
		ladder = append(ladder, w)
	}
	return append(ladder, n)
}

func run(fig string, scale float64, one string, parallel int, jsonOut bool, jsonPath, wal string, walEpochs int, tel bench.Telemetry) error {
	if wal != "" {
		return runDurable(scale, one, wal, walEpochs, jsonOut, jsonPath, tel)
	}
	var rows10 []bench.Figure10Row
	var rows11 []bench.Figure11Row
	if one != "" {
		b, err := bench.ByName(one)
		if err != nil {
			return err
		}
		r10, r11, err := bench.RunBenchmarkWith(b, scale, tel)
		if err != nil {
			return err
		}
		rows10, rows11 = []bench.Figure10Row{r10}, []bench.Figure11Row{r11}
	} else {
		var err error
		rows10, rows11, err = bench.Figure10With(scale, tel)
		if err != nil {
			return err
		}
	}

	if fig == "10" || fig == "all" {
		fmt.Println("Figure 10: normalized running time of the resilient codes (software-only)")
		fmt.Println("(paper geomeans on its icc/Xeon testbed: resilient 1.788, optimized 1.402)")
		fmt.Println()
		fmt.Print(bench.FormatFigure10(rows10))
		fmt.Println()
	}
	if fig == "11" || fig == "all" {
		fmt.Println("Figure 11: estimated normalized runtime with a hardware checksum unit")
		fmt.Println("(paper: largest overheads 4-10%, ~3% geomean excluding strsm)")
		fmt.Println()
		fmt.Print(bench.FormatFigure11(rows11))
	}

	var scaling []bench.ScalingRow
	if parallel > 0 {
		ladder := workerLadder(parallel)
		for _, b := range bench.Suite() {
			if !b.ParallelSafe || (one != "" && b.Name != one) {
				continue
			}
			rows, err := bench.RunScaling(b, scale, ladder, tel)
			if err != nil {
				return err
			}
			scaling = append(scaling, rows...)
		}
		if len(scaling) == 0 {
			return fmt.Errorf("overhead: -parallel: no parallel-safe benchmark selected")
		}
		fmt.Println("Scaling: sharded parallel executor (Resilient variant, merge-verify)")
		fmt.Println("(ops speedup is the deterministic critical-path ratio; wall clock depends on host cores)")
		fmt.Println()
		fmt.Print(bench.FormatScaling(scaling))
		fmt.Println()
	}

	if jsonOut {
		rep, err := bench.BuildOverheadReport(rows10, rows11, scale)
		if err != nil {
			return err
		}
		rep.Scaling = scaling
		snap, err := runQuantileProbe(tel)
		if err != nil {
			return err
		}
		rep.AttachQuantiles(snap)
		// The interpreter run owns the cost-model blocks; the native,
		// service, backends, soak and durable blocks merged in by the other
		// commands survive. Only a missing report is written from scratch.
		err = bench.MergeReport(jsonPath, func(r *bench.OverheadReport) {
			r.GeneratedAt, r.Scale, r.Rows, r.Geomean = rep.GeneratedAt, rep.Scale, rep.Rows, rep.Geomean
			r.Quantiles, r.Scaling = rep.Quantiles, rep.Scaling
		}, writeReport)
		if errors.Is(err, fs.ErrNotExist) {
			var buf bytes.Buffer
			if err = rep.WriteJSON(&buf); err == nil {
				err = writeReport(jsonPath, buf.Bytes())
			}
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "overhead: wrote %s\n", jsonPath)
	}
	return nil
}

// writeReport is the file writer every -json path hands bench.MergeReport.
func writeReport(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

// runQuantileProbe fills the epoch-verify and detection-latency histograms
// behind the v2 report's quantiles block by running a small supervised
// fault-injection cell: every trial exercises the epoch-boundary Verify path
// (timing defuse_epoch_verify_seconds) and every detection lands in
// defuse_detection_latency_epochs. The trial count is deliberately small —
// the probe characterizes latency distributions, not coverage rates.
func runQuantileProbe(tel bench.Telemetry) (telemetry.Snapshot, error) {
	reg := tel.Metrics
	if reg == nil {
		// No -metrics/-serve: the quantiles still need a registry to
		// accumulate in; it lives only for the probe.
		reg = telemetry.NewRegistry()
	}
	res, err := faults.RunCoverage(faults.CoverageConfig{
		Kind:     checksum.ModAdd,
		Words:    32,
		BitFlips: 1,
		Pattern:  faults.Random,
		Trials:   256,
		Seed:     1,
		Epochs:   6,
		Recover:  true,
		Metrics:  reg,
		Tracer:   tel.Tracer,
	})
	if err != nil {
		return telemetry.Snapshot{}, fmt.Errorf("overhead: quantile probe: %w", err)
	}
	if res.Detected == 0 {
		return telemetry.Snapshot{}, fmt.Errorf("overhead: quantile probe detected 0/%d injected faults", res.Trials)
	}
	return reg.Snapshot(), nil
}

// runDurable measures the durability tax: epoch-supervised baseline vs
// WAL-checkpointing runs of each kernel, with output equivalence enforced.
func runDurable(scale float64, one, walDir string, epochs int, jsonOut bool, jsonPath string, tel bench.Telemetry) error {
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	var rows []bench.DurableRow
	if one != "" {
		b, err := bench.ByName(one)
		if err != nil {
			return err
		}
		row, err := bench.RunDurable(b, scale, epochs, walDir, tel)
		if err != nil {
			return err
		}
		rows = []bench.DurableRow{row}
	} else {
		var err error
		rows, err = bench.RunDurableSuite(scale, epochs, walDir, tel)
		if err != nil {
			return err
		}
	}
	fmt.Println("Durability: epoch-supervised baseline vs crash-consistent WAL checkpoints")
	fmt.Println("(each seal = snapshot encode + CRC frame + fsync; outputs verified equal)")
	fmt.Println()
	fmt.Print(bench.FormatDurable(rows))
	if jsonOut {
		if err := bench.MergeReport(jsonPath, func(r *bench.OverheadReport) { r.Durable = rows }, writeReport); err != nil {
			return fmt.Errorf("%w (run -backend interp -json first to create the report)", err)
		}
		fmt.Fprintf(os.Stderr, "overhead: merged durable rows into %s\n", jsonPath)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "overhead:", err)
	os.Exit(1)
}
