package bench

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"defuse/internal/hwsim"
	"defuse/internal/interp"
	"defuse/internal/lang"
)

// This file measures the scaling curve of the interpreter's parallel
// executor: the Resilient variant of a parallel-safe kernel run at several
// worker counts, each worker folding checksums into a private shard merged
// before the epilogue's verification. Because the interpreter itself may run
// on a host with any number of cores, each row carries both wall-clock time
// and a deterministic critical-path cost under the software cost model — the
// serial prologue/epilogue ops plus the largest single worker's ops — which
// is what an ideal machine with one core per worker would execute on its
// longest dependence chain. The ops speedup is host-independent; the wall
// speedup converges to it as real cores become available.

// ScalingRow is one (benchmark, worker count) point of the scaling curve.
type ScalingRow struct {
	Bench   string `json:"bench"`
	Workers int    `json:"workers"`
	// Seconds is the wall-clock time of the parallel run on this host.
	Seconds float64 `json:"seconds"`
	// Speedup is rows[0].Seconds / Seconds (host-dependent).
	Speedup float64 `json:"speedup"`
	// CriticalPathOps is the deterministic critical-path cost: software-model
	// cost of the serial remainder plus the largest worker block.
	CriticalPathOps float64 `json:"critical_path_ops"`
	// OpsSpeedup is rows[0].CriticalPathOps / CriticalPathOps — the
	// host-independent scaling the shard decomposition achieves.
	OpsSpeedup float64 `json:"ops_speedup"`
	// Verified reports the checksum verdict of the merged run: true when the
	// epilogue's assert_checksums passed.
	Verified bool `json:"verified"`
}

// RunScaling runs the Resilient variant of a parallel-safe benchmark at each
// worker count and returns one row per count. It enforces the merge-verify
// equivalence along the way: every run must produce the same verification
// verdict, byte-identical checksum accumulators (shadow copies included),
// and identical float outputs as the first worker count — a detected
// divergence is an error, not a row.
func RunScaling(b *Benchmark, scale float64, workerCounts []int, tel Telemetry) ([]ScalingRow, error) {
	if !b.ParallelSafe {
		return nil, fmt.Errorf("bench: %s is not marked parallel-safe", b.Name)
	}
	if len(workerCounts) == 0 {
		return nil, fmt.Errorf("bench: RunScaling needs at least one worker count")
	}
	prog, err := b.BuildVariantWith(Resilient, tel)
	if err != nil {
		return nil, err
	}
	var rows []ScalingRow
	var base *scalingRun
	for _, w := range workerCounts {
		run, err := runScalingOnce(b, prog, scale, w, tel)
		if err != nil {
			return nil, err
		}
		if base == nil {
			base = run
		} else if err := run.sameAs(base); err != nil {
			return nil, fmt.Errorf("bench: %s with %d workers diverged from %d workers: %w",
				b.Name, w, base.row.Workers, err)
		}
		run.row.Speedup = ratio(base.row.Seconds, run.row.Seconds)
		run.row.OpsSpeedup = ratio(base.row.CriticalPathOps, run.row.CriticalPathOps)
		rows = append(rows, run.row)
	}
	return rows, nil
}

// scalingRun carries one run's row plus the state the equivalence check
// compares across worker counts.
type scalingRun struct {
	row     ScalingRow
	def     uint64
	use     uint64
	edef    uint64
	euse    uint64
	shadows [4]uint64
	output  map[string][]float64
}

func runScalingOnce(b *Benchmark, prog *lang.Program, scale float64, workers int, tel Telemetry) (*scalingRun, error) {
	params := b.Params(scale)
	m, err := interp.New(prog, params,
		interp.WithMetrics(tel.Metrics), interp.WithTracer(tel.Tracer))
	if err != nil {
		return nil, err
	}
	b.InitDefault(m, params)
	plan, err := m.PlanParallel(workers)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := plan.Run()
	dur := time.Since(start)
	verified := true
	if err != nil {
		var det *interp.DetectionError
		if !errors.As(err, &det) {
			return nil, fmt.Errorf("bench: %s with %d workers: %w", b.Name, workers, err)
		}
		verified = false
		// A detection aborts before the result is assembled; the row then
		// reports only the verdict, which must still be partition-invariant.
		res = &interp.ParallelResult{Workers: workers}
	}
	critical := hwsim.SoftwareCost(res.SerialCounts)
	peak := 0.0
	for _, wc := range res.WorkerCounts {
		if c := hwsim.SoftwareCost(wc); c > peak {
			peak = c
		}
	}
	critical += peak
	run := &scalingRun{
		row: ScalingRow{
			Bench:           b.Name,
			Workers:         res.Workers,
			Seconds:         dur.Seconds(),
			CriticalPathOps: critical,
			Verified:        verified,
		},
	}
	run.def, run.use, run.edef, run.euse = m.Pair().Def, m.Pair().Use, m.Pair().EDef, m.Pair().EUse
	run.shadows = m.Pair().Shadows()
	if verified {
		run.output = map[string][]float64{}
		for _, d := range b.Program().Decls {
			if d.Type == lang.TypeFloat && d.IsArray() {
				snap, err := m.SnapshotFloats(d.Name)
				if err != nil {
					return nil, err
				}
				run.output[d.Name] = snap
			}
		}
	}
	return run, nil
}

// sameAs checks merge-verify equivalence against the baseline run: same
// verdict, byte-identical accumulators and shadow copies, identical outputs.
func (r *scalingRun) sameAs(base *scalingRun) error {
	if r.row.Verified != base.row.Verified {
		return fmt.Errorf("verdict verified=%v vs %v", r.row.Verified, base.row.Verified)
	}
	if r.def != base.def || r.use != base.use || r.edef != base.edef || r.euse != base.euse {
		return fmt.Errorf("accumulators (%#x,%#x,%#x,%#x) vs (%#x,%#x,%#x,%#x)",
			r.def, r.use, r.edef, r.euse, base.def, base.use, base.edef, base.euse)
	}
	if r.shadows != base.shadows {
		return fmt.Errorf("shadow copies %#x vs %#x", r.shadows, base.shadows)
	}
	for name, want := range base.output {
		got := r.output[name]
		if len(got) != len(want) {
			return fmt.Errorf("array %s length %d vs %d", name, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] && !(math.IsNaN(want[i]) && math.IsNaN(got[i])) {
				return fmt.Errorf("%s[%d] = %v vs %v", name, i, got[i], want[i])
			}
		}
	}
	return nil
}

// FormatScaling renders scaling rows as a text table.
func FormatScaling(rows []ScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %12s %10s %16s %12s %9s\n",
		"Benchmark", "Workers", "Wall(s)", "Speedup", "CritPath(ops)", "OpsSpeedup", "Verified")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %12.4f %10.3f %16.0f %12.3f %9v\n",
			r.Bench, r.Workers, r.Seconds, r.Speedup, r.CriticalPathOps, r.OpsSpeedup, r.Verified)
	}
	return b.String()
}
