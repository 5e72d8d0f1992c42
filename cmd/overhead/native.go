package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"defuse/internal/bench"
	"defuse/internal/codegen"
	"defuse/internal/codegen/gennative"
	"defuse/internal/lang"
)

// The native backend times the committed generated kernels
// (internal/codegen/gennative) — the defuse compiler's output built by the
// Go compiler — instead of interpreting the lang programs. The interpreter's
// op-count model does not apply here; wall clock on compiled code IS the
// measurement, so each kernel runs enough interleaved repetitions to make
// microsecond-scale kernels measurable, with a fresh machine and freshly
// seeded data per repetition and only the kernel call inside the timer.

// nativeMinTime is the Original variant's timing budget the rep count aims
// for.
const nativeMinTime = 50 * time.Millisecond

// nativeMinReps is the fewest timed reps a kernel gets, so its ratios have
// quartiles.
const nativeMinReps = 5

// nativeMaxReps caps repetitions so pathologically fast kernels terminate.
const nativeMaxReps = 5000

// nativeVariants lists the measured variants in measurement order; the
// gennative registry keys on the bench.Variant name itself.
var nativeVariants = []bench.Variant{bench.Original, bench.Resilient, bench.ResilientOpt}

// runNative measures the suite (or one benchmark) on the compiled backend,
// prints the wall-clock table, and with -json merges the rows into the
// existing overhead report so the interpreter document gains a native block
// without losing its service/backend/quantile blocks.
func runNative(scale float64, one string, jsonOut bool, jsonPath string) error {
	var rows []bench.NativeRow
	for _, b := range bench.Suite() {
		if one != "" && b.Name != one {
			continue
		}
		row, err := measureNative(b, scale)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		_, err := bench.ByName(one)
		if err == nil {
			err = fmt.Errorf("overhead: -backend native: no benchmark selected")
		}
		return err
	}
	fmt.Println("Native backend: compiled generated kernels (internal/codegen/gennative)")
	fmt.Println("(wall-clock on Go-compiled code; no op-count columns — nothing interprets)")
	fmt.Println()
	fmt.Print(bench.FormatNative(rows))
	if jsonOut {
		if err := bench.MergeReport(jsonPath, func(r *bench.OverheadReport) { r.Native = rows }, writeReport); err != nil {
			return fmt.Errorf("%w (run -backend interp -json first to create the report)", err)
		}
		fmt.Fprintf(os.Stderr, "overhead: merged native rows into %s\n", jsonPath)
	}
	return nil
}

// measureNative times the three variants of one benchmark and checks the
// instrumented variants' outputs agree bit-for-bit with the Original's,
// mirroring the interpreter harness's equivalence gate. A first, untimed run
// of each variant warms it up, supplies the compared outputs and sizes the
// rep count from the Original's time. Rep r then runs the variants in an
// order rotated by r, each on a fresh machine with fresh data, so drift in
// the machine's speed lands on all three alike; each rep gives one ratio per
// instrumented variant, and the row keeps their medians and quartiles.
func measureNative(b *bench.Benchmark, scale float64) (bench.NativeRow, error) {
	params := b.Params(scale)
	var runs [3]func() (*codegen.Machine, time.Duration, error)
	var outs [3]map[string][]float64
	var first time.Duration
	for i, v := range nativeVariants {
		kern, ok := gennative.Lookup(b.Name, string(v))
		if !ok {
			return bench.NativeRow{}, fmt.Errorf("overhead: no generated kernel for %s/%s; run: go run ./cmd/genkernels", b.Name, v)
		}
		prog, err := b.BuildVariant(v)
		if err != nil {
			return bench.NativeRow{}, err
		}
		runs[i] = kernelRun(b, prog, params, kern.Fn)
		m, d, err := runs[i]()
		if err == nil {
			outs[i], err = floatOutputs(b, m)
		}
		if err != nil {
			return bench.NativeRow{}, fmt.Errorf("overhead: native %s/%s: %w", b.Name, v, err)
		}
		if i > 0 {
			if err := sameNativeOutput(b.Name, outs[0], outs[i], v); err != nil {
				return bench.NativeRow{}, err
			}
		} else {
			first = d
		}
	}
	reps := nativeMinReps
	if first > 0 && first < nativeMinTime {
		reps = min(max(int(nativeMinTime/first), nativeMinReps), nativeMaxReps)
	}
	orig := make([]float64, reps)
	ratios := [2][]float64{make([]float64, reps), make([]float64, reps)}
	for r := 0; r < reps; r++ {
		var secs [3]float64
		for j := range runs {
			vi := (j + r) % len(runs)
			_, d, err := runs[vi]()
			if err != nil {
				return bench.NativeRow{}, fmt.Errorf("overhead: native %s/%s: %w", b.Name, nativeVariants[vi], err)
			}
			secs[vi] = d.Seconds()
		}
		orig[r] = secs[0]
		ratios[0][r] = nativeRatio(secs[1], secs[0])
		ratios[1][r] = nativeRatio(secs[2], secs[0])
	}
	_, origMedian, _ := quartiles(orig)
	rq1, rmed, rq3 := quartiles(ratios[0])
	oq1, omed, oq3 := quartiles(ratios[1])
	return bench.NativeRow{
		Bench:           b.Name,
		OriginalSeconds: origMedian,
		ResilientTime:   rmed,
		OptimizedTime:   omed,
		ResilientQ1:     rq1,
		ResilientQ3:     rq3,
		OptimizedQ1:     oq1,
		OptimizedQ3:     oq3,
		Reps:            reps,
	}, nil
}

// kernelRun returns a runner for one generated kernel: a fresh machine and
// freshly seeded data per call, only fn inside the timer.
func kernelRun(b *bench.Benchmark, prog *lang.Program, params map[string]int64, fn codegen.Fn) func() (*codegen.Machine, time.Duration, error) {
	return func() (*codegen.Machine, time.Duration, error) {
		m, err := codegen.MachineFor(prog, params)
		if err != nil {
			return nil, 0, err
		}
		b.InitDefault(m, params)
		start := time.Now()
		err = fn(m, 0, 1)
		return m, time.Since(start), err
	}
}

// floatOutputs snapshots the benchmark's float arrays after a run.
func floatOutputs(b *bench.Benchmark, m *codegen.Machine) (map[string][]float64, error) {
	out := map[string][]float64{}
	for _, d := range b.Program().Decls {
		if d.Type == lang.TypeFloat && d.IsArray() {
			snap, err := m.SnapshotFloats(d.Name)
			if err != nil {
				return nil, err
			}
			out[d.Name] = snap
		}
	}
	return out, nil
}

// quartiles returns the first quartile, the median and the third quartile
// of xs, interpolating between the closest ranks.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// sameNativeOutput asserts an instrumented native variant computed exactly
// what the original native variant did.
func sameNativeOutput(name string, want, got map[string][]float64, v bench.Variant) error {
	for arr, w := range want {
		g := got[arr]
		if len(g) != len(w) {
			return fmt.Errorf("overhead: native %s/%s: array %s length mismatch", name, v, arr)
		}
		for i := range w {
			if w[i] != g[i] && !(math.IsNaN(w[i]) && math.IsNaN(g[i])) {
				return fmt.Errorf("overhead: native %s/%s: %s[%d] = %v, want %v", name, v, arr, i, g[i], w[i])
			}
		}
	}
	return nil
}

func nativeRatio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}
