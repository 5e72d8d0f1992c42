package main

import (
	"fmt"
	"math"
	"os"
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
// measurement, so each variant is averaged over enough repetitions to make
// microsecond-scale kernels measurable, with a fresh machine and freshly
// seeded data per repetition and only the kernel call inside the timer.

// nativeMinTime is the per-variant timing budget the calibration aims for.
const nativeMinTime = 50 * time.Millisecond

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
		write := func(p string, data []byte) error { return os.WriteFile(p, data, 0o644) }
		if err := bench.MergeReport(jsonPath, func(r *bench.OverheadReport) { r.Native = rows }, write); err != nil {
			return fmt.Errorf("%w (run -backend interp -json first to create the report)", err)
		}
		fmt.Fprintf(os.Stderr, "overhead: merged native rows into %s\n", jsonPath)
	}
	return nil
}

// measureNative times the three variants of one benchmark and checks the
// native variants' outputs agree bit-for-bit, mirroring the interpreter
// harness's equivalence gate.
func measureNative(b *bench.Benchmark, scale float64) (bench.NativeRow, error) {
	params := b.Params(scale)
	secs := map[bench.Variant]float64{}
	outs := map[bench.Variant]map[string][]float64{}
	reps := 0
	for _, v := range nativeVariants {
		kern, ok := gennative.Lookup(b.Name, string(v))
		if !ok {
			return bench.NativeRow{}, fmt.Errorf("overhead: no generated kernel for %s/%s; run: go run ./cmd/genkernels", b.Name, v)
		}
		prog, err := b.BuildVariant(v)
		if err != nil {
			return bench.NativeRow{}, err
		}
		mean, out, n, err := timeKernel(b, prog, params, kern.Fn)
		if err != nil {
			return bench.NativeRow{}, fmt.Errorf("overhead: native %s/%s: %w", b.Name, v, err)
		}
		secs[v], outs[v] = mean, out
		if v == bench.Original {
			reps = n
		}
	}
	for _, v := range []bench.Variant{bench.Resilient, bench.ResilientOpt} {
		if err := sameNativeOutput(b.Name, outs[bench.Original], outs[v], v); err != nil {
			return bench.NativeRow{}, err
		}
	}
	orig := secs[bench.Original]
	row := bench.NativeRow{
		Bench:           b.Name,
		OriginalSeconds: orig,
		ResilientTime:   nativeRatio(secs[bench.Resilient], orig),
		OptimizedTime:   nativeRatio(secs[bench.ResilientOpt], orig),
		Reps:            reps,
	}
	return row, nil
}

// timeKernel runs one generated kernel repeatedly — fresh machine and data
// every repetition, only fn inside the timer — and returns the mean per-run
// seconds, the float arrays after the first run, and the repetition count.
func timeKernel(b *bench.Benchmark, prog *lang.Program, params map[string]int64, fn codegen.Fn) (float64, map[string][]float64, int, error) {
	run := func() (*codegen.Machine, time.Duration, error) {
		m, err := codegen.MachineFor(prog, params)
		if err != nil {
			return nil, 0, err
		}
		b.InitDefault(m, params)
		start := time.Now()
		err = fn(m, 0, 1)
		return m, time.Since(start), err
	}
	m, first, err := run()
	if err != nil {
		return 0, nil, 0, err
	}
	out := map[string][]float64{}
	for _, d := range b.Program().Decls {
		if d.Type == lang.TypeFloat && d.IsArray() {
			snap, err := m.SnapshotFloats(d.Name)
			if err != nil {
				return 0, nil, 0, err
			}
			out[d.Name] = snap
		}
	}
	reps := 1
	if first > 0 && first < nativeMinTime {
		reps = int(nativeMinTime / first)
		if reps > nativeMaxReps {
			reps = nativeMaxReps
		}
	}
	total := first
	for r := 1; r < reps; r++ {
		_, d, err := run()
		if err != nil {
			return 0, nil, 0, err
		}
		total += d
	}
	return total.Seconds() / float64(reps), out, reps, nil
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
