package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"defuse/internal/hwsim"
	"defuse/internal/instrument"
	"defuse/internal/interp"
	"defuse/internal/lang"
	"defuse/telemetry"
)

// Telemetry carries the optional observability hooks through benchmark
// runs: compile phases, plan decisions, run durations, verification
// outcomes, and cost-model gauges all report through it.
type Telemetry struct {
	Metrics *telemetry.Registry
	// Tracer records causally linked spans (instrument and bench.run roots,
	// supervised epoch/recovery/WAL children, and the machine's point
	// spans). Nil is free.
	Tracer *telemetry.Tracer
}

// Variant names the three compilation modes of Figure 10.
type Variant string

// The measured variants.
const (
	Original     Variant = "Original"
	Resilient    Variant = "Resilient"
	ResilientOpt Variant = "Resilient-Optimized"
)

// variantOptions maps a variant to instrumentation options (Original is not
// instrumented).
func variantOptions(v Variant) instrument.Options {
	switch v {
	case Resilient:
		return instrument.Options{}
	case ResilientOpt:
		return instrument.Options{Split: true, Inspector: true}
	}
	return instrument.Options{}
}

// BuildVariant returns the program for a benchmark variant.
func (b *Benchmark) BuildVariant(v Variant) (*lang.Program, error) {
	return b.BuildVariantWith(v, Telemetry{})
}

// BuildVariantWith is BuildVariant with instrumentation telemetry attached.
func (b *Benchmark) BuildVariantWith(v Variant, tel Telemetry) (*lang.Program, error) {
	prog := b.Program()
	if v == Original {
		return prog, nil
	}
	opt := variantOptions(v)
	opt.Tracer, opt.Metrics = tel.Tracer, tel.Metrics
	res, err := instrument.Instrument(prog, opt)
	if err != nil {
		return nil, fmt.Errorf("bench: instrumenting %s as %s: %w", b.Name, v, err)
	}
	return res.Prog, nil
}

// RunResult is one measured execution.
type RunResult struct {
	Bench    string
	Variant  Variant
	Duration time.Duration
	Counts   interp.OpCounts
	// Output is a snapshot of the benchmark's float arrays, for
	// equivalence checking across variants.
	Output map[string][]float64
}

// Run executes one variant at the given scale and returns its measurements.
// Instrumented variants must pass their checksum verification; a detection
// on a fault-free run is reported as an error.
func (b *Benchmark) Run(v Variant, scale float64) (*RunResult, error) {
	return b.RunWith(v, scale, Telemetry{})
}

// RunWith is Run with telemetry attached: instrumentation and the run are
// traced through tel.Tracer and the run duration lands in a per-bench/variant
// histogram.
func (b *Benchmark) RunWith(v Variant, scale float64, tel Telemetry) (*RunResult, error) {
	prog, err := b.BuildVariantWith(v, tel)
	if err != nil {
		return nil, err
	}
	params := b.Params(scale)
	m, err := interp.New(prog, params,
		interp.WithMetrics(tel.Metrics), interp.WithTracer(tel.Tracer))
	if err != nil {
		return nil, err
	}
	b.InitDefault(m, params)
	span := tel.Tracer.Start(telemetry.SpanContext{}, "bench.run",
		telemetry.String("bench", b.Name), telemetry.String("variant", string(v)))
	m.SetSpan(span.Context())
	start := time.Now()
	if err := m.Run(); err != nil {
		span.EndErr(err)
		return nil, fmt.Errorf("bench: %s/%s: %w", b.Name, v, err)
	}
	dur := time.Since(start)
	span.EndErr(nil)
	tel.Metrics.Histogram("defuse_bench_run_seconds", telemetry.DefBuckets(),
		telemetry.Label{Key: "bench", Value: b.Name},
		telemetry.Label{Key: "variant", Value: string(v)}).Observe(dur.Seconds())

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
	return &RunResult{Bench: b.Name, Variant: v, Duration: dur, Counts: m.Counts, Output: out}, nil
}

// Figure10Row is one benchmark's entry in the Figure 10 reproduction on the
// interpreter: deterministic operation-count normalized runtimes under the
// software cost model (Original = 1.0). Wall clock on compiled code is the
// native backend's NativeRow.
type Figure10Row struct {
	Bench        string
	ResilientOps float64
	OptimizedOps float64
}

// Figure11Row is one benchmark's entry in the Figure 11 reproduction: the
// estimated normalized runtime of the optimized resilient code when a
// hardware checksum unit absorbs the checksum computation.
type Figure11Row struct {
	Bench      string
	HWEstimate float64
}

// RunBenchmark measures the three variants of one benchmark and checks
// output equivalence.
func RunBenchmark(b *Benchmark, scale float64) (Figure10Row, Figure11Row, error) {
	return RunBenchmarkWith(b, scale, Telemetry{})
}

// RunBenchmarkWith is RunBenchmark with telemetry attached; per-variant cost
// gauges are published as defuse_cost_model{run="bench/variant"}.
func RunBenchmarkWith(b *Benchmark, scale float64, tel Telemetry) (Figure10Row, Figure11Row, error) {
	orig, err := b.RunWith(Original, scale, tel)
	if err != nil {
		return Figure10Row{}, Figure11Row{}, err
	}
	res, err := b.RunWith(Resilient, scale, tel)
	if err != nil {
		return Figure10Row{}, Figure11Row{}, err
	}
	opt, err := b.RunWith(ResilientOpt, scale, tel)
	if err != nil {
		return Figure10Row{}, Figure11Row{}, err
	}
	if tel.Metrics != nil {
		for _, r := range []*RunResult{orig, res, opt} {
			hwsim.RecordMetrics(tel.Metrics, b.Name+"/"+string(r.Variant),
				r.Counts, hwsim.DefaultConfig())
		}
	}
	for _, r := range []*RunResult{res, opt} {
		if err := sameOutput(orig, r); err != nil {
			return Figure10Row{}, Figure11Row{}, err
		}
	}
	baseCost := hwsim.SoftwareCost(orig.Counts)
	row10 := Figure10Row{
		Bench:        b.Name,
		ResilientOps: hwsim.SoftwareCost(res.Counts) / baseCost,
		OptimizedOps: hwsim.SoftwareCost(opt.Counts) / baseCost,
	}
	row11 := Figure11Row{
		Bench:      b.Name,
		HWEstimate: hwsim.HardwareCost(opt.Counts, hwsim.DefaultConfig()) / baseCost,
	}
	return row10, row11, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}

func sameOutput(a, b *RunResult) error {
	for name, want := range a.Output {
		got := b.Output[name]
		if len(got) != len(want) {
			return fmt.Errorf("bench: %s/%s: array %s length mismatch", b.Bench, b.Variant, name)
		}
		for i := range want {
			if want[i] != got[i] && !(math.IsNaN(want[i]) && math.IsNaN(got[i])) {
				return fmt.Errorf("bench: %s/%s: %s[%d] = %v, want %v",
					b.Bench, b.Variant, name, i, got[i], want[i])
			}
		}
	}
	return nil
}

// Figure10With runs the whole suite, with telemetry attached to every run,
// and returns the per-benchmark rows plus the geometric-mean normalized
// runtimes (the paper reports 1.788 resilient and 1.402
// resilient-optimized on its testbed).
func Figure10With(scale float64, tel Telemetry) ([]Figure10Row, []Figure11Row, error) {
	var rows10 []Figure10Row
	var rows11 []Figure11Row
	for _, b := range Suite() {
		r10, r11, err := RunBenchmarkWith(b, scale, tel)
		if err != nil {
			return nil, nil, err
		}
		rows10 = append(rows10, r10)
		rows11 = append(rows11, r11)
	}
	return rows10, rows11, nil
}

// GeoMeans summarizes Figure 10 rows (op-count model).
func GeoMeans(rows []Figure10Row) (resilient, optimized float64) {
	return geomean(rows, func(r Figure10Row) float64 { return r.ResilientOps }),
		geomean(rows, func(r Figure10Row) float64 { return r.OptimizedOps })
}

func geomean(rows []Figure10Row, f func(Figure10Row) float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += math.Log(f(r))
	}
	return math.Exp(sum / float64(len(rows)))
}

// FormatFigure10 renders the rows as the text analogue of Figure 10.
func FormatFigure10(rows []Figure10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "Benchmark", "Resil(ops)", "Opt(ops)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12.3f %12.3f\n", r.Bench, r.ResilientOps, r.OptimizedOps)
	}
	rg, og := GeoMeans(rows)
	fmt.Fprintf(&b, "%-10s %12.3f %12.3f\n", "geomean", rg, og)
	return b.String()
}

// FormatFigure11 renders the rows as the text analogue of Figure 11.
func FormatFigure11(rows []Figure11Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %16s\n", "Benchmark", "HW-assisted")
	sum := 0.0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %16.4f\n", r.Bench, r.HWEstimate)
		sum += math.Log(r.HWEstimate)
	}
	fmt.Fprintf(&b, "%-10s %16.4f\n", "geomean", math.Exp(sum/float64(len(rows))))
	return b.String()
}
