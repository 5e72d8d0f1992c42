// Package defuse is a compiler-assisted detector of transient memory errors,
// reproducing "Compiler-Assisted Detection of Transient Memory Errors"
// (Tavarageri, Krishnamoorthy, Sadayappan — PLDI 2014).
//
// The library instruments programs with def-use checksums: every defined
// value contributes to a global def-checksum scaled by its number of uses,
// every consumed value contributes to a use-checksum, and a final verifier
// compares the two — a mismatch means a value was corrupted in the memory
// subsystem between a write and a read.
//
// Two instrumentation front ends are provided:
//
//   - Compile instruments programs written in the package's small loop
//     language (internal/lang), using polyhedral analysis to derive exact
//     compile-time use counts for affine references (Algorithm 1), index-set
//     splitting to remove per-iteration guards (Algorithm 2), dynamic shadow
//     counters with auxiliary checksums for irregular references (Algorithm
//     3, Section 4.1), and hoisted inspectors for iterative codes (Section
//     4.2). Instrumented programs execute on a simulated faulty memory via
//     Execute, so detection can be demonstrated end to end.
//
//   - InstrumentGo rewrites real Go source via go/ast, inserting calls to
//     the public defuse/rt runtime (the general dynamic scheme).
//
// The fault-coverage experiment of the paper's Table 1 is exposed through
// FaultCoverage, and the Figure 10/11 overhead reproduction through the
// internal/bench package (cmd/overhead, cmd/faultcov).
package defuse

import (
	"fmt"
	"strings"

	"defuse/internal/bench"
	"defuse/internal/faults"
	"defuse/internal/goinstr"
	"defuse/internal/instrument"
	"defuse/internal/interp"
	"defuse/internal/lang"
	"defuse/telemetry"
)

// Options mirrors the instrumenter's optimization switches.
type Options = instrument.Options

// CompileResult is an instrumented program plus the instrumentation report.
type CompileResult struct {
	// Source is the instrumented program text (parseable by Compile's input
	// language).
	Source string
	// Prog is the instrumented AST, runnable via Execute.
	Prog *lang.Program
	// Report records the protection plan chosen per variable and the
	// optimizations applied.
	Report instrument.Report
}

// Compile parses a program in the defuse loop language and instruments it
// with error-detection checksums. When opt carries telemetry hooks
// (Options.Tracer / Options.Metrics), every pipeline phase — parse included —
// is timed and recorded as a span through them.
func Compile(src string, opt Options) (*CompileResult, error) {
	var prog *lang.Program
	var err error
	parseDur := telemetry.TimePhase(opt.Tracer, telemetry.SpanContext{}, opt.Metrics, "compile", "parse",
		func() { prog, err = lang.Parse(src) })
	if err != nil {
		return nil, err
	}
	res, err := instrument.Instrument(prog, opt)
	if err != nil {
		return nil, err
	}
	res.Report.Phases = append(
		[]instrument.PhaseTiming{{Phase: "parse", Duration: parseDur}},
		res.Report.Phases...)
	return &CompileResult{
		Source: lang.Print(res.Prog),
		Prog:   res.Prog,
		Report: res.Report,
	}, nil
}

// Machine is an execution of a (possibly instrumented) program against the
// simulated memory subsystem.
type Machine = interp.Machine

// NewMachine prepares a program for execution with the given integer
// parameter values. Initialize arrays with the machine's SetFloat/SetInt/
// Fill methods, then call Run; instrumented programs return a
// *interp.DetectionError when a memory error is detected.
func NewMachine(prog *lang.Program, params map[string]int64) (*Machine, error) {
	return interp.New(prog, params)
}

// Parse parses a program in the defuse loop language without instrumenting.
func Parse(src string) (*lang.Program, error) { return lang.Parse(src) }

// PrintProgram renders a program back to source text.
func PrintProgram(p *lang.Program) string { return lang.Print(p) }

// GoOptions configures Go source instrumentation.
type GoOptions = goinstr.Options

// GoReport describes the Go instrumentation outcome.
type GoReport = goinstr.Report

// InstrumentGo rewrites Go source so tracked function-level variables are
// protected by the def-use checksum scheme (calls into defuse/rt).
func InstrumentGo(filename, src string, opt GoOptions) (string, *GoReport, error) {
	return goinstr.Instrument(filename, src, opt)
}

// CoverageConfig parameterizes a fault-coverage experiment (Table 1).
type CoverageConfig = faults.CoverageConfig

// CoverageResult reports a fault-coverage experiment outcome.
type CoverageResult = faults.CoverageResult

// FaultCoverage runs one cell of the paper's Table 1: initialize words 64-bit
// values, flip bits, and count undetected errors under one or two checksums.
// With cfg.Epochs > 0 the cell runs the epoch-scoped experiment, measuring
// detection latency and (with cfg.Recover) rollback-recovery success.
// It returns an error for invalid configurations.
func FaultCoverage(cfg CoverageConfig) (CoverageResult, error) {
	return faults.RunCoverage(cfg)
}

// Benchmarks returns the paper's Table 2 benchmark suite.
func Benchmarks() []*bench.Benchmark { return bench.Suite() }

// Benchmark returns one Table 2 benchmark by name.
func Benchmark(name string) (*bench.Benchmark, error) { return bench.ByName(name) }

// Version identifies the library.
const Version = "1.0.0"

// Describe returns a short human-readable summary of a compile result: the
// per-variable protection plans, the optimization counts (inspectors
// hoisted, split segments, checksum statements inserted), and the wall time
// of each compile phase.
func Describe(r *CompileResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "instrumented program (%d variables tracked):\n", len(r.Report.Plans))
	b.WriteString(r.Report.String())
	counts := r.Report.PlanCounts()
	if len(counts) > 0 {
		var parts []string
		for _, p := range []instrument.Plan{instrument.PlanStatic, instrument.PlanDynamic,
			instrument.PlanInspector, instrument.PlanInvariant, instrument.PlanControl} {
			if n := counts[p]; n > 0 {
				parts = append(parts, fmt.Sprintf("%d %s", n, p))
			}
		}
		fmt.Fprintf(&b, "plan mix: %s\n", strings.Join(parts, ", "))
	}
	var total float64
	for _, pt := range r.Report.Phases {
		total += pt.Duration.Seconds()
	}
	if len(r.Report.Phases) > 0 {
		fmt.Fprintf(&b, "total compile time: %.3fms over %d phases\n",
			total*1e3, len(r.Report.Phases))
	}
	return b.String()
}
