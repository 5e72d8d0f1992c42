// Command defusec is the defuse compiler driver: it parses a program in the
// defuse loop language, instruments it with def-use checksum error detection
// (optionally applying index-set splitting and inspector hoisting), prints
// the instrumented program, and can run it on the simulated memory
// subsystem — optionally with an injected fault to demonstrate detection.
//
// Usage:
//
//	defusec [-split] [-inspector] [-analyze] [-run] [-param n=100,...] \
//	        [-inject step:array:index:bit] [-trace spans.jsonl] [-metrics out] \
//	        [-serve addr] [-flight dump.json] [-chrome trace.json] file.dl
//
// With no file the program is read from standard input. -trace writes every
// span as one JSON line: the parse and instrument spans with their phase
// children and plan.chosen marks, and the run span with its fault.injected
// and verify.ok/mismatch marks. -metrics writes a final metrics snapshot
// (JSON if the path ends in .json, Prometheus text otherwise). -serve
// exposes the live telemetry endpoint (/metrics, /flight, /trace, pprof),
// -flight arms the crash flight recorder (the recent span ring dumps there
// on a verify.mismatch or at exit), and -chrome writes the recorded spans
// as Chrome trace-event JSON loadable in Perfetto.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"defuse/internal/deps"
	"defuse/internal/instrument"
	"defuse/internal/interp"
	"defuse/internal/lang"
	"defuse/internal/pdg"
	"defuse/internal/usecount"
	"defuse/telemetry"
)

type options struct {
	split, inspector, analyze, run bool
	params, inject, file           string
}

func main() {
	var o options
	flag.BoolVar(&o.split, "split", false, "apply index-set splitting (Algorithm 2)")
	flag.BoolVar(&o.inspector, "inspector", false, "hoist inspectors for iterative loops (Section 4.2)")
	flag.BoolVar(&o.analyze, "analyze", false, "print dependence and use-count analysis instead of code")
	flag.BoolVar(&o.run, "run", false, "execute the instrumented program on the simulated memory")
	flag.StringVar(&o.params, "param", "", "comma-separated parameter values, e.g. n=100,tsteps=5")
	flag.StringVar(&o.inject, "inject", "", "inject a fault: step:array:flatIndex:bit")
	obsFlags := telemetry.ObsFlags(flag.CommandLine)
	flag.Parse()
	o.file = flag.Arg(0)

	obs, err := telemetry.SetupObs(obsFlags())
	if err != nil {
		fatal(err)
	}
	if obs.Server != nil {
		fmt.Fprintf(os.Stderr, "defusec: serving telemetry on http://%s\n", obs.Server.Addr())
	}
	// Uniform two-stage signal discipline: the first SIGINT/SIGTERM cancels
	// the run's context (the interpreter bails out at its next step check)
	// and flushes the telemetry artifacts; a second forces immediate exit
	// with everything flushed.
	ctx, stop := telemetry.GracefulSignals(obs)
	err = compile(ctx, o, obs)
	stop()
	if ferr := obs.Finish(); err == nil {
		err = ferr
	}
	if err != nil {
		fatal(err)
	}
}

func compile(ctx context.Context, o options, obs *telemetry.Obs) error {
	tr, reg := obs.Tracer, obs.Metrics
	src, err := readInput(o.file)
	if err != nil {
		return err
	}
	var prog *lang.Program
	telemetry.TimePhase(tr, telemetry.SpanContext{}, reg, "compile", "parse",
		func() { prog, err = lang.Parse(src) })
	if err != nil {
		return err
	}

	if o.analyze {
		return printAnalysis(prog)
	}

	res, err := instrument.Instrument(prog, instrument.Options{
		Split: o.split, Inspector: o.inspector, Tracer: tr, Metrics: reg,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# instrumentation plan:\n%s", indent(res.Report.String(), "# "))
	if !o.run {
		fmt.Print(lang.Print(res.Prog))
		return nil
	}

	pv, err := parseParams(o.params)
	if err != nil {
		return err
	}
	m, err := interp.New(res.Prog, pv, interp.WithMetrics(reg), interp.WithTracer(tr))
	if err != nil {
		return err
	}
	if o.inject != "" {
		if err := armInjection(m, o.inject); err != nil {
			return err
		}
	}
	m.SetContext(ctx)
	span := tr.Start(telemetry.SpanContext{}, "run",
		telemetry.String("program", prog.Name),
		telemetry.Bool("injected", o.inject != ""))
	m.SetSpan(span.Context())
	err = m.Run()
	span.EndErr(err)
	var de *interp.DetectionError
	switch {
	case errors.As(err, &de):
		fmt.Printf("MEMORY ERROR DETECTED: %v\n", de)
	case err != nil:
		return err
	default:
		fmt.Println("run completed, checksums verified")
	}
	c := m.Counts
	fmt.Printf("ops: %d loads, %d stores, %d arith, %d compare, %d checksum ops\n",
		c.Loads, c.Stores, c.Arith, c.Compare, c.CsOps)
	return nil
}

func readInput(path string) (string, error) {
	if path == "" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func parseParams(s string) (map[string]int64, error) {
	out := map[string]int64{}
	if s == "" {
		return out, nil
	}
	for _, kv := range strings.Split(s, ",") {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad parameter %q (want name=value)", kv)
		}
		v, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad parameter value %q: %v", kv, err)
		}
		out[strings.TrimSpace(parts[0])] = v
	}
	return out, nil
}

func armInjection(m *interp.Machine, spec string) error {
	parts := strings.Split(spec, ":")
	if len(parts) != 4 {
		return fmt.Errorf("bad -inject %q (want step:array:flatIndex:bit)", spec)
	}
	step, err1 := strconv.ParseUint(parts[0], 10, 64)
	idx, err2 := strconv.Atoi(parts[2])
	bit, err3 := strconv.Atoi(parts[3])
	if err1 != nil || err2 != nil || err3 != nil {
		return fmt.Errorf("bad -inject %q", spec)
	}
	base, size, err := m.Region(parts[1])
	if err != nil {
		return err
	}
	if idx < 0 || idx >= size {
		return fmt.Errorf("index %d out of range for %s", idx, parts[1])
	}
	fired := false
	m.SetStepHook(func(cur uint64) {
		if !fired && cur == step {
			m.Mem().FlipBit(base+idx, bit)
			fired = true
			fmt.Fprintf(os.Stderr, "# injected bit flip: %s[%d] bit %d at step %d\n",
				parts[1], idx, bit, step)
		}
	})
	return nil
}

func printAnalysis(prog *lang.Program) error {
	model, err := pdg.Extract(prog)
	if err != nil {
		return err
	}
	flow := deps.Analyze(model)
	uc := usecount.Analyze(flow)

	fmt.Println("== statements ==")
	for _, s := range model.Stmts {
		fmt.Printf("%-4s domain=%s\n", s.ID, s.Domain)
		sched := make([]string, len(s.Schedule))
		for i, t := range s.Schedule {
			sched[i] = t.String()
		}
		fmt.Printf("     schedule=[%s] affine=%v\n", strings.Join(sched, ","), s.FullyAffine())
	}
	fmt.Println("== flow dependences ==")
	for _, d := range flow.Deps {
		fmt.Printf("%v\n", d)
	}
	fmt.Println("== use counts ==")
	for _, s := range model.Stmts {
		dc := uc.Defs[s]
		if dc == nil {
			fmt.Printf("%-4s (dynamic)\n", s.ID)
			continue
		}
		fmt.Printf("%-4s writes %s:\n", s.ID, s.Write.Array)
		for _, c := range dc.Contribs {
			fmt.Printf("     -> %s: %s\n", c.Dep.Dst.ID, c.Count)
		}
	}
	fmt.Println("== variable classes ==")
	for _, d := range prog.Decls {
		c := uc.Classes[d.Name]
		if c == nil {
			continue
		}
		if c.Analyzable {
			fmt.Printf("%-10s static\n", d.Name)
		} else {
			fmt.Printf("%-10s dynamic (%s)\n", d.Name, c.Reason)
		}
	}
	return nil
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "defusec:", err)
	os.Exit(1)
}
