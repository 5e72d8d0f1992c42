// Command perfbench is the repository benchmark. It runs one of three
// workloads — table2-native, fault-campaign, service-verify — checks every
// output, and prints each metric by name and unit; the last line of its
// standard output is one JSON object with the result.
//
//	bash perfbench/run.sh --workload table2-native --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the named workload untraced and reports the
// end-to-end metrics. With --trace 1 it runs all three workloads, each once
// untraced and once traced, and reports the per-layer metrics, the layer
// breakdown of each end-to-end figure, and the tracing overhead. See
// README.md for what each workload and metric is for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

var workloads = []string{"table2-native", "fault-campaign", "service-verify"}

// metric is one reported figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report collects metrics in print order.
type report struct{ metrics []metric }

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// env is what every workload receives.
type env struct {
	ctx     context.Context
	seed    int64
	seconds float64
	dir     string // scratch directory for this run, removed at exit
	t       *tally
	out     *report
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of the workload; 1: traced run of every workload with per-layer metrics")
	flag.Parse()
	if err := validate(*workload, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(*workload, *seed, *seconds, *trace == 1))
}

func validate(workload string, seconds float64, trace int) error {
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown -workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	case !(seconds > 0) || math.IsInf(seconds, 1):
		return fmt.Errorf("-seconds must be positive, got %v", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	return nil
}

// outDir holds run artifacts (span files, journals), relative to the
// repository root the benchmark runs from; run.sh builds into it too.
const outDir = ".bench_build"

// run executes the benchmark and prints the result; it returns the exit code.
func run(workload string, seed int64, seconds float64, traced bool) int {
	dir := outDir
	scratch := filepath.Join(dir, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	e := &env{ctx: context.Background(), seed: seed, seconds: seconds, dir: scratch, t: &tally{}, out: &report{}}

	var err error
	if traced {
		rec := newRecorder()
		err = traceAll(e, rec)
		if err == nil {
			path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
			if err = rec.writeJSON(path); err == nil {
				fmt.Printf("spans written to %s\n", path)
			}
		}
	} else {
		switch workload {
		case "table2-native":
			err = benchTable2(e)
		case "fault-campaign":
			err = benchCampaign(e)
		case "service-verify":
			err = benchService(e)
		}
		fmt.Printf("peak_rss_mb %.4g MB\n", peakRSSMB())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	attempted, failed := e.t.counts()
	fmt.Printf("failed_share %.6g (%d of %d checked operations failed)\n", e.t.share(), failed, attempted)
	if failed > 0 {
		fmt.Printf("first failures:\n%s\n", e.t.failures())
	}
	return printResult(e.out, attempted, failed)
}

// printResult prints every metric as a line and then the JSON result line.
func printResult(out *report, attempted, failed int) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not a number\n", m.Name)
			return 1
		}
		fmt.Printf("%-40s %.6g %s\n", m.Name, m.Value, m.Unit)
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   failed == 0 && attempted > 0,
		"attempted": max(attempted, 1),
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}
