package faults

import (
	"context"
	"testing"

	"defuse/internal/checksum"
	"defuse/telemetry"
)

// The acceptance contract for cmd/faultcov -trace: exactly one fault.injected
// point span per configured trial, each a child of its trial span and
// carrying the flipped word/bit coordinates, with every trial span resolved
// as detected or escaped.

func TestCoverageTraceEventCounts(t *testing.T) {
	cases := []struct {
		name   string
		flips  int
		dual   bool
		trials int
	}{
		{"2 flips single", 2, false, 50},
		{"2 flips dual", 2, true, 50},
		{"4 flips single", 4, false, 25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := telemetry.NewSpanBuffer(0)
			reg := telemetry.NewRegistry()
			res, err := RunCoverage(CoverageConfig{
				Kind:     checksum.ModAdd,
				Words:    100,
				BitFlips: tc.flips,
				Pattern:  Random,
				Dual:     tc.dual,
				Trials:   tc.trials,
				Seed:     42,
				Tracer:   telemetry.NewTracer(sink),
				Metrics:  reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			injected := faultsUnderTrials(t, sink, tc.trials)
			det, esc := 0, 0
			for _, d := range sink.Named("trial") {
				if d.Attr("detected") == true {
					det++
				} else {
					esc++
				}
			}
			if det+esc != tc.trials {
				t.Errorf("detected(%d) + escaped(%d) != trials(%d)", det, esc, tc.trials)
			}
			if esc != res.Undetected {
				t.Errorf("escaped trial spans = %d, want Undetected = %d", esc, res.Undetected)
			}
			for _, d := range injected {
				coords, ok := d.Attr("flips").([]map[string]any)
				if !ok || len(coords) != tc.flips {
					t.Fatalf("fault.injected flips = %v, want %d coordinate pairs", d.Attr("flips"), tc.flips)
				}
				for _, c := range coords {
					w, wok := c["word"].(int)
					b, bok := c["bit"].(int)
					if !wok || !bok || w < 0 || w >= 100 || b < 0 || b > 63 {
						t.Fatalf("flip coordinate %v out of range", c)
					}
				}
			}

			var trialsCtr, undetCtr uint64
			for _, ms := range reg.Snapshot().Metrics {
				switch ms.Name {
				case "defuse_faultcov_trials_total":
					trialsCtr = uint64(ms.Value)
				case "defuse_faultcov_undetected_total":
					undetCtr = uint64(ms.Value)
				}
			}
			if trialsCtr != uint64(tc.trials) {
				t.Errorf("trials counter = %d, want %d", trialsCtr, tc.trials)
			}
			if undetCtr != uint64(res.Undetected) {
				t.Errorf("undetected counter = %d, want %d", undetCtr, res.Undetected)
			}
		})
	}
	// A hardened epoch cell scrubs the detector at every verifying
	// boundary, whatever the backend, and every scrub leaves a scrub.pass or
	// scrub.fail mark matching the defuse_scrub_total counters, so a trace
	// can explain an addrsum scrub failure as well as a checksum one.
	for _, b := range []Backend{BackendChecksum, BackendAddrsum} {
		t.Run("hardened "+b.String()+" epoch", func(t *testing.T) {
			const trials, epochs = 40, 4
			sink := telemetry.NewSpanBuffer(0)
			reg := telemetry.NewRegistry()
			_, err := RunCoverage(CoverageConfig{
				Kind: checksum.ModAdd, Words: 32, BitFlips: 1, Pattern: Random,
				Trials: trials, Seed: 3, Epochs: epochs, Recover: true, Hardened: true,
				Backend: b, AddrFault: AddrWrong, Tracer: telemetry.NewTracer(sink), Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			faultsUnderTrials(t, sink, trials)
			pass, fail := len(sink.Named(telemetry.EvScrubPass)), len(sink.Named(telemetry.EvScrubFail))
			if pass+fail < trials*epochs {
				t.Errorf("scrub events = %d pass + %d fail, want at least one per boundary (%d)",
					pass, fail, trials*epochs)
			}
			counters := map[string]int{}
			for _, ms := range reg.Snapshot().Metrics {
				if ms.Name == "defuse_scrub_total" {
					counters[ms.Labels["result"]] = int(ms.Value)
				}
			}
			if counters["pass"] != pass || counters["fail"] != fail {
				t.Errorf("scrub counters %v, marks pass=%d fail=%d", counters, pass, fail)
			}
		})
	}
}

// faultsUnderTrials checks that a traced one-cell campaign recorded exactly
// trials fault.injected point spans, one under each trial span, and returns
// them.
func faultsUnderTrials(t *testing.T, sink *telemetry.SpanBuffer, trials int) []telemetry.SpanData {
	t.Helper()
	parents := map[telemetry.SpanID]int{}
	for _, d := range sink.Named("trial") {
		parents[d.ID] = 0
	}
	if len(parents) != trials {
		t.Fatalf("trial spans = %d, want %d", len(parents), trials)
	}
	injected := sink.Named(telemetry.EvFaultInjected)
	if len(injected) != trials {
		t.Fatalf("fault.injected spans = %d, want %d (one per trial)", len(injected), trials)
	}
	for _, d := range injected {
		n, ok := parents[d.Parent]
		if !ok || n > 0 || d.Duration != 0 {
			t.Fatalf("fault.injected %+v is not a point span alone under a trial span", d)
		}
		parents[d.Parent] = n + 1
	}
	return injected
}

// TestCampaignFaultSpansUnderTrials runs the check through Campaign itself,
// epoch mode, on two workers.
func TestCampaignFaultSpansUnderTrials(t *testing.T) {
	const trials = 60
	sink := telemetry.NewSpanBuffer(0)
	cfg := CoverageConfig{
		Kind: checksum.ModAdd, Words: 32, BitFlips: 2, Pattern: Random,
		Trials: trials, Seed: 5, Epochs: 4, Recover: true, Tracer: telemetry.NewTracer(sink),
	}
	res, err := (&Campaign{Cells: []CoverageConfig{cfg}, ChunkSize: 16, Workers: 2}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("campaign incomplete")
	}
	faultsUnderTrials(t, sink, trials)
}
