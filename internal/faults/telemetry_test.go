package faults

import (
	"testing"

	"defuse/internal/checksum"
	"defuse/telemetry"
)

// The acceptance contract for cmd/faultcov -trace: exactly one fault.injected
// event per configured trial, each carrying the flipped word/bit coordinates,
// with every trial resolved as either detection or (escaped) verify.ok.

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
			sink := &telemetry.Collector{}
			reg := telemetry.NewRegistry()
			res, err := RunCoverage(CoverageConfig{
				Kind:     checksum.ModAdd,
				Words:    100,
				BitFlips: tc.flips,
				Pattern:  Random,
				Dual:     tc.dual,
				Trials:   tc.trials,
				Seed:     42,
				Trace:    sink,
				Metrics:  reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := sink.Count(telemetry.EvFaultInjected); got != tc.trials {
				t.Fatalf("fault.injected events = %d, want %d (one per trial)", got, tc.trials)
			}
			det := sink.Count(telemetry.EvDetection)
			esc := sink.Count(telemetry.EvVerifyOK)
			if det+esc != tc.trials {
				t.Errorf("detection(%d) + escaped(%d) != trials(%d)", det, esc, tc.trials)
			}
			if esc != res.Undetected {
				t.Errorf("escaped events = %d, want Undetected = %d", esc, res.Undetected)
			}
			for _, ev := range sink.Named(telemetry.EvFaultInjected) {
				coords, ok := ev.Fields["flips"].([]map[string]any)
				if !ok || len(coords) != tc.flips {
					t.Fatalf("fault.injected flips = %v, want %d coordinate pairs", ev.Fields["flips"], tc.flips)
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
	// scrub.fail event matching the defuse_scrub_total counters, so a trace
	// can explain an addrsum scrub failure as well as a checksum one.
	for _, b := range []Backend{BackendChecksum, BackendAddrsum} {
		t.Run("hardened "+b.String()+" epoch", func(t *testing.T) {
			const trials, epochs = 40, 4
			sink := &telemetry.Collector{}
			reg := telemetry.NewRegistry()
			_, err := RunCoverage(CoverageConfig{
				Kind: checksum.ModAdd, Words: 32, BitFlips: 1, Pattern: Random,
				Trials: trials, Seed: 3, Epochs: epochs, Recover: true, Hardened: true,
				Backend: b, AddrFault: AddrWrong, Trace: sink, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := sink.Count(telemetry.EvFaultInjected); got != trials {
				t.Errorf("fault.injected events = %d, want %d", got, trials)
			}
			pass, fail := sink.Count(telemetry.EvScrubPass), sink.Count(telemetry.EvScrubFail)
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
				t.Errorf("scrub counters %v, events pass=%d fail=%d", counters, pass, fail)
			}
		})
	}
}
