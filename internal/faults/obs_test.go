package faults

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"defuse/internal/checksum"
	"defuse/telemetry"
)

// TestCampaignFlightDumpAndChromeTrace is the observability acceptance path
// end to end: a gated campaign cell aiming faults at the detector itself
// (hardened, so the scrub classifies them as detector faults) must trip the
// flight recorder's automatic postmortem dump, and the spans recorded along
// the way must export as Chrome trace-event JSON with resolvable parents —
// the artifact Perfetto loads.
func TestCampaignFlightDumpAndChromeTrace(t *testing.T) {
	dir := t.TempDir()
	flightPath := filepath.Join(dir, "flight.json")
	chromePath := filepath.Join(dir, "trace.json")
	obs, err := telemetry.SetupObs(telemetry.ObsConfig{
		FlightPath: flightPath,
		ChromePath: chromePath,
	})
	if err != nil {
		t.Fatal(err)
	}

	res, err := RunCoverage(CoverageConfig{
		Kind:     checksum.ModAdd,
		Words:    16,
		BitFlips: 1,
		Pattern:  Random,
		Trials:   24,
		Seed:     7,
		Epochs:   4,
		Recover:  true,
		Target:   TargetAccumulator,
		Hardened: true,
		Metrics:  obs.Metrics,
		Tracer:   obs.Tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectorFaults == 0 {
		t.Fatalf("hardened accumulator cell latched no detector faults: %+v", res)
	}
	trigger, dumped := obs.Flight.Dumped()
	if !dumped || trigger != telemetry.EvDetectorFault {
		t.Fatalf("flight recorder not auto-dumped on detector fault: %q %v", trigger, dumped)
	}
	if err := obs.Finish(); err != nil {
		t.Fatal(err)
	}

	// The postmortem must be a valid FlightDump carrying the trigger span.
	raw, err := os.ReadFile(flightPath)
	if err != nil {
		t.Fatal(err)
	}
	var dump telemetry.FlightDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("flight dump is not valid JSON: %v", err)
	}
	if dump.Schema != telemetry.FlightDumpSchema || dump.Trigger != telemetry.EvDetectorFault {
		t.Errorf("dump header = %q/%q", dump.Schema, dump.Trigger)
	}
	if len(dump.Entries) == 0 {
		t.Error("flight dump is empty")
	}
	sawTrigger := false
	for _, e := range dump.Entries {
		if e.Span.Name == telemetry.EvDetectorFault && e.Span.Parent != 0 {
			sawTrigger = true
		}
	}
	if !sawTrigger {
		t.Error("flight dump does not contain the triggering detector.fault span under its epoch")
	}

	// The Chrome trace must parse, carry the campaign's span hierarchy
	// (chunk → trial → epoch → verify, with the fault and detector-fault
	// marks), and every parent_id must resolve.
	raw, err = os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace is empty")
	}
	ids := map[string]bool{}
	names := map[string]int{}
	last := int64(-1)
	for _, e := range doc.TraceEvents {
		names[e.Name]++
		if e.Ph != "X" {
			t.Errorf("event %q has phase %q", e.Name, e.Ph)
		}
		if e.Ts < last {
			t.Errorf("timestamps regress: %d after %d", e.Ts, last)
		}
		last = e.Ts
		if id, ok := e.Args["span_id"].(string); ok {
			ids[id] = true
		}
	}
	for _, want := range []string{"chunk", "trial", "epoch", "verify", telemetry.EvFaultInjected, telemetry.EvDetectorFault} {
		if names[want] == 0 {
			t.Errorf("chrome trace has no %q spans (got %v)", want, names)
		}
	}
	for _, e := range doc.TraceEvents {
		if p, ok := e.Args["parent_id"].(string); ok && !ids[p] {
			t.Errorf("event %q references unexported parent %s", e.Name, p)
		}
	}
}

// TestCampaignReportLatencyHistogram checks satellite 6: the campaign's JSON
// report carries the full per-cell detection-latency distribution, not just
// the mean — cumulative buckets plus interpolated quantiles.
func TestCampaignReportLatencyHistogram(t *testing.T) {
	res, err := RunCoverage(CoverageConfig{
		Kind:     checksum.ModAdd,
		Words:    16,
		BitFlips: 1,
		Pattern:  Random,
		Trials:   64,
		Seed:     3,
		Epochs:   5,
		// End-only verification makes latency depend on the injection epoch,
		// so the histogram actually spreads across buckets.
		EndOnlyVerify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected == 0 {
		t.Fatalf("no detections: %+v", res)
	}
	rep := res.Report()
	if rep.DetectionLatency == nil {
		t.Fatal("report has no detection_latency block")
	}
	lr := rep.DetectionLatency
	if lr.Quantiles.Count != uint64(res.Detected) {
		t.Errorf("latency count = %d, want %d detections", lr.Quantiles.Count, res.Detected)
	}
	if len(lr.Buckets) == 0 {
		t.Fatal("latency report has no buckets")
	}
	// Buckets are cumulative and end at +Inf = count.
	lastCount := uint64(0)
	for _, b := range lr.Buckets {
		if b.Count < lastCount {
			t.Errorf("bucket counts not cumulative: %d after %d", b.Count, lastCount)
		}
		lastCount = b.Count
	}
	if lr.Buckets[len(lr.Buckets)-1].LE != "+Inf" || lastCount != uint64(res.Detected) {
		t.Errorf("last bucket = %+v, want +Inf at %d", lr.Buckets[len(lr.Buckets)-1], res.Detected)
	}
	// With end-only verification over 5 epochs the mean latency is ~2, so the
	// p50 must land strictly above the zero-latency bucket.
	if lr.Quantiles.P50 <= 0 {
		t.Errorf("end-only p50 latency = %v, want > 0", lr.Quantiles.P50)
	}

	// The whole report must round-trip as JSON.
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back CellReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.DetectionLatency == nil || back.DetectionLatency.Quantiles != lr.Quantiles {
		t.Errorf("quantiles did not survive the round trip: %+v", back.DetectionLatency)
	}

	// An all-zero-latency cell (every-boundary verification) still reports
	// the distribution, pinned at zero.
	res2, err := RunCoverage(CoverageConfig{
		Kind: checksum.ModAdd, Words: 16, BitFlips: 1, Pattern: Random,
		Trials: 32, Seed: 3, Epochs: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := res2.Report()
	if res2.Detected > 0 && (rep2.DetectionLatency == nil || rep2.DetectionLatency.Quantiles.P999 != 0) {
		t.Errorf("every-boundary cell latency = %+v, want all-zero quantiles", rep2.DetectionLatency)
	}
}
