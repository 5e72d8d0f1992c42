package faults

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"defuse/internal/checksum"
	"defuse/telemetry"
)

func epochCfg(trials int) CoverageConfig {
	return CoverageConfig{
		Kind: checksum.ModAdd, Words: 32, BitFlips: 2, Pattern: Random,
		Trials: trials, Seed: 99, Epochs: 6, Recover: true,
	}
}

func TestTable1CellDeterministic(t *testing.T) {
	// Satellite: the same seed must produce a byte-identical CoverageResult
	// across runs, regardless of how the parallel campaign schedules trials.
	a, err := Table1Cell(100, 2, Random, false, 5000, 77)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table1Cell(100, 2, Random, false, 5000, 77)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("same seed produced different results:\n%s\n%s", ja, jb)
	}
}

func TestCampaignWorkerCountInvariance(t *testing.T) {
	// Trials carry their own sub-seeds and tallies are order-independent
	// sums, so the result must not depend on pool size or chunking.
	cells := []CoverageConfig{
		{Kind: checksum.ModAdd, Words: 100, BitFlips: 2, Pattern: Random, Trials: 3000, Seed: 5},
		epochCfg(400),
	}
	var ref *CampaignResult
	for _, workers := range []int{1, 4} {
		for _, chunk := range []int{64, 1000} {
			camp := &Campaign{Cells: cells, Workers: workers, ChunkSize: chunk}
			res, err := camp.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res
				continue
			}
			for i := range res.Results {
				if !reflect.DeepEqual(res.Results[i], ref.Results[i]) {
					t.Errorf("workers=%d chunk=%d cell %d: %+v != %+v",
						workers, chunk, i, res.Results[i], ref.Results[i])
				}
			}
		}
	}
}

func TestCampaignEpochModeZeroLatencyAndFullRecovery(t *testing.T) {
	// With boundary verification every detected fault is caught at its own
	// injection epoch (latency 0), and rollback recovery — the fault being
	// transient — must repair every detected trial.
	res, err := RunCoverage(epochCfg(600))
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected+res.Undetected != res.Trials {
		t.Errorf("Detected(%d) + Undetected(%d) != Trials(%d)", res.Detected, res.Undetected, res.Trials)
	}
	if res.Detected == 0 {
		t.Fatal("no detections: injection harness is broken")
	}
	if res.LatencyMax != 0 || res.LatencySum != 0 {
		t.Errorf("epoch-verified latency sum/max = %d/%d, want 0/0", res.LatencySum, res.LatencyMax)
	}
	if res.Recovered != res.Detected || res.Tainted != 0 {
		t.Errorf("Recovered=%d Tainted=%d, want every detection (%d) recovered",
			res.Recovered, res.Tainted, res.Detected)
	}
	if rate := res.RecoveryRate(); rate != 1.0 {
		t.Errorf("RecoveryRate = %v, want 1.0", rate)
	}
	if res.Retries == 0 {
		t.Error("recovered trials must have spent rollback retries")
	}
}

func TestCampaignEndOnlyVerifyHasLatency(t *testing.T) {
	// The paper's program-end placement detects at the final boundary: a
	// fault injected in epoch k surfaces with latency (E-1)-k > 0 whenever
	// k < E-1.
	cfg := epochCfg(400)
	cfg.EndOnlyVerify = true
	cfg.Recover = false
	res, err := RunCoverage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected == 0 {
		t.Fatal("no detections")
	}
	if res.LatencySum == 0 {
		t.Error("end-only verification should pay detection latency")
	}
	if res.LatencyMax >= cfg.Epochs {
		t.Errorf("LatencyMax = %d, must be < Epochs = %d", res.LatencyMax, cfg.Epochs)
	}
	if res.MeanDetectionLatency() <= 0 {
		t.Errorf("mean latency = %v", res.MeanDetectionLatency())
	}
	// Without the recovery supervisor a detected trial degrades (tainted).
	if res.Recovered != 0 || res.Tainted != res.Detected {
		t.Errorf("Recovered=%d Tainted=%d without recovery", res.Recovered, res.Tainted)
	}
}

func TestCampaignEpochMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := epochCfg(150)
	cfg.Metrics = reg
	res, err := RunCoverage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var latencyCount, recovered uint64
	for _, ms := range reg.Snapshot().Metrics {
		switch ms.Name {
		case "defuse_detection_latency_epochs":
			latencyCount += ms.Count
		case "defuse_recovery_recovered_total":
			recovered += uint64(ms.Value)
		}
	}
	if latencyCount != uint64(res.Detected) {
		t.Errorf("latency histogram count = %d, want Detected = %d", latencyCount, res.Detected)
	}
	if recovered != uint64(res.Recovered) {
		t.Errorf("recovered counter = %d, want %d", recovered, res.Recovered)
	}
}

func TestCampaignResumeMatchesUninterrupted(t *testing.T) {
	// Acceptance: a campaign resumed from a checkpoint must produce the same
	// final result as an uninterrupted run. Simulate the interruption by
	// dropping half the finished chunks from a completed checkpoint file.
	cells := []CoverageConfig{
		{Kind: checksum.ModAdd, Words: 100, BitFlips: 2, Pattern: Random, Trials: 2000, Seed: 21},
		epochCfg(300),
	}
	full, err := (&Campaign{Cells: cells}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ckpt.json")
	camp := &Campaign{Cells: cells, CheckpointPath: path, ChunkSize: 128}
	if _, err := camp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cp checkpointFile
	if err := json.Unmarshal(raw, &cp); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for ci := range cp.Cells {
		keep := cp.Cells[ci].Chunks[:0]
		for i, ch := range cp.Cells[ci].Chunks {
			if i%2 == 0 {
				keep = append(keep, ch)
			} else {
				dropped++
			}
		}
		cp.Cells[ci].Chunks = keep
	}
	if dropped == 0 {
		t.Fatal("test setup: nothing dropped")
	}
	trimmed, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, trimmed, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := (&Campaign{Cells: cells, CheckpointPath: path, ChunkSize: 128}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ResumedChunks == 0 {
		t.Error("resume did not restore any chunks")
	}
	for i := range full.Results {
		if !reflect.DeepEqual(resumed.Results[i], full.Results[i]) {
			t.Errorf("cell %d: resumed %+v != uninterrupted %+v", i, resumed.Results[i], full.Results[i])
		}
	}
}

func TestCampaignCancelCheckpointsAndResumes(t *testing.T) {
	// Cancel mid-run via the span sink, then re-run to completion: the final
	// result must match an uninterrupted campaign exactly.
	cfg := CoverageConfig{
		Kind: checksum.ModAdd, Words: 100, BitFlips: 2, Pattern: Random,
		Trials: 4000, Seed: 31,
	}
	full, err := RunCoverage(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	traced := cfg
	traced.Tracer = telemetry.NewTracer(cancelSink{n: &seen, at: 500, cancel: cancel})
	path := filepath.Join(t.TempDir(), "ckpt.json")
	camp := &Campaign{Cells: []CoverageConfig{traced}, CheckpointPath: path, ChunkSize: 100, Workers: 2}
	res, err := camp.Run(ctx)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("unexpected campaign error: %v", err)
		}
		if res == nil || res.Completed {
			t.Fatal("cancelled campaign must return a partial, incomplete result")
		}
	}

	resumed, err := (&Campaign{Cells: []CoverageConfig{cfg}, CheckpointPath: path, ChunkSize: 100}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Results[0], full) {
		t.Errorf("resumed %+v != uninterrupted %+v", resumed.Results[0], full)
	}
}

// cancelSink cancels a context once it has seen `at` spans.
type cancelSink struct {
	n      *atomic.Int64
	at     int64
	cancel context.CancelFunc
}

func (s cancelSink) RecordSpan(telemetry.SpanData) {
	if s.n.Add(1) == s.at {
		s.cancel()
	}
}

func TestCampaignRejectsForeignCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	a := CoverageConfig{Kind: checksum.ModAdd, Words: 64, BitFlips: 2, Pattern: Random, Trials: 300, Seed: 1}
	if _, err := (&Campaign{Cells: []CoverageConfig{a}, CheckpointPath: path}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	b := a
	b.Seed = 2 // different campaign: its checkpoint must not be accepted
	_, err := (&Campaign{Cells: []CoverageConfig{b}, CheckpointPath: path}).Run(context.Background())
	if err == nil {
		t.Fatal("foreign checkpoint accepted")
	}
}

// TestCampaignRejectsV3Checkpoint: a v3 checkpoint of the same campaign
// keeps its counts under keys v4 no longer reads, so it is refused by schema
// rather than resumed as empty chunks.
func TestCampaignRejectsV3Checkpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	camp := &Campaign{Cells: []CoverageConfig{{Kind: checksum.ModAdd, Words: 64, BitFlips: 2,
		Pattern: Random, Trials: 300, Seed: 1}}, CheckpointPath: path}
	v3 := fmt.Sprintf(`{"schema":"defuse/faultcov-checkpoint/v3","key":%d,"cells":[{"cell":0,"chunks":[{"start":0,"count":256,"detected":256}]}]}`,
		camp.fingerprint(DefaultChunkSize))
	if err := os.WriteFile(path, []byte(v3), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := camp.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("v3 checkpoint: err = %v, want a schema error", err)
	}
}

func TestCampaignTrialTimeoutAborts(t *testing.T) {
	// An impossibly small per-trial budget must abort the campaign with an
	// error rather than skew the tallies.
	camp := &Campaign{Cells: []CoverageConfig{epochCfg(50)}, TrialTimeout: time.Nanosecond}
	if _, err := camp.Run(context.Background()); err == nil {
		t.Fatal("expected per-trial timeout error")
	}
}

func TestCampaignValidatesCells(t *testing.T) {
	camp := &Campaign{}
	if _, err := camp.Run(context.Background()); err == nil {
		t.Error("empty campaign should fail")
	}
	camp = &Campaign{Cells: []CoverageConfig{{Kind: checksum.ModAdd}}}
	if _, err := camp.Run(context.Background()); err == nil {
		t.Error("invalid cell should fail")
	}
}

func TestCellReportShape(t *testing.T) {
	res, err := RunCoverage(epochCfg(100))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if rep.Trials != 100 || rep.Epochs != 6 || !rep.Recover {
		t.Errorf("report = %+v", rep)
	}
	if rep.RecoverySuccessRate != res.RecoveryRate() {
		t.Errorf("report recovery rate %v != %v", rep.RecoverySuccessRate, res.RecoveryRate())
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"recovery_success_rate", "mean_detection_latency_epochs", "undetected_percent"} {
		if !json.Valid(raw) || !containsKey(raw, key) {
			t.Errorf("report JSON missing %q: %s", key, raw)
		}
	}
}

func containsKey(raw []byte, key string) bool {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return false
	}
	_, ok := m[key]
	return ok
}
