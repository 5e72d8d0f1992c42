package faults

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"defuse/internal/checksum"
)

// detectorCfg builds a detector-targeted epoch cell. BitFlips is 1 so the
// data half of masking/checkpoint trials is always detectable (the paper's
// single-bit guarantee): every divergence the cell reports is then
// attributable to the detector-targeted fault, not to ordinary aliasing.
func detectorCfg(target Target, hardened bool, trials int) CoverageConfig {
	return CoverageConfig{
		Kind: checksum.ModAdd, Words: 32, BitFlips: 1, Pattern: Random,
		Trials: trials, Seed: 1234, Epochs: 6, Recover: true,
		Target: target, Hardened: hardened,
	}
}

func TestUnhardenedAccumulatorFaultReadsAsDataFault(t *testing.T) {
	// An accumulator strike makes def != use with pristine data. The
	// unhardened detector cannot tell the difference: it reports a data
	// fault and spends rollbacks on data that was never wrong — every trial
	// is a false positive.
	res, err := RunCoverage(detectorCfg(TargetAccumulator, false, 120))
	if err != nil {
		t.Fatal(err)
	}
	if res.FalsePositives == 0 {
		t.Fatal("unhardened accumulator cell reported no false positives")
	}
	if res.DetectorFaults != 0 {
		t.Errorf("unhardened cell classified %d detector faults; it has no scrub to do so", res.DetectorFaults)
	}
	if res.FalseNegatives != 0 {
		t.Errorf("FalseNegatives = %d; accumulator strikes never corrupt the data", res.FalseNegatives)
	}
}

func TestHardenedAccumulatorFaultClassifiedAndRebuilt(t *testing.T) {
	// Same injections, hardened detector: the boundary scrub sees the
	// primary/shadow divergence first, classifies the failure as a detector
	// fault, and recovery rebuilds state instead of blaming the data.
	res, err := RunCoverage(detectorCfg(TargetAccumulator, true, 120))
	if err != nil {
		t.Fatal(err)
	}
	if res.FalsePositives != 0 {
		t.Errorf("hardened cell still has %d false positives", res.FalsePositives)
	}
	if res.FalseNegatives != 0 || res.Undetected != 0 {
		t.Errorf("FN=%d Undetected=%d, want 0/0", res.FalseNegatives, res.Undetected)
	}
	if res.DetectorFaults == 0 || res.Rebuilds == 0 {
		t.Errorf("DetectorFaults=%d Rebuilds=%d, want both > 0", res.DetectorFaults, res.Rebuilds)
	}
	if res.Recovered != res.Detected || res.Tainted != 0 {
		t.Errorf("Recovered=%d Detected=%d Tainted=%d", res.Recovered, res.Detected, res.Tainted)
	}
}

func TestUnhardenedCounterFaultFalsePositives(t *testing.T) {
	res, err := RunCoverage(detectorCfg(TargetCounter, false, 120))
	if err != nil {
		t.Fatal(err)
	}
	if res.FalsePositives == 0 {
		t.Fatal("unhardened counter cell reported no false positives")
	}
	if res.FalseNegatives != 0 {
		t.Errorf("FalseNegatives = %d; counter strikes never corrupt the data", res.FalseNegatives)
	}
}

func TestHardenedCounterFaultAlwaysCaughtByScrub(t *testing.T) {
	// The counter's encoded copy is untouched by the injection, so the
	// consumption-point check diverges in every trial: no escapes, no false
	// verdicts, every failure classified as a detector fault.
	res, err := RunCoverage(detectorCfg(TargetCounter, true, 120))
	if err != nil {
		t.Fatal(err)
	}
	if res.Undetected != 0 {
		t.Errorf("Undetected = %d, want 0 (enc copy always diverges)", res.Undetected)
	}
	if res.FalsePositives != 0 || res.FalseNegatives != 0 {
		t.Errorf("FP=%d FN=%d, want 0/0", res.FalsePositives, res.FalseNegatives)
	}
	if res.DetectorFaults == 0 {
		t.Error("no detector faults classified")
	}
	if res.Recovered != res.Detected || res.Tainted != 0 {
		t.Errorf("Recovered=%d Detected=%d Tainted=%d", res.Recovered, res.Detected, res.Tainted)
	}
}

func TestUnhardenedMaskingYieldsFalseNegatives(t *testing.T) {
	// XOR masking always finds its compensating flips, so every unhardened
	// trial ends verified-green with a wrong final state: the adversarial
	// false negative the shadow copies exist to prevent.
	cfg := detectorCfg(TargetMasking, false, 60)
	cfg.Kind = checksum.XOR
	res, err := RunCoverage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FalseNegatives == 0 {
		t.Fatal("unhardened XOR masking produced no false negatives")
	}
	if res.FalseNegatives != res.Undetected {
		t.Errorf("FalseNegatives=%d Undetected=%d; every masked escape has a wrong final state",
			res.FalseNegatives, res.Undetected)
	}

	// The paper's ModAdd operator masks only when the accumulator bit
	// polarities line up (~1/4 of trials) — still at least one in 120.
	res, err = RunCoverage(detectorCfg(TargetMasking, false, 120))
	if err != nil {
		t.Fatal(err)
	}
	if res.FalseNegatives == 0 {
		t.Fatal("unhardened modadd masking produced no false negatives in 120 trials")
	}
}

func TestHardenedMaskingCaughtByScrub(t *testing.T) {
	// The mask flips accumulator primaries; their shadows disagree, so the
	// hardened boundary scrub converts would-be false negatives into
	// classified detector faults, and every trial recovers.
	for _, kind := range []checksum.Kind{checksum.ModAdd, checksum.XOR} {
		cfg := detectorCfg(TargetMasking, true, 120)
		cfg.Kind = kind
		res, err := RunCoverage(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.FalseNegatives != 0 || res.Undetected != 0 {
			t.Errorf("%v: FN=%d Undetected=%d, want 0/0", kind, res.FalseNegatives, res.Undetected)
		}
		if res.DetectorFaults == 0 {
			t.Errorf("%v: no masked trial was classified as a detector fault", kind)
		}
		if res.Recovered != res.Detected || res.Tainted != 0 {
			t.Errorf("%v: Recovered=%d Detected=%d Tainted=%d", kind, res.Recovered, res.Detected, res.Tainted)
		}
	}
}

func TestCheckpointTargetHardenedRefusesCorruptRestore(t *testing.T) {
	// A fault parked in the epoch checkpoint is invisible until rollback
	// needs it. The hardened restore verifies the digest, classifies the
	// corruption, and restarts from the intact initial checkpoint.
	res, err := RunCoverage(detectorCfg(TargetCheckpoint, true, 120))
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointFaults == 0 {
		t.Fatal("hardened checkpoint cell classified no checkpoint faults")
	}
	if res.Restarts == 0 {
		t.Error("corrupt checkpoints must escalate to restarts")
	}
	if res.FalseNegatives != 0 {
		t.Errorf("FalseNegatives = %d, want 0", res.FalseNegatives)
	}
	if res.Recovered != res.Detected || res.Tainted != 0 {
		t.Errorf("Recovered=%d Detected=%d Tainted=%d", res.Recovered, res.Detected, res.Tainted)
	}
}

func TestCheckpointTargetUnhardenedResurrectsCorruption(t *testing.T) {
	// The unchecked restore happily reinstates the corrupt checkpoint, so
	// the re-executed epoch fails again and again until retries exhaust and
	// the run restarts — recovery effort the digest check avoids.
	unhard, err := RunCoverage(detectorCfg(TargetCheckpoint, false, 120))
	if err != nil {
		t.Fatal(err)
	}
	hard, err := RunCoverage(detectorCfg(TargetCheckpoint, true, 120))
	if err != nil {
		t.Fatal(err)
	}
	if unhard.CheckpointFaults != 0 {
		t.Errorf("unhardened cell classified %d checkpoint faults without a digest check", unhard.CheckpointFaults)
	}
	if unhard.Restarts == 0 {
		t.Error("resurrected corruption never exhausted retries into a restart")
	}
	if unhard.Retries <= hard.Retries {
		t.Errorf("unhardened retries (%d) should exceed hardened (%d): each restore resurrects the fault",
			unhard.Retries, hard.Retries)
	}
}

func TestDetectorCellsWorkerCountInvariance(t *testing.T) {
	cells := []CoverageConfig{
		detectorCfg(TargetAccumulator, false, 100),
		detectorCfg(TargetAccumulator, true, 100),
		detectorCfg(TargetCounter, true, 100),
		detectorCfg(TargetMasking, false, 100),
		detectorCfg(TargetCheckpoint, true, 100),
	}
	var ref *CampaignResult
	for _, workers := range []int{1, 4} {
		for _, chunk := range []int{32, 1000} {
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

func TestDataTargetStreamUnchangedByDetectorDraws(t *testing.T) {
	// The detector-target coordinates are drawn after the data-target draws,
	// so a plain data cell must produce the same tallies it did before the
	// detector targets existed (guarded here by self-consistency against the
	// recovery-mode cell the campaign suite already pins down).
	cfg := epochCfg(200)
	a, err := RunCoverage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Target = TargetData // explicit zero value: must be identical
	b, err := RunCoverage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("explicit TargetData changed the result:\n%+v\n%+v", a, b)
	}
}

func TestParseTarget(t *testing.T) {
	for want, name := range targetNames {
		got, err := ParseTarget(name)
		if err != nil || got != want {
			t.Errorf("ParseTarget(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseTarget("flux-capacitor"); err == nil {
		t.Error("unknown target parsed")
	}
}

func TestValidateDetectorConfigs(t *testing.T) {
	base := detectorCfg(TargetAccumulator, true, 10)
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := base
	bad.Epochs = 0
	bad.Recover = false
	if err := bad.Validate(); err == nil {
		t.Error("detector target without epochs validated")
	}
	bad = detectorCfg(TargetCheckpoint, true, 10)
	bad.Recover = false
	if err := bad.Validate(); err == nil {
		t.Error("checkpoint target without Recover validated")
	}
	bad = detectorCfg(TargetMasking, false, 10)
	bad.BitFlips = 2
	if err := bad.Validate(); err == nil {
		t.Error("masking with 2 flips validated")
	}
	bad = detectorCfg(TargetMasking, false, 10)
	bad.Kind = checksum.Fletcher64
	if err := bad.Validate(); err == nil {
		t.Error("masking with a positional operator validated")
	}
}

func TestGate(t *testing.T) {
	clean := CoverageResult{
		CoverageConfig: CoverageConfig{Trials: 10, Recover: true},
		Tally:          Tally{Detected: 10, Recovered: 10},
	}
	pass := &CampaignResult{Completed: true, Results: []CoverageResult{clean}}
	if err := pass.Gate(); err != nil {
		t.Errorf("clean campaign gated: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*CampaignResult)
		want   string
	}{
		{"incomplete", func(r *CampaignResult) { r.Completed = false }, "incomplete"},
		{"undetected", func(r *CampaignResult) { r.Results[0].Undetected = 1 }, "undetected"},
		{"false negative", func(r *CampaignResult) { r.Results[0].FalseNegatives = 2 }, "false negatives"},
		{"false positive", func(r *CampaignResult) { r.Results[0].FalsePositives = 1 }, "false positives"},
		{"tainted", func(r *CampaignResult) { r.Results[0].Tainted = 3 }, "tainted"},
		{"unrecovered", func(r *CampaignResult) { r.Results[0].Recovered = 9 }, "not recovered"},
	}
	for _, c := range cases {
		r := &CampaignResult{Completed: true, Results: []CoverageResult{clean}}
		c.mutate(r)
		err := r.Gate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Gate = %v, want mention of %q", c.name, err, c.want)
		}
	}
}
