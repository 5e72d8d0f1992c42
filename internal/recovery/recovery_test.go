package recovery

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"defuse/internal/checksum"
	"defuse/internal/memsim"
	"defuse/rt"
	"defuse/telemetry"
)

// simState is a minimal supervised computation: each epoch appends its index
// to the trace and increments a value. Faults are modeled by the tests as
// verification failures with controlled persistence.
type simState struct {
	value int
	runs  []int // every epoch execution, including re-executions
}

func mismatch() error {
	return &checksum.MismatchError{Which: "def/use", Expected: 1, Observed: 2}
}

// harness builds a Config over a simState whose Verify is supplied by the
// test. Checkpoint/Restore copy the value (runs is accounting, not state).
func harness(s *simState, epochs int, verify func(k int) error) Config {
	return Config{
		Epochs: epochs,
		Run: func(k int) error {
			s.runs = append(s.runs, k)
			s.value++
			return nil
		},
		Verify:     verify,
		Checkpoint: func() any { return s.value },
		Restore: func(snap any) error {
			s.value = snap.(int)
			return nil
		},
	}
}

func TestSuperviseCleanRun(t *testing.T) {
	s := &simState{}
	o, err := Supervise(context.Background(), harness(s, 5, nil))
	if err != nil {
		t.Fatal(err)
	}
	if o.Detected || o.Tainted || o.Recovered {
		t.Errorf("clean run outcome = %+v", o)
	}
	if o.FirstDetection != -1 {
		t.Errorf("FirstDetection = %d, want -1", o.FirstDetection)
	}
	if s.value != 5 || len(s.runs) != 5 {
		t.Errorf("value = %d, runs = %v", s.value, s.runs)
	}
	for i, k := range s.runs {
		if k != i {
			t.Fatalf("epochs ran out of order: %v", s.runs)
		}
	}
}

// An untraced Supervise builds no span attributes, so a clean run makes the
// same number of allocations however many epochs it supervises.
func TestSuperviseUntracedAllocsFlat(t *testing.T) {
	allocs := func(epochs int) float64 {
		value := 0
		cfg := Config{
			Epochs:     epochs,
			Run:        func(int) error { value++; return nil },
			Checkpoint: func() any { return value },
			Restore:    func(snap any) error { value = snap.(int); return nil },
		}
		return testing.AllocsPerRun(100, func() {
			value = 0
			if _, err := Supervise(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, eight := allocs(1), allocs(8); one != eight {
		t.Errorf("untraced clean Supervise: %v allocs at 1 epoch, %v at 8", one, eight)
	}
}

func TestSuperviseTransientFaultRollsBackAndRecovers(t *testing.T) {
	// The fault corrupts epoch 2's first execution only: the retry re-executes
	// from the epoch-entry checkpoint and succeeds, so the run recovers with
	// exactly one retry, no restart, and the correct final state.
	s := &simState{}
	faulted := false
	cfg := harness(s, 5, func(k int) error {
		if k == 2 && !faulted {
			faulted = true
			return mismatch()
		}
		return nil
	})
	cfg.Policy = Policy{MaxRetries: 3, MaxRestarts: 1}
	o, err := Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Detected || o.FirstDetection != 2 {
		t.Errorf("Detected=%v FirstDetection=%d, want detection at epoch 2", o.Detected, o.FirstDetection)
	}
	if o.Retries != 1 || o.Restarts != 0 {
		t.Errorf("Retries=%d Restarts=%d, want 1/0", o.Retries, o.Restarts)
	}
	if !o.Recovered || o.Tainted {
		t.Errorf("Recovered=%v Tainted=%v", o.Recovered, o.Tainted)
	}
	if s.value != 5 {
		t.Errorf("final value = %d, want 5 (rollback must undo the faulted epoch)", s.value)
	}
	want := []int{0, 1, 2, 2, 3, 4} // epoch 2 executed twice
	if len(s.runs) != len(want) {
		t.Fatalf("runs = %v, want %v", s.runs, want)
	}
	for i := range want {
		if s.runs[i] != want[i] {
			t.Fatalf("runs = %v, want %v", s.runs, want)
		}
	}
}

func TestSupervisePersistentCorruptionEscalatesToRestart(t *testing.T) {
	// A corruption that is already inside the epoch-entry checkpoint cannot be
	// repaired by rollback: every retry restores the corrupt snapshot and
	// fails again. The supervisor must escalate to a full restart, after which
	// the (transient, non-recurring) fault is gone and the run completes.
	s := &simState{}
	poisoned := true // baked in before epoch 1's checkpoint on the first pass
	cfg := harness(s, 4, func(k int) error {
		if k == 1 && poisoned {
			return mismatch()
		}
		return nil
	})
	cfg.Policy = Policy{MaxRetries: 2, MaxRestarts: 1}
	// Restarting clears the poison: the initial checkpoint predates it.
	restore := cfg.Restore
	initial := s.value
	cfg.Restore = func(snap any) error {
		if err := restore(snap); err != nil {
			return err
		}
		if snap.(int) == initial {
			poisoned = false
		}
		return nil
	}
	o, err := Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Detected || o.FirstDetection != 1 {
		t.Errorf("FirstDetection = %d, want 1", o.FirstDetection)
	}
	if o.Retries != 2 || o.Restarts != 1 {
		t.Errorf("Retries=%d Restarts=%d, want 2/1 (retries exhausted, then restart)", o.Retries, o.Restarts)
	}
	if !o.Recovered || o.Tainted {
		t.Errorf("Recovered=%v Tainted=%v, want recovery via restart", o.Recovered, o.Tainted)
	}
	if s.value != 4 {
		t.Errorf("final value = %d, want 4", s.value)
	}
}

func TestSuperviseDegradesGracefullyWhenExhausted(t *testing.T) {
	// Verification at epoch 1 never passes. With retries and restarts
	// exhausted the supervisor must degrade: mark the run tainted, stop
	// spending recovery effort, and still complete every epoch.
	s := &simState{}
	cfg := harness(s, 4, func(k int) error {
		if k == 1 {
			return mismatch()
		}
		return nil
	})
	cfg.Policy = Policy{MaxRetries: 1, MaxRestarts: 1}
	o, err := Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Tainted || o.Recovered {
		t.Errorf("Tainted=%v Recovered=%v, want degraded completion", o.Tainted, o.Recovered)
	}
	if o.Retries != 2 || o.Restarts != 1 {
		// 1 retry on the first pass, restart, 1 retry on the second pass.
		t.Errorf("Retries=%d Restarts=%d, want 2/1", o.Retries, o.Restarts)
	}
	if s.value != 4 {
		t.Errorf("final value = %d, want 4 (degraded run still completes)", s.value)
	}
}

func TestSuperviseZeroPolicyDegradesImmediately(t *testing.T) {
	s := &simState{}
	faulted := false
	cfg := harness(s, 3, func(k int) error {
		if k == 0 && !faulted {
			faulted = true
			return mismatch()
		}
		return nil
	})
	o, err := Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Tainted || o.Retries != 0 || o.Restarts != 0 {
		t.Errorf("zero policy outcome = %+v, want immediate degradation", o)
	}
}

func TestSuperviseTaintedRunCountsItsFaultOnce(t *testing.T) {
	// An imbalance from epoch 1 on fails every later boundary too, as a
	// cumulative checksum that was never repaired does. The zero policy
	// degrades at epoch 1; the later failures are that same fault and must
	// not be tallied again — but Verify must still run at every boundary,
	// since callers do per-epoch bookkeeping in it.
	s := &simState{}
	var verified []int
	cfg := harness(s, 4, func(k int) error {
		verified = append(verified, k)
		if k >= 1 {
			return mismatch()
		}
		return nil
	})
	o, err := Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.DataFaults != 1 || !o.Detected || o.FirstDetection != 1 || !o.Tainted {
		t.Errorf("DataFaults=%d Detected=%v FirstDetection=%d Tainted=%v, want 1/true/1/true",
			o.DataFaults, o.Detected, o.FirstDetection, o.Tainted)
	}
	if len(verified) != 4 {
		t.Errorf("Verify ran at epochs %v, want every one of 0..3", verified)
	}
}

func TestSuperviseBackoffSequence(t *testing.T) {
	var pauses []time.Duration
	s := &simState{}
	attempts := 0
	cfg := harness(s, 1, func(k int) error {
		attempts++
		if attempts <= 3 {
			return mismatch()
		}
		return nil
	})
	cfg.Policy = Policy{
		MaxRetries:    3,
		Backoff:       10 * time.Millisecond,
		BackoffFactor: 2,
		Sleep:         func(d time.Duration) { pauses = append(pauses, d) },
	}
	o, err := Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Recovered {
		t.Errorf("outcome = %+v", o)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(pauses) != len(want) {
		t.Fatalf("pauses = %v, want %v", pauses, want)
	}
	for i := range want {
		if pauses[i] != want[i] {
			t.Fatalf("pauses = %v, want exponential %v", pauses, want)
		}
	}
}

func TestSuperviseTelemetry(t *testing.T) {
	buf := telemetry.NewSpanBuffer(0)
	tr := telemetry.NewTracer(buf)
	reg := telemetry.NewRegistry()
	s := &simState{}
	faulted := false
	cfg := harness(s, 3, func(k int) error {
		if k == 1 && !faulted {
			faulted = true
			return mismatch()
		}
		return nil
	})
	cfg.Policy = Policy{MaxRetries: 1, Backoff: 3 * time.Millisecond, Sleep: func(time.Duration) {}}
	cfg.Metrics = reg
	cfg.Tracer = tr
	run := tr.Start(telemetry.SpanContext{}, "run")
	cfg.Span = run.Context()
	if _, err := Supervise(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	run.End()
	// 3 epochs + 1 re-execution = 4 attempts, each with its verify child,
	// and 1 rollback carrying the backoff it waited — all in the run's tree.
	epochs, verifies := buf.Named("epoch"), buf.Named("verify")
	if len(epochs) != 4 || len(verifies) != 4 {
		t.Fatalf("epoch/verify spans = %d/%d, want 4/4", len(epochs), len(verifies))
	}
	ok := 0
	for _, e := range epochs {
		if e.Parent != run.Context().Span {
			t.Errorf("epoch span %+v not a child of run", e)
		}
		if e.Attr("ok") == true {
			ok++
		}
	}
	if ok != 3 {
		t.Errorf("epoch spans with ok=true = %d, want 3", ok)
	}
	rb := buf.Named("recovery.rollback")
	if len(rb) != 1 || rb[0].Parent != run.Context().Span || rb[0].Attr("epoch") != int64(1) {
		t.Fatalf("recovery.rollback spans = %+v, want one under run for epoch 1", rb)
	}
	if got := rb[0].Attr("backoff_seconds"); got != 0.003 {
		t.Errorf("rollback backoff_seconds = %v, want 0.003", got)
	}
	var okN, bad, retries float64
	for _, ms := range reg.Snapshot().Metrics {
		switch {
		case ms.Name == "defuse_epoch_verifications_total" && ms.Labels["result"] == "ok":
			okN = ms.Value
		case ms.Name == "defuse_epoch_verifications_total" && ms.Labels["result"] == "mismatch":
			bad = ms.Value
		case ms.Name == "defuse_recovery_retries_total":
			retries = ms.Value
		}
	}
	if okN != 3 || bad != 1 || retries != 1 {
		t.Errorf("metrics ok=%v mismatch=%v retries=%v, want 3/1/1", okN, bad, retries)
	}
}

func TestSuperviseConfigErrors(t *testing.T) {
	s := &simState{}
	if _, err := Supervise(context.Background(), harness(s, 0, nil)); err == nil {
		t.Error("Epochs=0 should fail")
	}
	bad := harness(s, 1, nil)
	bad.Run = nil
	if _, err := Supervise(context.Background(), bad); err == nil {
		t.Error("missing Run should fail")
	}
	bad = harness(s, 1, nil)
	bad.Checkpoint = nil
	if _, err := Supervise(context.Background(), bad); err == nil {
		t.Error("missing Checkpoint should fail")
	}
}

func TestSuperviseContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &simState{}
	_, err := Supervise(ctx, harness(s, 3, nil))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if len(s.runs) != 0 {
		t.Errorf("cancelled supervisor still ran epochs: %v", s.runs)
	}
}

func TestDefaultClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want FaultClass
	}{
		{"nil", nil, ClassNone},
		{"plain error", errors.New("disk on fire"), ClassNone},
		{"mismatch", mismatch(), ClassData},
		{"wrapped mismatch", fmt.Errorf("epoch 3: %w", mismatch()), ClassData},
		{"scrub", &checksum.ScrubError{Acc: checksum.AccUse, Primary: 1, Shadow: 2}, ClassDetector},
		{"detector fault", &rt.DetectorFaultError{Part: "counter", Err: errors.New("enc diverged")}, ClassDetector},
		{"rt checkpoint sentinel", fmt.Errorf("rollback: %w", rt.ErrCheckpointCorrupt), ClassCheckpoint},
		{"memsim checkpoint sentinel", fmt.Errorf("restore: %w", memsim.ErrCheckpointCorrupt), ClassCheckpoint},
		// A detector-fault wrapper around a checkpoint sentinel must classify
		// as checkpoint: the sentinel means the rollback path is compromised.
		{"checkpoint beats detector", &rt.DetectorFaultError{Part: "checkpoint", Err: rt.ErrCheckpointCorrupt}, ClassCheckpoint},
	}
	for _, c := range cases {
		if got := DefaultClassify(c.err); got != c.want {
			t.Errorf("%s: DefaultClassify = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSuperviseDetectorFaultRebuildsWithoutBackoff(t *testing.T) {
	// A transient strike on the detector's own state (epoch 1, first attempt)
	// must be recovered by a rebuild: no backoff pause, no restart, and the
	// per-class tallies must say "detector", not "data".
	buf := telemetry.NewSpanBuffer(0)
	reg := telemetry.NewRegistry()
	s := &simState{}
	struck := false
	cfg := harness(s, 3, func(k int) error {
		if k == 1 && !struck {
			struck = true
			return &rt.DetectorFaultError{Part: "accumulator", Err: errors.New("shadow copy diverged")}
		}
		return nil
	})
	pauses := 0
	cfg.Policy = Policy{
		MaxRetries:  2,
		MaxRestarts: 1,
		Backoff:     5 * time.Millisecond,
		Sleep:       func(time.Duration) { pauses++ },
	}
	cfg.Tracer = telemetry.NewTracer(buf)
	cfg.Metrics = reg
	o, err := Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Detected || o.FirstDetection != 1 {
		t.Errorf("Detected=%v FirstDetection=%d, want detection at epoch 1", o.Detected, o.FirstDetection)
	}
	if o.Rebuilds != 1 || o.DetectorFaults != 1 {
		t.Errorf("Rebuilds=%d DetectorFaults=%d, want 1/1", o.Rebuilds, o.DetectorFaults)
	}
	if o.DataFaults != 0 || o.CheckpointFaults != 0 || o.Restarts != 0 {
		t.Errorf("misclassified: %+v", o)
	}
	if pauses != 0 {
		t.Errorf("detector rebuild paused %d times; rebuilds must not back off", pauses)
	}
	if !o.Recovered || o.Tainted {
		t.Errorf("Recovered=%v Tainted=%v", o.Recovered, o.Tainted)
	}
	if s.value != 3 {
		t.Errorf("final value = %d, want 3", s.value)
	}
	// The detector.fault mark hangs off the failed attempt it was caught in.
	df, epochs := buf.Named(telemetry.EvDetectorFault), buf.Named("epoch")
	if len(df) != 1 || df[0].Parent != epochs[1].ID || df[0].Attr("epoch") != int64(1) {
		t.Errorf("detector.fault spans = %+v, want one under the failed epoch-1 attempt", df)
	}
	if got := len(buf.Named("recovery.rebuild")); got != 1 {
		t.Errorf("recovery.rebuild spans = %d, want 1", got)
	}
	for _, ms := range reg.Snapshot().Metrics {
		switch ms.Name {
		case "defuse_detector_faults_total", "defuse_recovery_rebuilds_total":
			if ms.Value != 1 {
				t.Errorf("%s = %v, want 1", ms.Name, ms.Value)
			}
		}
	}
}

func TestSuperviseCorruptCheckpointRestartsImmediately(t *testing.T) {
	// A corrupt-checkpoint verdict means the rollback path cannot be trusted:
	// the supervisor must skip retries entirely and go straight to a full
	// restart from the initial checkpoint.
	buf := telemetry.NewSpanBuffer(0)
	s := &simState{}
	struck := false
	cfg := harness(s, 3, func(k int) error {
		if k == 1 && !struck {
			struck = true
			return fmt.Errorf("rollback: %w", memsim.ErrCheckpointCorrupt)
		}
		return nil
	})
	cfg.Policy = Policy{MaxRetries: 3, MaxRestarts: 1}
	cfg.Tracer = telemetry.NewTracer(buf)
	o, err := Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.Retries != 0 {
		t.Errorf("Retries = %d; corrupt checkpoints must not be retried through", o.Retries)
	}
	if o.Restarts != 1 || o.CheckpointFaults != 1 {
		t.Errorf("Restarts=%d CheckpointFaults=%d, want 1/1", o.Restarts, o.CheckpointFaults)
	}
	if !o.Recovered || o.Tainted {
		t.Errorf("Recovered=%v Tainted=%v", o.Recovered, o.Tainted)
	}
	if s.value != 3 {
		t.Errorf("final value = %d, want 3 (restart re-runs everything)", s.value)
	}
	if got := len(buf.Named(telemetry.EvCheckpointCorrupt)); got != 1 {
		t.Errorf("checkpoint.corrupt spans = %d, want 1", got)
	}
}

func TestSuperviseEpochRestoreFailureEscalates(t *testing.T) {
	// A data fault triggers rollback, but the epoch checkpoint's Restore
	// fails with a corrupt-checkpoint error. The supervisor must classify the
	// restore failure and escalate to a full restart (whose initial
	// checkpoint is intact).
	s := &simState{}
	struck := false
	cfg := harness(s, 3, func(k int) error {
		if k == 1 && !struck {
			struck = true
			return mismatch()
		}
		return nil
	})
	restore := cfg.Restore
	initial := s.value
	cfg.Restore = func(snap any) error {
		if snap.(int) != initial {
			return fmt.Errorf("recovery: %w", rt.ErrCheckpointCorrupt)
		}
		return restore(snap)
	}
	cfg.Policy = Policy{MaxRetries: 3, MaxRestarts: 1}
	o, err := Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.DataFaults != 1 || o.CheckpointFaults != 1 {
		t.Errorf("DataFaults=%d CheckpointFaults=%d, want 1/1", o.DataFaults, o.CheckpointFaults)
	}
	if o.Retries != 1 || o.Restarts != 1 {
		t.Errorf("Retries=%d Restarts=%d, want 1/1", o.Retries, o.Restarts)
	}
	if !o.Recovered || s.value != 3 {
		t.Errorf("Recovered=%v value=%d, want recovery with value 3", o.Recovered, s.value)
	}
}

func TestSuperviseTerminalErrorAborts(t *testing.T) {
	// A Run/Verify error that is not a checksum mismatch is a terminal
	// execution failure, not a detection: no retries, error surfaces.
	s := &simState{}
	boom := errors.New("disk on fire")
	cfg := harness(s, 3, func(k int) error {
		if k == 1 {
			return boom
		}
		return nil
	})
	cfg.Policy = Policy{MaxRetries: 3}
	o, err := Supervise(context.Background(), cfg)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the terminal error", err)
	}
	if o.Detected || o.Retries != 0 {
		t.Errorf("terminal error misclassified as detection: %+v", o)
	}
}
