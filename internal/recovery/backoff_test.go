package recovery

import (
	"context"
	"errors"
	"testing"
	"time"

	"defuse/rt"
)

// Satellite coverage for the supervisor's backoff timing: the schedule is
// asserted through the Policy.Sleep injection point, so no test ever sleeps.

func detectorFault() error {
	return &rt.DetectorFaultError{Part: "accumulator", Err: errors.New("diverged")}
}

func TestBackoffScheduleIsExponential(t *testing.T) {
	// Epoch 1 fails four times, then succeeds: the three allowed retries must
	// sleep Backoff, Backoff*Factor, Backoff*Factor^2... and the fourth
	// failure escalates to a restart, which sleeps nothing.
	s := &simState{}
	fails := 0
	cfg := harness(s, 3, func(k int) error {
		if k == 1 && fails < 4 {
			fails++
			return mismatch()
		}
		return nil
	})
	var slept []time.Duration
	cfg.Policy = Policy{
		MaxRetries:    3,
		MaxRestarts:   1,
		Backoff:       10 * time.Millisecond,
		BackoffFactor: 3,
		Sleep:         func(d time.Duration) { slept = append(slept, d) },
	}
	o, err := Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 90 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (schedule %v)", i, slept[i], want[i], slept)
		}
	}
	if o.Restarts != 1 || !o.Recovered {
		t.Errorf("Restarts=%d Recovered=%v, want escalation to one restart then recovery", o.Restarts, o.Recovered)
	}
}

func TestBackoffFactorBelowOneDefaultsToDoubling(t *testing.T) {
	s := &simState{}
	fails := 0
	cfg := harness(s, 2, func(k int) error {
		if k == 0 && fails < 2 {
			fails++
			return mismatch()
		}
		return nil
	})
	var slept []time.Duration
	cfg.Policy = Policy{
		MaxRetries: 2,
		Backoff:    time.Millisecond,
		// BackoffFactor left 0: the documented default of 2 applies.
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	if _, err := Supervise(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Fatalf("slept %v, want [1ms 2ms]", slept)
	}
}

func TestZeroBackoffNeverSleeps(t *testing.T) {
	s := &simState{}
	fails := 0
	cfg := harness(s, 2, func(k int) error {
		if fails < 3 {
			fails++
			return mismatch()
		}
		return nil
	})
	cfg.Policy = Policy{
		MaxRetries: 3,
		Sleep:      func(time.Duration) { t.Fatal("slept with zero Backoff") },
	}
	if _, err := Supervise(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
}

func TestContextCancellationMidBackoff(t *testing.T) {
	// The fault persists; the context is cancelled while the supervisor is
	// sleeping between retries. The next loop iteration must observe the
	// cancellation and surface it instead of retrying forever.
	s := &simState{}
	ctx, cancel := context.WithCancel(context.Background())
	cfg := harness(s, 2, func(k int) error { return mismatch() })
	var slept []time.Duration
	cfg.Policy = Policy{
		MaxRetries:  10,
		MaxRestarts: 1,
		Backoff:     time.Millisecond,
		Sleep: func(d time.Duration) {
			slept = append(slept, d)
			cancel() // the interrupt arrives mid-pause
		},
	}
	_, err := Supervise(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(slept) != 1 {
		t.Fatalf("slept %d times after cancellation, want exactly 1", len(slept))
	}
}

func TestDetectorRetriesSkipBackoff(t *testing.T) {
	// A detector fault means the data is presumed fine: the rebuild retry is
	// documented to run immediately, with no backoff pause.
	s := &simState{}
	fails := 0
	cfg := harness(s, 3, func(k int) error {
		if k == 1 && fails < 2 {
			fails++
			return detectorFault()
		}
		return nil
	})
	rebuilds := 0
	restore := cfg.Restore
	cfg.Restore = func(snap any) error { rebuilds++; return restore(snap) }
	cfg.Policy = Policy{
		MaxRetries: 3,
		Backoff:    time.Second,
		Sleep:      func(time.Duration) { t.Fatal("detector retry slept") },
	}
	o, err := Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.Rebuilds != 2 || rebuilds != 2 {
		t.Errorf("Rebuilds = %d (Restore calls %d), want 2", o.Rebuilds, rebuilds)
	}
	if o.DetectorFaults != 2 || !o.Recovered {
		t.Errorf("DetectorFaults=%d Recovered=%v", o.DetectorFaults, o.Recovered)
	}
}

func TestMixedFaultsOnlyDataRetriesSleep(t *testing.T) {
	// Alternating detector and data faults in one epoch: only the data-fault
	// retries contribute to the backoff schedule, and the schedule still
	// escalates geometrically across them.
	s := &simState{}
	seq := []error{detectorFault(), mismatch(), detectorFault(), mismatch()}
	i := 0
	cfg := harness(s, 1, func(k int) error {
		if i < len(seq) {
			err := seq[i]
			i++
			return err
		}
		return nil
	})
	var slept []time.Duration
	cfg.Policy = Policy{
		MaxRetries:    len(seq),
		Backoff:       4 * time.Millisecond,
		BackoffFactor: 2,
		Sleep:         func(d time.Duration) { slept = append(slept, d) },
	}
	o, err := Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(slept) != 2 || slept[0] != 4*time.Millisecond || slept[1] != 8*time.Millisecond {
		t.Fatalf("slept %v, want [4ms 8ms] (detector retries must not sleep or advance the schedule)", slept)
	}
	if o.Rebuilds != 2 || o.Retries != 4 {
		t.Errorf("Rebuilds=%d Retries=%d, want 2/4", o.Rebuilds, o.Retries)
	}
}

func TestStartEpochSkipsCompletedWork(t *testing.T) {
	s := &simState{}
	cfg := harness(s, 5, nil)
	cfg.StartEpoch = 3
	o, err := Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 4}; len(s.runs) != 2 || s.runs[0] != want[0] || s.runs[1] != want[1] {
		t.Fatalf("runs = %v, want %v", s.runs, want)
	}
	if o.Tainted || o.Detected {
		t.Errorf("outcome = %+v", o)
	}
	// StartEpoch == Epochs runs nothing; out of range is rejected.
	s2 := &simState{}
	cfg2 := harness(s2, 5, nil)
	cfg2.StartEpoch = 5
	if _, err := Supervise(context.Background(), cfg2); err != nil || len(s2.runs) != 0 {
		t.Errorf("StartEpoch==Epochs: err=%v runs=%v", err, s2.runs)
	}
	cfg2.StartEpoch = 6
	if _, err := Supervise(context.Background(), cfg2); err == nil {
		t.Error("StartEpoch > Epochs accepted")
	}
	cfg2.StartEpoch = -1
	if _, err := Supervise(context.Background(), cfg2); err == nil {
		t.Error("negative StartEpoch accepted")
	}
}

func TestRestartReturnsToStartEpoch(t *testing.T) {
	// With StartEpoch set, a full restart must rewind to the start epoch's
	// entry state — the initial checkpoint is taken after the resume — not to
	// an epoch the process never ran.
	s := &simState{value: 30} // resumed state: epochs 0-2 already counted
	fails := 0
	cfg := harness(s, 5, func(k int) error {
		if k == 4 && fails < 3 {
			fails++
			return mismatch()
		}
		return nil
	})
	cfg.StartEpoch = 3
	cfg.Policy = Policy{MaxRetries: 1, MaxRestarts: 1}
	// Retry exhausts at epoch 4 (persistent until the 3rd failure), restart
	// rewinds to the initial checkpoint = value 30, then the run completes.
	o, err := Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", o.Restarts)
	}
	if s.value != 32 {
		t.Errorf("final value = %d, want 32 (30 resumed + epochs 3,4)", s.value)
	}
	for _, k := range s.runs {
		if k < 3 {
			t.Fatalf("restart ran epoch %d below StartEpoch: %v", k, s.runs)
		}
	}
	if !o.Recovered {
		t.Errorf("outcome = %+v", o)
	}
}

func TestCommitCalledOnlyOnVerifiedEpochs(t *testing.T) {
	s := &simState{}
	fails := 0
	cfg := harness(s, 4, func(k int) error {
		if k == 1 && fails < 1 {
			fails++
			return mismatch()
		}
		return nil
	})
	var committed []int
	cfg.Commit = func(k int) error { committed = append(committed, k); return nil }
	cfg.Policy = Policy{MaxRetries: 2}
	if _, err := Supervise(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3}; len(committed) != len(want) {
		t.Fatalf("committed %v, want %v", committed, want)
	}
	for i, k := range committed {
		if k != i {
			t.Fatalf("committed %v out of order", committed)
		}
	}
}

func TestCommitFailureIsTerminal(t *testing.T) {
	s := &simState{}
	cfg := harness(s, 4, nil)
	sentinel := errors.New("disk full")
	cfg.Commit = func(k int) error {
		if k == 2 {
			return sentinel
		}
		return nil
	}
	_, err := Supervise(context.Background(), cfg)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the commit failure", err)
	}
	if len(s.runs) != 3 {
		t.Errorf("runs = %v, want exactly epochs 0-2", s.runs)
	}
}

func TestDegradedEpochIsNotCommitted(t *testing.T) {
	// Retries and restarts exhausted at epoch 1: the run degrades and epoch 1
	// completes unverified. That epoch must never be committed — a durable
	// record implies a verified boundary.
	s := &simState{}
	cfg := harness(s, 3, func(k int) error {
		if k == 1 {
			return mismatch() // persistent: never verifies
		}
		return nil
	})
	var committed []int
	cfg.Commit = func(k int) error { committed = append(committed, k); return nil }
	cfg.Policy = Policy{MaxRetries: 1, MaxRestarts: 0}
	o, err := Supervise(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Tainted {
		t.Fatal("run did not degrade")
	}
	for _, k := range committed {
		if k == 1 {
			t.Fatalf("unverified epoch 1 was committed: %v", committed)
		}
	}
}
