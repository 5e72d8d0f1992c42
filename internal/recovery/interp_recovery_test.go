package recovery_test

// End-to-end acceptance for epoch-scoped verification with rollback
// recovery: an instrumented program runs under interp's EpochPlan supervisor,
// a transient bit flip is injected into simulated memory inside epoch k, and
// the mismatch must be caught at epoch k's own boundary (detection latency
// zero) with rollback re-execution restoring the exact fault-free final
// state. This lives outside package recovery because interp imports recovery.

import (
	"context"
	"math"
	"testing"

	"defuse/internal/interp"
	"defuse/internal/lang"
	"defuse/internal/recovery"
	"defuse/telemetry"
)

// epochBalancedSrc is hand-instrumented so every outer-loop iteration is
// checksum-complete: A[i] is defined with use count 1 and consumed once
// within the same iteration, so every iteration-block boundary is a
// post-dominator of the defs and uses inside it (checksum-quiescent).
const epochBalancedSrc = `
program t(n)
float A[n];
for i = 0 to n - 1 {
  A[i] = i * 1.5;
  add_to_chksm(def_cs, A[i], 1);
  add_to_chksm(use_cs, A[i], 1);
  A[i] = A[i] + 2.0;
}
`

// stmtsPerIter is the loop body size: iteration i executes global statements
// i*stmtsPerIter+1 .. i*stmtsPerIter+4 (the plan runs no other statements).
const stmtsPerIter = 4

func newPlan(t *testing.T, n int64, epochs int, opts ...interp.Option) (*interp.Machine, *interp.EpochPlan) {
	t.Helper()
	prog, err := lang.Parse(epochBalancedSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := interp.New(prog, map[string]int64{"n": n}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.PlanEpochs(epochs)
	if err != nil {
		t.Fatal(err)
	}
	return m, plan
}

func checkFinalState(t *testing.T, m *interp.Machine, n int64) {
	t.Helper()
	for i := int64(0); i < n; i++ {
		got, err := m.Float("A", i)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(i)*1.5 + 2.0; got != want {
			t.Errorf("A[%d] = %v, want %v", i, got, want)
		}
	}
	if err := m.Pair().Verify(); err != nil {
		t.Errorf("final checksum mismatch after recovery: %v", err)
	}
}

func TestEpochFaultDetectedAtInjectionEpochAndRecovered(t *testing.T) {
	const (
		n      = 16
		epochs = 4 // 4 iterations per epoch
	)
	for _, injIter := range []int64{0, 6, 11, 15} {
		injEpoch := int(injIter) / (n / epochs)
		sink := telemetry.NewSpanBuffer(0)
		m, plan := newPlan(t, n, epochs, interp.WithTracer(telemetry.NewTracer(sink)))
		base, _, err := m.Region("A")
		if err != nil {
			t.Fatal(err)
		}
		// Flip a bit of A[injIter] between its def-checksum contribution and
		// its use-checksum contribution: the use observes the corrupted
		// value, so the boundary closing the injection epoch must flag it.
		// The step counter is monotonic across rollbacks, so the fault is
		// transient: re-execution does not re-inject.
		target := uint64(injIter)*stmtsPerIter + 3
		m.SetStepHook(func(step uint64) {
			if step == target {
				m.Mem().FlipBit(base+int(injIter), 51)
			}
		})
		out, err := plan.Supervise(context.Background(),
			recovery.Policy{MaxRetries: 2, MaxRestarts: 1})
		if err != nil {
			t.Fatalf("injIter=%d: %v", injIter, err)
		}
		if !out.Detected {
			t.Fatalf("injIter=%d: fault escaped", injIter)
		}
		if out.FirstDetection != injEpoch {
			t.Errorf("injIter=%d: detected at epoch %d, want injection epoch %d (latency 0)",
				injIter, out.FirstDetection, injEpoch)
		}
		if !out.Recovered || out.Tainted {
			t.Errorf("injIter=%d: Recovered=%v Tainted=%v", injIter, out.Recovered, out.Tainted)
		}
		if out.Retries != 1 || out.Restarts != 0 {
			t.Errorf("injIter=%d: Retries=%d Restarts=%d, want one rollback, no restart",
				injIter, out.Retries, out.Restarts)
		}
		checkFinalState(t, m, n)
		if rb := sink.Named("recovery.rollback"); len(rb) != 1 || rb[0].Attr("epoch") != int64(injEpoch) {
			t.Errorf("injIter=%d: recovery.rollback spans = %+v, want one for epoch %d", injIter, rb, injEpoch)
		}
	}
}

func TestEpochCleanRunMatchesPlainExecution(t *testing.T) {
	const n = 10
	// Reference: plain Run.
	ref, _ := newPlan(t, n, 1)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	// Supervised with an epoch count that does not divide the trip count.
	m, plan := newPlan(t, n, 3)
	out, err := plan.Supervise(context.Background(), recovery.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if out.Detected || out.Tainted {
		t.Errorf("clean run outcome = %+v", out)
	}
	checkFinalState(t, m, n)
	refSnap, _ := ref.SnapshotFloats("A")
	snap, _ := m.SnapshotFloats("A")
	for i := range refSnap {
		if refSnap[i] != snap[i] {
			t.Errorf("A[%d]: supervised %v != plain %v", i, snap[i], refSnap[i])
		}
	}
}

func TestEpochCorruptionAfterLastUseOutsideProtectionWindow(t *testing.T) {
	// A flip landing after a word's last use is invisible to verification:
	// its checksum contributions are already closed, and this workload never
	// re-reads the word. The paper's guarantee covers the def-to-last-use
	// window only; the run must complete cleanly with a silently wrong word.
	const (
		n      = 8
		epochs = 4
	)
	m, plan := newPlan(t, n, epochs)
	base, _, err := m.Region("A")
	if err != nil {
		t.Fatal(err)
	}
	// Iteration 2 is in epoch 1 (2 iterations per epoch). Flip its word
	// after the whole iteration completed (before the first statement of
	// iteration 3).
	m.SetStepHook(func(step uint64) {
		if step == 2*stmtsPerIter+stmtsPerIter+1 {
			m.Mem().FlipBit(base+2, 17)
		}
	})
	out, err := plan.Supervise(context.Background(), recovery.Policy{MaxRetries: 2, MaxRestarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A[2] is never read again by this program after its iteration, so the
	// def/use checksums stay balanced: the corruption is undetectable by
	// verification (the paper's scheme protects values between def and last
	// use). The run must complete cleanly but the final state differs.
	if out.Detected {
		// Acceptable only if the flip somehow fed a checksum; this workload
		// never re-reads, so detection here means the harness is wrong.
		t.Fatalf("corruption after last use should be outside the protection window, outcome %+v", out)
	}
	got, _ := m.Float("A", 2)
	want := 2*1.5 + 2.0
	if got == want {
		t.Errorf("A[2] = %v: the injected flip vanished", got)
	}
	if math.Float64bits(got) != math.Float64bits(want)^(1<<17) {
		t.Errorf("A[2] bits = %#x, want the flipped pattern", math.Float64bits(got))
	}
}
