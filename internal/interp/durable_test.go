package interp

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"defuse/internal/recovery"
)

func durableWALPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "machine.wal")
}

func TestSuperviseDurableCleanRunMatchesSupervise(t *testing.T) {
	ref, rp := planFor(t, epochTestSrc, 12, 4)
	if _, err := rp.Supervise(context.Background(), recovery.DefaultPolicy()); err != nil {
		t.Fatal(err)
	}

	m, p := planFor(t, epochTestSrc, 12, 4)
	path := durableWALPath(t)
	out, err := p.SuperviseDurable(context.Background(), recovery.DefaultPolicy(), path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Resumed || out.Seals != 4 || out.Detected {
		t.Errorf("outcome = %+v, want 4 seals, no resume, clean", out)
	}
	refA, _ := ref.SnapshotFloats("A")
	gotA, _ := m.SnapshotFloats("A")
	for i := range refA {
		if gotA[i] != refA[i] {
			t.Fatalf("A[%d] = %v, want %v", i, gotA[i], refA[i])
		}
	}
	if *m.Pair() != *ref.Pair() {
		t.Error("checksum pair diverged from the in-memory supervised run")
	}
}

func TestSuperviseDurableResumesAcrossMachines(t *testing.T) {
	const n, epochs = 12, 4
	path := durableWALPath(t)

	// First machine runs only epochs 0 and 1 under durable commits, then is
	// abandoned — the moral equivalent of SIGKILL after two seals (each seal
	// is fsynced before the epoch is reported complete). Cancelling during
	// epoch 1 lets it finish and seal; the supervisor then refuses epoch 2.
	mr, pr := planFor(t, epochTestSrc, n, epochs)
	var epoch0Exit uint64
	mr.SetStepHook(func(step uint64) { epoch0Exit = step })
	if err := pr.RunEpoch(0); err != nil {
		t.Fatal(err)
	}
	m1, p1 := planFor(t, epochTestSrc, n, epochs)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m1.SetStepHook(func(step uint64) {
		if step > epoch0Exit {
			cancel()
		}
	})
	out1, err := p1.SuperviseDurable(ctx, recovery.DefaultPolicy(), path)
	if !errors.Is(err, context.Canceled) || out1.Seals != 2 {
		t.Fatalf("interrupted run: seals %d, err %v; want 2 seals and context.Canceled", out1.Seals, err)
	}

	// A brand-new process: fresh machine, same program and parameters. It
	// must resume at epoch 2 and finish byte-identical to an uninterrupted
	// run — memory words, accumulators, and shadow copies.
	m2, p2 := planFor(t, epochTestSrc, n, epochs)
	out, err := p2.SuperviseDurable(context.Background(), recovery.DefaultPolicy(), path)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Resumed || out.ResumeEpoch != 2 {
		t.Fatalf("Resumed=%v ResumeEpoch=%d, want resume at epoch 2", out.Resumed, out.ResumeEpoch)
	}

	ref, rp := planFor(t, epochTestSrc, n, epochs)
	runAll(t, rp)
	refA, _ := ref.SnapshotFloats("A")
	gotA, _ := m2.SnapshotFloats("A")
	for i := range refA {
		if gotA[i] != refA[i] {
			t.Fatalf("A[%d] = %v, want %v", i, gotA[i], refA[i])
		}
	}
	if *m2.Pair() != *ref.Pair() {
		t.Error("resumed pair (accumulators or shadows) differs from uninterrupted run")
	}
	for name, want := range map[string]float64{"first": 123.0, "last": 456.0} {
		if got, _ := m2.Float(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestSuperviseDurableRefusesForeignProgram(t *testing.T) {
	path := durableWALPath(t)
	_, p1 := planFor(t, epochTestSrc, 12, 4)
	if _, err := p1.SuperviseDurable(context.Background(), recovery.DefaultPolicy(), path); err != nil {
		t.Fatal(err)
	}
	// Same file, different parameters: the fingerprint differs, so nothing
	// resumes and the run completes from scratch.
	m2, p2 := planFor(t, epochTestSrc, 8, 4)
	out, err := p2.SuperviseDurable(context.Background(), recovery.DefaultPolicy(), path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Resumed {
		t.Fatal("resumed from a checkpoint of a different configuration")
	}
	if out.CorruptRecords == 0 {
		t.Error("foreign records not reported")
	}
	if got, _ := m2.Float("A", 7); got != 7*3.0+1.0 {
		t.Errorf("A[7] = %v after fresh run", got)
	}
}

func TestSuperviseDurableSurvivesDiskBitFlip(t *testing.T) {
	const n, epochs = 12, 4
	path := durableWALPath(t)
	_, p1 := planFor(t, epochTestSrc, n, epochs)
	if _, err := p1.SuperviseDurable(context.Background(), recovery.DefaultPolicy(), path); err != nil {
		t.Fatal(err)
	}
	// Strike the parked log: one bit in the newest frame.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-9] ^= 0x08
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, p2 := planFor(t, epochTestSrc, n, epochs)
	out, err := p2.SuperviseDurable(context.Background(), recovery.DefaultPolicy(), path)
	if err != nil {
		t.Fatal(err)
	}
	if out.CorruptRecords == 0 {
		t.Error("disk bit flip not reported as a corrupt record")
	}
	// Whether it resumed from an older record or started fresh, the final
	// state must be the uninterrupted one — never silently wrong.
	ref, rp := planFor(t, epochTestSrc, n, epochs)
	runAll(t, rp)
	refA, _ := ref.SnapshotFloats("A")
	gotA, _ := m2.SnapshotFloats("A")
	for i := range refA {
		if gotA[i] != refA[i] {
			t.Fatalf("A[%d] = %v, want %v", i, gotA[i], refA[i])
		}
	}
	if *m2.Pair() != *ref.Pair() {
		t.Error("pair differs after disk-fault recovery")
	}
}

func TestFingerprintDistinguishesConfigurations(t *testing.T) {
	_, p1 := planFor(t, epochTestSrc, 12, 4)
	_, p2 := planFor(t, epochTestSrc, 12, 4)
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Error("identical configurations fingerprint differently")
	}
	_, p3 := planFor(t, epochTestSrc, 13, 4)
	if p1.Fingerprint() == p3.Fingerprint() {
		t.Error("different parameters share a fingerprint")
	}
	_, p4 := planFor(t, epochTestSrc, 12, 5)
	if p1.Fingerprint() == p4.Fingerprint() {
		t.Error("different epoch counts share a fingerprint")
	}
	m5 := mustMachine(t, epochTestSrc, map[string]int64{"n": 12}, WithBaseOffset(3))
	p5, err := m5.PlanEpochs(4)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fingerprint() == p5.Fingerprint() {
		t.Error("different base offsets share a fingerprint")
	}
}
