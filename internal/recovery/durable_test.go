package recovery

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"defuse/internal/wal"
	"defuse/telemetry"
)

// durState is a minimal durable computation: epoch k adds k+1 to the value,
// so a run of n epochs ends at n(n+1)/2 regardless of where it resumed. Its
// binary form carries a multiplicative digest so tampered bytes are refused.
type durState struct {
	value uint64
	runs  []int
}

func (s *durState) encode() ([]byte, error) {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, s.value)
	binary.LittleEndian.PutUint64(b[8:], s.value*0x9e3779b97f4a7c15+1)
	return b, nil
}

var errBadDigest = errors.New("durState digest mismatch")

func (s *durState) decode(b []byte) error {
	if len(b) != 16 {
		return fmt.Errorf("durState of %d bytes: %w", len(b), errBadDigest)
	}
	v := binary.LittleEndian.Uint64(b)
	if binary.LittleEndian.Uint64(b[8:]) != v*0x9e3779b97f4a7c15+1 {
		return errBadDigest
	}
	s.value = v
	return nil
}

const testFingerprint = 0xfeedc0de

// durable builds a DurableSupervisor over a durState. failAt, when >= 0,
// makes that epoch's Run return a terminal (ClassNone) error — simulating a
// process that dies mid-run as far as the log is concerned.
func durable(s *durState, path string, epochs, failAt int) *DurableSupervisor {
	return &DurableSupervisor{
		Config: Config{
			Epochs: epochs,
			Run: func(k int) error {
				if k == failAt {
					return fmt.Errorf("terminal failure at epoch %d", k)
				}
				s.runs = append(s.runs, k)
				s.value += uint64(k + 1)
				return nil
			},
			Checkpoint: func() any { return s.value },
			Restore: func(snap any) error {
				s.value = snap.(uint64)
				return nil
			},
		},
		Path:        path,
		Fingerprint: testFingerprint,
		EncodeState: s.encode,
		DecodeState: s.decode,
	}
}

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "epochs.wal")
}

func finalValue(epochs int) uint64 { return uint64(epochs * (epochs + 1) / 2) }

func TestDurableFreshRunSealsEveryEpoch(t *testing.T) {
	path := walPath(t)
	s := &durState{}
	trace := telemetry.NewSpanBuffer(0)
	d := durable(s, path, 5, -1)
	d.Tracer = telemetry.NewTracer(trace)
	d.Metrics = telemetry.NewRegistry()
	out, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Resumed || out.ResumeEpoch != 0 {
		t.Errorf("fresh run reported resume: %+v", out)
	}
	if out.Seals != 5 {
		t.Errorf("Seals = %d, want 5", out.Seals)
	}
	if s.value != finalValue(5) {
		t.Errorf("value = %d, want %d", s.value, finalValue(5))
	}
	if n := len(trace.Named("wal.seal")); n != 5 {
		t.Errorf("wal.seal spans = %d, want 5", n)
	}
	// The recovery scan runs on a fresh log too, but resumes nothing.
	if rec := trace.Named("wal.recover"); len(rec) != 1 || rec[0].Attr("epoch") != nil {
		t.Errorf("wal.recover spans = %+v, want one without a resume epoch", rec)
	}
	// The log itself holds 5 sealed, scannable records.
	scan, err := wal.Recover(path)
	if err != nil || len(scan.Records) != 5 {
		t.Fatalf("scan: %d records, err %v", len(scan.Records), err)
	}
}

func TestDurableResumeAfterMidRunDeath(t *testing.T) {
	path := walPath(t)
	// First incarnation dies (terminal error) entering epoch 3: epochs 0-2
	// are sealed in the log.
	s1 := &durState{}
	if _, err := durable(s1, path, 6, 3).Run(context.Background()); err == nil {
		t.Fatal("first incarnation did not fail")
	}

	// Second incarnation starts from zero state, resumes from the log, and
	// must finish with the exact uninterrupted result without re-running
	// epochs 0-2.
	s2 := &durState{}
	trace := telemetry.NewSpanBuffer(0)
	d := durable(s2, path, 6, -1)
	d.Tracer = telemetry.NewTracer(trace)
	out, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Resumed || out.ResumeEpoch != 3 {
		t.Fatalf("Resumed=%v ResumeEpoch=%d, want resume at 3", out.Resumed, out.ResumeEpoch)
	}
	if s2.value != finalValue(6) {
		t.Errorf("resumed value = %d, want %d", s2.value, finalValue(6))
	}
	if want := []int{3, 4, 5}; len(s2.runs) != len(want) {
		t.Errorf("resumed incarnation ran epochs %v, want %v", s2.runs, want)
	}
	if rec := trace.Named("wal.recover"); len(rec) != 1 ||
		rec[0].Attr("epoch") != int64(3) || rec[0].Attr("records") != int64(3) {
		t.Errorf("wal.recover spans = %+v, want one resuming epoch 3 from record 3", rec)
	}
	if out.Seals != 3 {
		t.Errorf("Seals = %d, want 3 (only the completed epochs)", out.Seals)
	}
}

func TestDurableResumeOfCompletedRunRunsNothing(t *testing.T) {
	path := walPath(t)
	s1 := &durState{}
	if _, err := durable(s1, path, 4, -1).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2 := &durState{}
	out, err := durable(s2, path, 4, -1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Resumed || out.ResumeEpoch != 4 {
		t.Fatalf("Resumed=%v ResumeEpoch=%d, want 4", out.Resumed, out.ResumeEpoch)
	}
	if len(s2.runs) != 0 {
		t.Errorf("completed run re-executed epochs %v", s2.runs)
	}
	if s2.value != finalValue(4) {
		t.Errorf("value = %d, want %d", s2.value, finalValue(4))
	}
}

func TestDurableCorruptNewestRecordFallsBackOneEpoch(t *testing.T) {
	path := walPath(t)
	s1 := &durState{}
	if _, err := durable(s1, path, 5, -1).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A disk bit flip lands in the newest frame's CRC trailer.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := &durState{}
	trace := telemetry.NewSpanBuffer(0)
	d := durable(s2, path, 5, -1)
	d.Tracer = telemetry.NewTracer(trace)
	out, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Resumed || out.ResumeEpoch != 4 {
		t.Fatalf("Resumed=%v ResumeEpoch=%d, want fall back to epoch 4", out.Resumed, out.ResumeEpoch)
	}
	if out.CorruptRecords == 0 {
		t.Error("corrupt record not counted")
	}
	corrupt, rec := trace.Named(telemetry.EvWALCorrupt), trace.Named("wal.recover")
	if len(corrupt) == 0 || len(rec) != 1 || corrupt[0].Parent != rec[0].ID {
		t.Errorf("wal.corrupt spans %+v, want at least one under wal.recover %+v", corrupt, rec)
	}
	if s2.value != finalValue(5) {
		t.Errorf("value = %d, want %d (epoch 4 re-run from the older record)", s2.value, finalValue(5))
	}
	if want := []int{4}; len(s2.runs) != 1 || s2.runs[0] != want[0] {
		t.Errorf("resumed incarnation ran %v, want %v", s2.runs, want)
	}
}

func TestDurableDigestFailureFallsBackOlderRecord(t *testing.T) {
	// A record whose WAL frame CRC is intact but whose application payload
	// fails its own digest — the frame was written from already-corrupt
	// state, or the payload was tampered and the CRC recomputed. The decoder
	// refuses it and resume falls back to the strictly older sealed record.
	path := walPath(t)
	l, err := wal.Create(path, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := &durState{value: 3} // state after epochs 0,1 of the 3-epoch run
	app, _ := good.encode()
	payload := make([]byte, durableRecordHeader+len(app))
	binary.LittleEndian.PutUint64(payload, testFingerprint)
	binary.LittleEndian.PutUint64(payload[8:], 2)
	copy(payload[durableRecordHeader:], app)
	if err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	// Newest record: valid frame, poisoned app digest.
	bad := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint64(bad[8:], 3)
	bad[len(bad)-3] ^= 0x01
	if err := l.Append(bad); err != nil {
		t.Fatal(err)
	}
	l.Close()

	s := &durState{}
	out, err := durable(s, path, 3, -1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Resumed || out.ResumeEpoch != 2 {
		t.Fatalf("Resumed=%v ResumeEpoch=%d, want the older record's epoch 2", out.Resumed, out.ResumeEpoch)
	}
	if out.CorruptRecords != 1 {
		t.Errorf("CorruptRecords = %d, want 1", out.CorruptRecords)
	}
	if s.value != finalValue(3) {
		t.Errorf("value = %d, want %d", s.value, finalValue(3))
	}
	// The refused record must have been rewritten away: a later scan sees
	// only sealed records that decode.
	scan, err := wal.Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range scan.Records {
		probe := &durState{}
		if len(r.Payload) < durableRecordHeader {
			t.Fatalf("short record survived rewrite")
		}
		if derr := probe.decode(r.Payload[durableRecordHeader:]); derr != nil {
			t.Fatalf("poisoned record survived rewrite: %v", derr)
		}
	}
}

func TestDurableFingerprintMismatchStartsFresh(t *testing.T) {
	path := walPath(t)
	s1 := &durState{}
	if _, err := durable(s1, path, 3, -1).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2 := &durState{}
	d := durable(s2, path, 3, -1)
	d.Fingerprint = testFingerprint + 1 // different program/params
	out, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Resumed {
		t.Fatal("resumed from a foreign workload's checkpoint")
	}
	if out.CorruptRecords == 0 {
		t.Error("foreign records not reported")
	}
	if s2.value != finalValue(3) || len(s2.runs) != 3 {
		t.Errorf("fresh run: value=%d runs=%v", s2.value, s2.runs)
	}
}

func TestDurableTornTailResumesFromLastSeal(t *testing.T) {
	path := walPath(t)
	s1 := &durState{}
	if _, err := durable(s1, path, 4, 2).Run(context.Background()); err == nil {
		t.Fatal("first incarnation did not fail")
	}
	// The process died mid-append: a truncated frame sits at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0x02, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := &durState{}
	out, err := durable(s2, path, 4, -1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.TornTail {
		t.Error("torn tail not reported")
	}
	if !out.Resumed || out.ResumeEpoch != 2 {
		t.Fatalf("Resumed=%v ResumeEpoch=%d, want 2", out.Resumed, out.ResumeEpoch)
	}
	if s2.value != finalValue(4) {
		t.Errorf("value = %d, want %d", s2.value, finalValue(4))
	}
}

func TestDurableValidation(t *testing.T) {
	s := &durState{}
	d := durable(s, "", 3, -1)
	if _, err := d.Run(context.Background()); err == nil {
		t.Error("empty Path accepted")
	}
	d = durable(s, walPath(t), 3, -1)
	d.Config.Commit = func(int) error { return nil }
	if _, err := d.Run(context.Background()); err == nil {
		t.Error("caller-supplied Commit accepted")
	}
	d = durable(s, walPath(t), 3, -1)
	d.Config.StartEpoch = 1
	if _, err := d.Run(context.Background()); err == nil {
		t.Error("caller-supplied StartEpoch accepted")
	}
}

func TestDurableRecoversDataFaultAndStillSeals(t *testing.T) {
	// A transient data fault inside an epoch rolls back and retries as usual;
	// the durable layer seals only the verified attempt.
	path := walPath(t)
	s := &durState{}
	d := durable(s, path, 4, -1)
	faulted := false
	d.Config.Verify = func(k int) error {
		if k == 2 && !faulted {
			faulted = true
			return mismatch()
		}
		return nil
	}
	d.Policy = Policy{MaxRetries: 2, MaxRestarts: 1}
	out, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Recovered || out.Retries != 1 {
		t.Errorf("Recovered=%v Retries=%d, want recovery with one retry", out.Recovered, out.Retries)
	}
	if out.Seals != 4 {
		t.Errorf("Seals = %d, want 4 (one per verified epoch)", out.Seals)
	}
	if s.value != finalValue(4) {
		t.Errorf("value = %d, want %d", s.value, finalValue(4))
	}
}
