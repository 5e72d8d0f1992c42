package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func logPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "checkpoint.wal")
}

func mustCreate(t *testing.T, path string, opts Options) *Log {
	t.Helper()
	l, err := Create(path, opts)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return l
}

func appendN(t *testing.T, l *Log, n int) [][]byte {
	t.Helper()
	var payloads [][]byte
	for i := 0; i < n; i++ {
		p := []byte(fmt.Sprintf("record-%d-%s", i, string(bytes.Repeat([]byte{byte(i)}, 16))))
		if err := l.Append(p); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		payloads = append(payloads, p)
	}
	return payloads
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	path := logPath(t)
	l := mustCreate(t, path, Options{})
	payloads := appendN(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s, err := Recover(path)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(s.Records) != 5 || s.TornTail || s.Corrupt != 0 {
		t.Fatalf("scan = %d records, torn=%v corrupt=%d; want 5 clean", len(s.Records), s.TornTail, s.Corrupt)
	}
	for i, r := range s.Records {
		if !bytes.Equal(r.Payload, payloads[i]) {
			t.Errorf("record %d payload mismatch", i)
		}
		if r.Seq != uint32(i) {
			t.Errorf("record %d seq = %d", i, r.Seq)
		}
	}
	if got := s.Newest().Payload; !bytes.Equal(got, payloads[4]) {
		t.Errorf("Newest = %q, want %q", got, payloads[4])
	}
}

func TestRecoverMissingAndEmpty(t *testing.T) {
	if _, err := Recover(filepath.Join(t.TempDir(), "nope.wal")); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("missing file: err = %v, want ErrNoCheckpoint", err)
	}
	path := logPath(t)
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(path); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("empty file: err = %v, want ErrNoCheckpoint", err)
	}
	// A log that died before any record was sealed is also "no checkpoint".
	l := mustCreate(t, path, Options{})
	l.Close()
	if _, err := Recover(path); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("header-only file: err = %v, want ErrNoCheckpoint", err)
	}
}

func TestTornTailFallsBackToPreviousRecord(t *testing.T) {
	path := logPath(t)
	l := mustCreate(t, path, Options{})
	payloads := appendN(t, l, 3)
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-way through the final frame, at every possible torn
	// length from "one byte missing" down to "only the header byte of the
	// frame present".
	lastFrame := frameHeaderSize + len(payloads[2]) + frameTrailerSize
	for cut := 1; cut < lastFrame; cut++ {
		torn := raw[:len(raw)-cut]
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Recover(path)
		if err != nil {
			t.Fatalf("cut %d: Recover: %v", cut, err)
		}
		if !s.TornTail {
			t.Fatalf("cut %d: torn tail not flagged", cut)
		}
		if len(s.Records) != 2 || !bytes.Equal(s.Newest().Payload, payloads[1]) {
			t.Fatalf("cut %d: fell back to %d records, want previous sealed record", cut, len(s.Records))
		}
	}
}

func TestTornFirstFrameMeansNoCheckpoint(t *testing.T) {
	path := logPath(t)
	l := mustCreate(t, path, Options{})
	appendN(t, l, 1)
	l.Close()
	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Recover(path)
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
	if !s.TornTail {
		t.Error("torn tail not flagged")
	}
}

func TestBitFlipClassifiedCorrupt(t *testing.T) {
	path := logPath(t)
	l := mustCreate(t, path, Options{})
	payloads := appendN(t, l, 3)
	l.Close()
	raw, _ := os.ReadFile(path)

	// Flip one bit in every byte position of the final frame in turn: each
	// must either be classified corrupt (falling back to an older record) or
	// — never — silently alter the recovered payload.
	lastFrame := frameHeaderSize + len(payloads[2]) + frameTrailerSize
	start := len(raw) - lastFrame
	for pos := start; pos < len(raw); pos++ {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x10
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Recover(path)
		if err != nil {
			t.Fatalf("pos %d: recover failed entirely: %v", pos, err)
		}
		newest := s.Newest()
		if bytes.Equal(newest.Payload, payloads[2]) {
			t.Fatalf("pos %d: corrupted frame recovered as valid", pos)
		}
		if !bytes.Equal(newest.Payload, payloads[1]) {
			t.Fatalf("pos %d: unexpected newest payload %q", pos, newest.Payload)
		}
		// A flip in the length prefix can masquerade as a torn tail; any
		// other flip must be counted as corruption.
		if s.Corrupt == 0 && !s.TornTail {
			t.Fatalf("pos %d: flip neither corrupt nor torn", pos)
		}
	}
}

func TestBitFlipOnlyRecordIsCorruptNotWrong(t *testing.T) {
	path := logPath(t)
	l := mustCreate(t, path, Options{})
	appendN(t, l, 1)
	l.Close()
	raw, _ := os.ReadFile(path)
	mut := append([]byte(nil), raw...)
	mut[len(mut)-2] ^= 0x04 // inside the CRC trailer
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
	}
}

func TestBadMagicIsCorrupt(t *testing.T) {
	path := logPath(t)
	l := mustCreate(t, path, Options{})
	appendN(t, l, 2)
	l.Close()
	raw, _ := os.ReadFile(path)
	raw[3] ^= 0x80
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
	}
}

func TestOpenTruncatesTornTailAndContinues(t *testing.T) {
	path := logPath(t)
	l := mustCreate(t, path, Options{})
	payloads := appendN(t, l, 2)
	l.Close()
	raw, _ := os.ReadFile(path)
	// Tear the second record, then continue the log through Open: the torn
	// bytes must be truncated away so the resumed log scans cleanly.
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Recover(path)
	if err != nil || len(s.Records) != 1 {
		t.Fatalf("Recover after tear: %d records, err %v", len(s.Records), err)
	}
	l2, err := Open(s, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := l2.Append([]byte("after-resume")); err != nil {
		t.Fatalf("Append after resume: %v", err)
	}
	l2.Close()

	s2, err := Recover(path)
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	if len(s2.Records) != 2 || s2.TornTail || s2.Corrupt != 0 {
		t.Fatalf("resumed log: %d records torn=%v corrupt=%d", len(s2.Records), s2.TornTail, s2.Corrupt)
	}
	if !bytes.Equal(s2.Records[0].Payload, payloads[0]) {
		t.Error("surviving record changed across resume")
	}
	if string(s2.Newest().Payload) != "after-resume" {
		t.Errorf("newest = %q", s2.Newest().Payload)
	}
	// Sequence numbers keep ascending across the torn record's retry slot.
	if s2.Newest().Seq != 1 {
		t.Errorf("resumed seq = %d, want 1", s2.Newest().Seq)
	}
}

func TestWriteFileAtomicReplacesAndCleansTmp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A leftover truncated temp file from a killed writer must not matter.
	if err := os.WriteFile(path+".tmp", []byte(`{"trunc`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new-contents"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "new-contents" {
		t.Fatalf("read back %q, err %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp file left behind: %v", err)
	}
}
