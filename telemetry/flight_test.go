package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestFlightRecorderWraparound(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 20; i++ {
		f.RecordSpan(SpanData{Name: "e", ID: SpanID(i + 1)})
	}
	if f.Len() != 20 {
		t.Fatalf("Len = %d, want 20", f.Len())
	}
	snap := f.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("snapshot holds %d entries, ring size 8", len(snap))
	}
	// The ring keeps the newest 8 (seq 12..19), oldest-first.
	for i, e := range snap {
		if want := uint64(12 + i); e.Seq != want {
			t.Errorf("entry %d: seq %d, want %d", i, e.Seq, want)
		}
		if want := SpanID(13 + i); e.Span.ID != want {
			t.Errorf("entry %d: span %d, want %d", i, e.Span.ID, want)
		}
	}
}

// TestFlightRecorderConcurrent exercises wraparound from many goroutines; the
// interesting assertions run under -race (ci's race job), where any unsynced
// slot access would be reported.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(16)
	const writers, per = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader: Snapshot must be wait-free and race-clean
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				f.Snapshot()
			}
		}
	}()
	var writersDone sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersDone.Add(1)
		go func(w int) {
			defer writersDone.Done()
			for i := 0; i < per; i++ {
				f.RecordSpan(SpanData{Name: "span", ID: SpanID(w*per + i)})
			}
		}(w)
	}
	writersDone.Wait()
	close(stop)
	wg.Wait()

	if f.Len() != writers*per {
		t.Fatalf("Len = %d, want %d", f.Len(), writers*per)
	}
	snap := f.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("snapshot holds %d entries, ring size 16", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq <= snap[i-1].Seq {
			t.Errorf("snapshot not seq-ordered: %d after %d", snap[i].Seq, snap[i-1].Seq)
		}
	}
}

func TestFlightRecorderAutoDump(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.json")
	f := NewFlightRecorder(32)
	f.SetDump(path)

	f.RecordSpan(SpanData{Name: EvVerifyOK})
	if _, dumped := f.Dumped(); dumped {
		t.Fatal("dump fired on a non-trigger span")
	}
	f.RecordSpan(SpanData{Name: EvVerifyMismatch, Attrs: []Attr{Int("epoch", 3)}})
	trigger, dumped := f.Dumped()
	if !dumped || trigger != EvVerifyMismatch {
		t.Fatalf("Dumped() = %q,%v after a mismatch", trigger, dumped)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump FlightDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Schema != FlightDumpSchema || dump.Trigger != EvVerifyMismatch {
		t.Errorf("dump header = %q/%q", dump.Schema, dump.Trigger)
	}
	if len(dump.Entries) != 2 || dump.Entries[1].Span.Name != EvVerifyMismatch ||
		dump.Entries[1].Span.Attr("epoch") != float64(3) {
		t.Errorf("dump entries = %+v, want the two spans, trigger last", dump.Entries)
	}

	// The first postmortem wins: later triggers must not overwrite it.
	if err := os.WriteFile(path, []byte("sentinel"), 0o644); err != nil {
		t.Fatal(err)
	}
	f.RecordSpan(SpanData{Name: EvDetectorFault})
	got, _ := os.ReadFile(path)
	if string(got) != "sentinel" {
		t.Error("second trigger overwrote the first postmortem")
	}
	if trigger, _ := f.Dumped(); trigger != EvVerifyMismatch {
		t.Errorf("Dumped() trigger rewritten to %q", trigger)
	}
}

func TestFlightRecorderCustomTriggers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.json")
	f := NewFlightRecorder(4)
	f.SetDump(path, "custom.alarm")
	f.RecordSpan(SpanData{Name: EvVerifyMismatch}) // default trigger no longer armed
	if _, dumped := f.Dumped(); dumped {
		t.Fatal("default trigger fired despite custom trigger set")
	}
	f.RecordSpan(SpanData{Name: "custom.alarm"})
	if trigger, dumped := f.Dumped(); !dumped || trigger != "custom.alarm" {
		t.Fatalf("Dumped() = %q,%v", trigger, dumped)
	}
}

func TestFlightDumpToKeepsRing(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(8)
	for i := 0; i < 3; i++ {
		f.RecordSpan(SpanData{Name: fmt.Sprintf("e%d", i)})
	}
	for _, name := range []string{"a.json", "b.json"} {
		p := filepath.Join(dir, name)
		if err := f.DumpTo(p, "test"); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var dump FlightDump
		if err := json.Unmarshal(raw, &dump); err != nil {
			t.Fatal(err)
		}
		if len(dump.Entries) != 3 {
			t.Errorf("%s: %d entries, want 3", name, len(dump.Entries))
		}
	}
}
