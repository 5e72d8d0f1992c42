package bench

import (
	"os"
	"testing"
)

// TestCommittedLedger reads the repo's BENCH_overhead.json the way every
// merge does and requires each block the documents cite: a cost-model row
// and a native row per Table 2 kernel, the service and soak results, and the
// detection-backend comparison.
func TestCommittedLedger(t *testing.T) {
	f, err := os.Open("../../BENCH_overhead.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := ParseOverheadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	rows, native := map[string]int{}, map[string]int{}
	for _, r := range rep.Rows {
		rows[r.Bench]++
	}
	for _, r := range rep.Native {
		native[r.Bench]++
	}
	for _, b := range Suite() {
		if rows[b.Name] != 1 {
			t.Errorf("rows has %d entries for %s, want 1", rows[b.Name], b.Name)
		}
		if native[b.Name] != 1 {
			t.Errorf("native has %d entries for %s, want 1", native[b.Name], b.Name)
		}
	}
	if len(rep.Rows) != len(Suite()) || len(rep.Native) != len(Suite()) {
		t.Errorf("%d rows and %d native rows, want %d each", len(rep.Rows), len(rep.Native), len(Suite()))
	}
	if rep.Service == nil {
		t.Error("no service block")
	}
	if rep.Soak == nil {
		t.Error("no soak block")
	}
	if len(rep.Backends) == 0 {
		t.Error("no backends block")
	}
}
