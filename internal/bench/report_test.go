package bench

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

func sampleRows() ([]Figure10Row, []Figure11Row) {
	rows10 := []Figure10Row{
		{Bench: "jacobi", ResilientOps: 1.8, OptimizedOps: 1.4},
		{Bench: "cg", ResilientOps: 2.0, OptimizedOps: 1.5},
	}
	rows11 := []Figure11Row{
		{Bench: "jacobi", HWEstimate: 1.05},
		{Bench: "cg", HWEstimate: 1.10},
	}
	return rows10, rows11
}

func TestOverheadReportRoundTrip(t *testing.T) {
	rows10, rows11 := sampleRows()
	rep, err := BuildOverheadReport(rows10, rows11, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != OverheadSchema || len(rep.Rows) != 2 {
		t.Fatalf("report = %+v, want schema %s with 2 rows", rep, OverheadSchema)
	}
	if rep.Rows[0].HWEstimate != 1.05 || rep.Rows[1].HWEstimate != 1.10 {
		t.Errorf("hw estimates not merged: %+v", rep.Rows)
	}
	rg, og := GeoMeans(rows10)
	if rep.Geomean.ResilientOps != rg || rep.Geomean.OptimizedOps != og {
		t.Errorf("geomean = %+v, want %v/%v", rep.Geomean, rg, og)
	}
	if rep.Geomean.HWEstimate <= 1.05 || rep.Geomean.HWEstimate >= 1.10 {
		t.Errorf("hw geomean %v not between row values", rep.Geomean.HWEstimate)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseOverheadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 2 || back.Rows[1].Bench != "cg" || back.Scale != 0.5 {
		t.Errorf("round-trip mismatch: %+v", back)
	}

	// Older v5 reports may carry a scaling block, which no field holds any
	// more: the report still parses, and rewriting it drops the block.
	old := `{"schema":"` + OverheadSchema + `","scale":0.004,` +
		`"rows":[{"bench":"dsyrk","resilient_ops":1.5}],` +
		`"scaling":[{"bench":"dsyrk","workers":2,"seconds":0.1,"speedup":1.9,` +
		`"critical_path_ops":100,"ops_speedup":1.95,"verified":true}]}`
	oldRep, err := ParseOverheadReport(strings.NewReader(old))
	if err != nil {
		t.Fatalf("report with a scaling block: %v", err)
	}
	buf.Reset()
	if err := oldRep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if len(oldRep.Rows) != 1 || strings.Contains(buf.String(), "scaling") {
		t.Errorf("old report rewritten as %s, want one row and no scaling block", buf.String())
	}
}

func TestBuildOverheadReportValidation(t *testing.T) {
	rows10, rows11 := sampleRows()
	if _, err := BuildOverheadReport(rows10, rows11[:1], 1); err == nil {
		t.Error("mismatched row counts not rejected")
	}
	bad := append([]Figure11Row(nil), rows11...)
	bad[1].Bench = "other"
	if _, err := BuildOverheadReport(rows10, bad, 1); err == nil {
		t.Error("mismatched bench names not rejected")
	}
}

// Merging the native block must install it while leaving every other block
// of the document untouched.
func TestMergeNativeRows(t *testing.T) {
	path := t.TempDir() + "/report.json"
	doc := `{"schema":"` + OverheadSchema + `","scale":0.004,` +
		`"rows":[{"bench":"x","resilient_ops":1.5}],` +
		`"service":{"streams":4,"requests":100}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	rows := []NativeRow{{Bench: "x", OriginalSeconds: 0.001, ResilientTime: 4.5, OptimizedTime: 5.0, Reps: 50}}
	if err := MergeReport(path, func(r *OverheadReport) { r.Native = rows }, func(p string, b []byte) error {
		return os.WriteFile(p, b, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := ParseOverheadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Native) != 1 || rep.Native[0].ResilientTime != 4.5 || rep.Native[0].Reps != 50 {
		t.Errorf("native block not installed: %+v", rep.Native)
	}
	if rep.Service == nil || rep.Service.Streams != 4 {
		t.Errorf("service block lost in merge: %+v", rep.Service)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].ResilientOps != 1.5 {
		t.Errorf("interp rows lost in merge: %+v", rep.Rows)
	}
}

// Merging the soak block installs it while leaving every other block
// untouched, and its zero-valued violation columns must
// survive the round trip (they are the gate's evidence).
func TestMergeSoakRow(t *testing.T) {
	path := t.TempDir() + "/report.json"
	doc := `{"schema":"` + OverheadSchema + `","scale":0.004,` +
		`"rows":[{"bench":"x","resilient_ops":1.5}],` +
		`"service":{"streams":4,"requests":100}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	row := SoakRow{
		Seed: 9, DurationSeconds: 30, Kills: 3, Pauses: 1, TornWrites: 1,
		BitFlips: 1, WriteFaults: 2, Bursts: 2, Restarts: 4, DegradedN: 5,
		Requests: 1000, Injected: 50, Detected: 50, Recovered: 50,
		JournalLive: 40, JournalSegments: 3, JournalDiskBytes: 9000,
	}
	if err := MergeReport(path, func(r *OverheadReport) { r.Soak = &row }, func(p string, b []byte) error {
		return os.WriteFile(p, b, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := ParseOverheadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Soak == nil || *rep.Soak != row {
		t.Errorf("soak block = %+v, want %+v", rep.Soak, row)
	}
	if rep.Service == nil || rep.Service.Streams != 4 {
		t.Errorf("service block lost in merge: %+v", rep.Service)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].ResilientOps != 1.5 {
		t.Errorf("interp rows lost in merge: %+v", rep.Rows)
	}
	// The violation columns serialize even at zero — a soak row without them
	// would be indistinguishable from one that never audited.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"silent_corruptions", "undetected_faults", "resume_mismatches", "audit_failures"} {
		if !strings.Contains(string(raw), `"`+key+`"`) {
			t.Errorf("serialized soak row missing %q", key)
		}
	}
}

func TestNativeGeoMeans(t *testing.T) {
	rows := []NativeRow{
		{Bench: "a", ResilientTime: 2, OptimizedTime: 4},
		{Bench: "b", ResilientTime: 8, OptimizedTime: 16},
	}
	rg, og := NativeGeoMeans(rows)
	if math.Abs(rg-4) > 1e-9 || math.Abs(og-8) > 1e-9 {
		t.Errorf("geomeans = %v/%v, want 4/8", rg, og)
	}
	if rg, og := NativeGeoMeans(nil); rg != 0 || og != 0 {
		t.Errorf("empty geomeans = %v/%v, want 0/0", rg, og)
	}
}

func TestParseOverheadReportRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"wrong schema": `{"schema":"other/v9","rows":[{"bench":"x"}]}`,
		"old schema":   `{"schema":"defuse/overhead/v4","rows":[{"bench":"x"}]}`,
		"no rows":      `{"schema":"` + OverheadSchema + `","rows":[]}`,
		"not json":     `BENCHMARK jacobi 1.8`,
	}
	for name, in := range cases {
		if _, err := ParseOverheadReport(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted invalid report", name)
		}
	}
}
