package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"defuse/internal/bench"
)

// A quick native measurement of one benchmark exercises the whole compiled
// path: gennative lookup, machine construction, timing loop, output
// equivalence across variants, and the normalized row.
func TestMeasureNativeOneBench(t *testing.T) {
	b, err := bench.ByName("jacobi1d")
	if err != nil {
		t.Fatal(err)
	}
	row, err := measureNative(b, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if row.Bench != "jacobi1d" || row.Reps < 1 {
		t.Fatalf("bad row: %+v", row)
	}
	if row.OriginalSeconds <= 0 || row.ResilientTime <= 0 || row.OptimizedTime <= 0 {
		t.Fatalf("non-positive measurements: %+v", row)
	}
}

// readBlocks decodes a report file into its top-level blocks, raw.
func readBlocks(t *testing.T, path string) map[string]json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var blocks map[string]json.RawMessage
	if err := json.Unmarshal(data, &blocks); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return blocks
}

// sameBlocks fails on any block of want, other than the named ones, that got
// is missing or does not repeat byte for byte.
func sameBlocks(t *testing.T, stage string, want, got map[string]json.RawMessage, rewritten ...string) {
	t.Helper()
	skip := map[string]bool{}
	for _, k := range rewritten {
		skip[k] = true
	}
	for k, w := range want {
		if !skip[k] && !bytes.Equal(w, got[k]) {
			t.Errorf("%s changed the %q block", stage, k)
		}
	}
}

// The interpreter -json writer and the -wal -json writer each merge their
// own blocks into an existing report and leave every other block byte for
// byte as it was.
func TestJSONWritersMerge(t *testing.T) {
	committed, err := os.ReadFile("../../BENCH_overhead.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_overhead.json")
	if err := os.WriteFile(path, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	before := readBlocks(t, path)
	for _, k := range []string{"native", "service", "backends", "soak"} {
		if before[k] == nil {
			t.Fatalf("committed report has no %q block", k)
		}
	}

	const scale = 0.001
	if err := run("10", scale, "jacobi1d", true, path, "", 0, bench.Telemetry{}); err != nil {
		t.Fatal(err)
	}
	afterInterp := readBlocks(t, path)
	sameBlocks(t, "-json", before, afterInterp,
		"generated_at", "scale", "rows", "geomean", "quantiles")
	var rows []bench.OverheadRow
	if err := json.Unmarshal(afterInterp["rows"], &rows); err != nil || len(rows) != 1 || rows[0].Bench != "jacobi1d" {
		t.Errorf("-json rows = %s (%v), want one jacobi1d row", afterInterp["rows"], err)
	}

	if err := run("10", scale, "jacobi1d", true, path, filepath.Join(dir, "wal"), 2, bench.Telemetry{}); err != nil {
		t.Fatal(err)
	}
	afterWAL := readBlocks(t, path)
	sameBlocks(t, "-wal -json", afterInterp, afterWAL, "durable")
	var durable []bench.DurableRow
	if err := json.Unmarshal(afterWAL["durable"], &durable); err != nil || len(durable) != 1 || durable[0].Bench != "jacobi1d" {
		t.Errorf("-wal -json durable block = %s (%v), want one jacobi1d row", afterWAL["durable"], err)
	}
}
