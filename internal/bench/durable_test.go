package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDurable(t *testing.T) {
	b, err := ByName("jacobi1d")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	row, err := RunDurable(b, 0.002, 4, dir, Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	if row.Bench != "jacobi1d" || row.Epochs != 4 {
		t.Errorf("row = %+v", row)
	}
	if row.Seals != 4 {
		t.Errorf("seals = %d, want 4", row.Seals)
	}
	if row.WALBytes <= 0 {
		t.Errorf("wal bytes = %d, want > 0", row.WALBytes)
	}
	if st, err := os.Stat(filepath.Join(dir, "jacobi1d.wal")); err != nil || st.Size() != row.WALBytes {
		t.Errorf("WAL not left in place: %v", err)
	}
	if row.Overhead <= 0 {
		t.Errorf("overhead = %v", row.Overhead)
	}
}

// TestRunDurableRecordsPlanEpochs: CG's kernel is a top-level while loop, so
// its plan collapses to one epoch whatever was requested, and the row must
// say so next to its single seal.
func TestRunDurableRecordsPlanEpochs(t *testing.T) {
	b, err := ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunDurable(b, 0.002, 8, t.TempDir(), Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	if row.Epochs != 1 || row.Seals != 1 {
		t.Errorf("row = %+v, want Epochs 1 and Seals 1", row)
	}
}

func TestFormatDurable(t *testing.T) {
	out := FormatDurable([]DurableRow{
		{Bench: "jacobi1d", Epochs: 4, Seals: 4, WALBytes: 1024,
			BaselineSeconds: 0.1, DurableSeconds: 0.12, Overhead: 1.2},
	})
	for _, want := range []string{"jacobi1d", "geomean", "1.200"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
