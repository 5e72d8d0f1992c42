package machine

import (
	"errors"
	"testing"

	"defuse/internal/checksum"
	"defuse/internal/lang"
	"defuse/internal/memsim"
)

const testSrc = `
program t(n)
float A[n];
for i = 0 to n - 1 {
  A[i] = i * 2.0;
}
`

// newTestPlan allocates testSrc's layout (n = 12) under cfg, fills A and
// plans four epochs with a body that never runs.
func newTestPlan(t *testing.T, cfg Config) *Plan {
	t.Helper()
	prog := lang.MustParse(testSrc)
	m, err := New("test", cfg, prog, map[string]int64{"n": 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Alloc(prog, func(lang.Expr) (int64, error) { return 12, nil }); err != nil {
		t.Fatal(err)
	}
	if err := m.FillFloat("A", func(k int64) float64 { return float64(k) + 0.5 }); err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(&m, prog, 4, true, func(int, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEpochStateRoundTripAndForeignLayout(t *testing.T) {
	src := newTestPlan(t, Config{})
	src.m.Fold(checksum.AccDef, 7, 3)
	src.m.SetBounds(0, 11)
	b, err := src.encodeState()
	if err != nil {
		t.Fatal(err)
	}

	dst := newTestPlan(t, Config{})
	if err := dst.m.FillFloat("A", func(int64) float64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	if err := dst.decodeState(b); err != nil {
		t.Fatal(err)
	}
	if *dst.m.pair != *src.m.pair {
		t.Error("accumulators or shadows not restored")
	}
	if lo, hi, ok := dst.m.Bounds(); lo != 0 || hi != 11 || !ok {
		t.Errorf("bounds = %d,%d,%v, want 0,11,true", lo, hi, ok)
	}
	if got, _ := dst.m.Float("A", 5); got != 5.5 {
		t.Errorf("A[5] = %v, want 5.5", got)
	}

	// The same program at another base offset has a different memory size:
	// the record must be refused before any word is restored.
	shifted := newTestPlan(t, Config{BaseOffset: 3})
	if err := shifted.decodeState(b); !errors.Is(err, memsim.ErrCheckpointCorrupt) {
		t.Fatalf("decode into a shifted layout: %v, want ErrCheckpointCorrupt", err)
	}
	if got, _ := shifted.m.Float("A", 0); got != 0.5 {
		t.Errorf("refused decode modified memory: A[0] = %v", got)
	}
	xor := newTestPlan(t, Config{Kind: checksum.XOR})
	if err := xor.decodeState(b); !errors.Is(err, memsim.ErrCheckpointCorrupt) {
		t.Fatalf("decode into another checksum kind: %v, want ErrCheckpointCorrupt", err)
	}
}
