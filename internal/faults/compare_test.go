package faults

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"defuse/internal/checksum"
	"defuse/internal/memsim"
	"defuse/internal/recovery"
	"defuse/rt"
)

func smallCompare() CompareConfig {
	return CompareConfig{Words: 16, Epochs: 3, Trials: 40, Seed: 99, Kind: checksum.ModAdd}
}

// TestComparisonExpectationMatrix is the PR's acceptance shape in miniature:
// the data-checksum backend must let every valid-word-aliasing trial escape
// (with a wrong final state — false negatives, not benign survivals) while
// the address-stream and dual-execution backends catch all of them, and the
// address-stream backend must be blind to pure data flips.
func TestComparisonExpectationMatrix(t *testing.T) {
	res, err := RunComparison(context.Background(), smallCompare())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Gate(); err != nil {
		t.Fatalf("comparison gate failed: %v", err)
	}
	byKey := map[string]CompareCellResult{}
	for _, c := range res.Cells {
		byKey[c.Backend+"/"+c.Cell] = c
	}
	alias := byKey["checksum/addr-alias"]
	if alias.Detected != 0 || alias.Undetected != alias.Trials || alias.Trials == 0 {
		t.Fatalf("checksum addr-alias: detected %d, undetected %d of %d — the ledger should balance over every aliased RMW",
			alias.Detected, alias.Undetected, alias.Trials)
	}
	if alias.FalseNegatives != alias.Undetected {
		t.Fatalf("checksum addr-alias: %d false negatives of %d escapes — every escape must corrupt the final state",
			alias.FalseNegatives, alias.Undetected)
	}
	for _, be := range []string{"addrsum", "dme"} {
		c := byKey[be+"/addr-alias"]
		if c.Undetected != 0 || c.Detected == 0 {
			t.Fatalf("%s addr-alias: detected %d, undetected %d — must gate at zero escapes", be, c.Detected, c.Undetected)
		}
	}
	blind := byKey["addrsum/data-flip"]
	if blind.Detected != 0 || blind.Undetected == 0 {
		t.Fatalf("addrsum data-flip: detected %d — address streams must never see values", blind.Detected)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d backend rows, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.AllExpected {
			t.Errorf("backend %s: AllExpected false", row.Backend)
		}
		if row.NsPerTrial <= 0 {
			t.Errorf("backend %s: no per-trial cost measured", row.Backend)
		}
	}
}

// TestComparisonDeterministic: the shared (seed, trial) schedule makes the
// whole comparison a pure function of its config.
func TestComparisonDeterministic(t *testing.T) {
	cfg := smallCompare()
	cfg.Trials = 25
	a, err := RunComparison(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunComparison(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Cells, b.Cells) {
		t.Fatal("identical configs produced different cell tallies")
	}
}

func TestComparisonValidation(t *testing.T) {
	bad := smallCompare()
	bad.Words = 1
	if _, err := RunComparison(context.Background(), bad); err == nil {
		t.Fatal("comparison accepted a 1-word region (no wrong location exists)")
	}
	bad = smallCompare()
	bad.Trials = 0
	if _, err := RunComparison(context.Background(), bad); err == nil {
		t.Fatal("comparison accepted zero trials")
	}
}

// TestAddrFaultRequiresRandomPattern pins the benign-no-op hazard: under a
// constant pattern a redirected load reads the same value it would have read
// anyway, so the cell would tally phantom escapes no backend could prevent.
func TestAddrFaultRequiresRandomPattern(t *testing.T) {
	cfg := CoverageConfig{
		Kind: checksum.ModAdd, Words: 16, BitFlips: 1, Pattern: AllZero,
		Trials: 10, Seed: 1, Epochs: 2, AddrFault: AddrAlias,
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted an address-fault cell with a constant pattern")
	}
	cfg.Pattern = Random
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected a well-formed address-fault cell: %v", err)
	}
}

// TestCampaignRejectsDifferentCellMatrix: the resume fingerprint covers the
// backend and fault-shape columns, so a checkpoint written by one cell
// matrix is refused by a campaign whose cells differ only there.
func TestCampaignRejectsDifferentCellMatrix(t *testing.T) {
	base := CoverageConfig{
		Kind: checksum.ModAdd, Words: 16, BitFlips: 1, Pattern: Random,
		Trials: 50, Seed: 7, Epochs: 2,
	}
	for _, mutate := range []struct {
		name string
		mut  func(*CoverageConfig)
	}{
		{"backend", func(c *CoverageConfig) { c.Backend = BackendAddrsum }},
		{"addr-fault", func(c *CoverageConfig) { c.AddrFault = AddrAlias }},
	} {
		path := filepath.Join(t.TempDir(), "ckpt.json")
		if _, err := (&Campaign{Cells: []CoverageConfig{base}, CheckpointPath: path}).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		changed := base
		mutate.mut(&changed)
		if _, err := (&Campaign{Cells: []CoverageConfig{changed}, CheckpointPath: path}).Run(context.Background()); err == nil {
			t.Fatalf("%s: checkpoint from a different cell matrix accepted on resume", mutate.name)
		}
	}
}

// TestDMEBackendHardenedMatchesBaseline: the DME trial honors the hardened
// checkpoint path (digest-checked restores) without changing verdicts.
func TestDMEBackendHardenedMatchesBaseline(t *testing.T) {
	cfg := CoverageConfig{
		Kind: checksum.ModAdd, Words: 16, BitFlips: 1, Pattern: Random,
		Trials: 30, Seed: 3, Epochs: 3, Backend: BackendDME, AddrFault: AddrAlias,
	}
	plain, err := RunCoverage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hardened = true
	hard, err := RunCoverage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Detected != hard.Detected || plain.Undetected != hard.Undetected {
		t.Fatalf("hardened verdicts (%d/%d) differ from baseline (%d/%d)",
			hard.Detected, hard.Undetected, plain.Detected, plain.Undetected)
	}
	if plain.Undetected != 0 {
		t.Fatalf("dme let %d aliased trials escape", plain.Undetected)
	}
}

// TestAddrBoundaryMismatchIsDataFault: the address backend's boundary
// names the address streams in its error, yet the error still unwraps to the
// ledger's *checksum.MismatchError, so recovery rolls back a data fault.
func TestAddrBoundaryMismatchIsDataFault(t *testing.T) {
	d := &addrDetector{mem: memsim.New(4), tr: rt.NewTracker()}
	d.Span(0, 4)
	d.Step(1, 2, 1)
	err := d.Boundary(false, func() error { return nil })
	var mm *checksum.MismatchError
	if !errors.As(err, &mm) || !strings.Contains(err.Error(), "addrsum") {
		t.Fatalf("redirected boundary returned %v, want an addrsum *checksum.MismatchError", err)
	}
	if c := recovery.DefaultClassify(err); c != recovery.ClassData {
		t.Fatalf("classified as %v, want data", c)
	}
}
