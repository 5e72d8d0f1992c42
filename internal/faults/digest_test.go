package faults

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"defuse/internal/checksum"
)

var updateTrialDigest = flag.Bool("update", false, "rewrite testdata/trials.digest from the current trial runners")

const trialDigestFile = "testdata/trials.digest"

// digestCell is one named coverage cell of the pinned matrix.
type digestCell struct {
	name string
	cfg  CoverageConfig
}

// trialDigestCells is the pinned matrix: the classic Table 1 cells, every
// detector target hardened and unhardened under recovery and under
// end-only verification, and every backend against every address-fault
// shape (plus the skipped 1-word region).
func trialDigestCells() []digestCell {
	var cells []digestCell
	for _, p := range []Pattern{AllZero, AllOne, Random} {
		for _, dual := range []bool{false, true} {
			cells = append(cells, digestCell{
				name: fmt.Sprintf("classic/%v/dual=%v", p, dual),
				cfg: CoverageConfig{Kind: checksum.ModAdd, Words: 100, BitFlips: 2,
					Pattern: p, Dual: dual, Trials: 300, Seed: 5},
			})
		}
	}
	targets := []Target{TargetData, TargetAccumulator, TargetCounter, TargetCheckpoint, TargetMasking}
	for _, tg := range targets {
		for _, hard := range []bool{false, true} {
			for _, endOnly := range []bool{false, true} {
				cfg := CoverageConfig{Kind: checksum.ModAdd, Words: 16, BitFlips: 1,
					Pattern: Random, Trials: 96, Seed: 13, Epochs: 5,
					Target: tg, Hardened: hard, Recover: !endOnly, EndOnlyVerify: endOnly}
				if tg == TargetCheckpoint {
					cfg.Recover = true
				}
				cells = append(cells, digestCell{
					name: fmt.Sprintf("epoch/%v/hardened=%v/endonly=%v", tg, hard, endOnly),
					cfg:  cfg,
				})
			}
		}
	}
	for _, b := range []Backend{BackendChecksum, BackendAddrsum, BackendDME} {
		for _, af := range []AddrFault{AddrNone, AddrWrong, AddrIndexBit, AddrAlias} {
			for _, hard := range []bool{false, true} {
				cells = append(cells, digestCell{
					name: fmt.Sprintf("backend/%v/%v/hardened=%v", b, af, hard),
					cfg: CoverageConfig{Kind: checksum.ModAdd, Words: 16, BitFlips: 1,
						Pattern: Random, Trials: 96, Seed: 17, Epochs: 4, Recover: true,
						Hardened: hard, Backend: b, AddrFault: af},
				})
			}
		}
		cells = append(cells, digestCell{
			name: fmt.Sprintf("backend/%v/addr-wrong/1-word", b),
			cfg: CoverageConfig{Kind: checksum.ModAdd, Words: 1, BitFlips: 1,
				Pattern: Random, Trials: 32, Seed: 19, Epochs: 3, Recover: true,
				Backend: b, AddrFault: AddrWrong},
		})
	}
	return cells
}

// trialDigestLines renders every pinned output as "name sha256" lines.
func trialDigestLines(t *testing.T) []string {
	t.Helper()
	cells := trialDigestCells()
	camp := &Campaign{Workers: 2, ChunkSize: 32}
	for _, c := range cells {
		camp.Cells = append(camp.Cells, c.cfg)
	}
	res, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i, r := range res.Results {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s %x", cells[i].name, sha256.Sum256(raw)))
	}
	dir := t.TempDir()
	for _, seed := range []int64{1, 7, 99} {
		rep, err := runCrashSpec(context.Background(), CrashSpec{
			Words: 10, Epochs: 4, Kind: checksum.ModAdd, Seed: seed,
			WAL: filepath.Join(dir, fmt.Sprintf("s%d.wal", seed)), CrashStep: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("crash/seed=%d %x", seed, sha256.Sum256(rep.Final)))
	}
	return lines
}

// TestTrialOutputDigest pins the exact result of every epoch-trial shape
// (targets, hardening, verification placement, backends, address faults)
// and the crash child's final state bytes. Any change to a draw stream, a
// recovery decision, or a tally fails here. Regenerate with
// `go test ./internal/faults -run TestTrialOutputDigest -update` only when
// an outcome is meant to change.
func TestTrialOutputDigest(t *testing.T) {
	got := trialDigestLines(t)
	if *updateTrialDigest {
		if err := os.MkdirAll(filepath.Dir(trialDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trialDigestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigestFile(t, trialDigestFile)
	if len(got) != len(want) {
		t.Fatalf("digest has %d entries, runners produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("trial output changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

// readDigestFile returns a digest file's non-blank lines.
func readDigestFile(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
