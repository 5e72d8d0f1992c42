package faults

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"defuse/internal/checksum"
)

// TestMain is the crash campaign's re-exec hook: a child spawned with the
// CrashChildEnv spec runs the durable workload (and dies at its crash step)
// instead of the test suite.
func TestMain(m *testing.M) {
	if IsCrashChild() {
		CrashChildMain() // never returns
	}
	os.Exit(m.Run())
}

// crashCampaign builds a campaign against this test binary.
func crashCampaign(t *testing.T, cells []CrashConfig) *CrashCampaign {
	t.Helper()
	return &CrashCampaign{Cells: cells, Exe: os.Args[0], Dir: t.TempDir(), Workers: 4}
}

func TestRunCrashSpecIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string) crashReport {
		rep, err := runCrashSpec(context.Background(), CrashSpec{
			Words: 12, Epochs: 4, Kind: checksum.ModAdd, Seed: 99,
			WAL: filepath.Join(dir, name), CrashStep: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := mk("a.wal"), mk("b.wal")
	if !bytes.Equal(a.Final, b.Final) {
		t.Fatal("two uninterrupted runs of the same seed differ")
	}
	if a.Seals != 4 || a.Resumed || a.Detected || a.Tainted {
		t.Errorf("report = %+v, want 4 seals, clean", a)
	}
	// A third run over a completed WAL resumes at the final epoch and runs
	// nothing, ending in the identical state.
	c, err := runCrashSpec(context.Background(), CrashSpec{
		Words: 12, Epochs: 4, Kind: checksum.ModAdd, Seed: 99,
		WAL: filepath.Join(dir, "a.wal"), CrashStep: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Resumed || c.ResumeEpoch != 4 || !bytes.Equal(c.Final, a.Final) {
		t.Errorf("completed-run resume: %+v", c)
	}
}

func TestCrashCampaignKillCell(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	camp := crashCampaign(t, []CrashConfig{{
		Kind: checksum.ModAdd, Words: 16, Epochs: 5, Trials: 8, Seed: 404, Cell: CrashKill,
	}})
	res, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Gate(); err != nil {
		t.Fatalf("gate: %v (cell: %+v)", err, res.Cells[0])
	}
	cell := res.Cells[0]
	if cell.Killed != 8 || cell.Identical != 8 {
		t.Errorf("cell = %+v, want all 8 killed and identical", cell)
	}
	if cell.Resumed == 0 {
		t.Error("no trial resumed from the WAL (all kills landed in epoch 0?)")
	}
}

func TestCrashCampaignTornWriteCell(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	camp := crashCampaign(t, []CrashConfig{{
		Kind: checksum.ModAdd, Words: 16, Epochs: 5, Trials: 6, Seed: 405, Cell: CrashTornWrite,
	}})
	res, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Gate(); err != nil {
		t.Fatalf("gate: %v (cell: %+v)", err, res.Cells[0])
	}
	cell := res.Cells[0]
	if cell.MutationsApplied != 6 || cell.TornReported != 6 {
		t.Errorf("cell = %+v, want every torn write applied and reported", cell)
	}
}

func TestCrashCampaignDiskFlipCell(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	camp := crashCampaign(t, []CrashConfig{{
		Kind: checksum.ModAdd, Words: 16, Epochs: 5, Trials: 6, Seed: 406, Cell: CrashDiskFlip,
	}})
	res, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Gate(); err != nil {
		t.Fatalf("gate: %v (cell: %+v)", err, res.Cells[0])
	}
	cell := res.Cells[0]
	if cell.MutationsApplied != 6 {
		t.Errorf("cell = %+v, want every flip applied", cell)
	}
	if cell.TornReported+cell.CorruptReported == 0 {
		t.Error("no flip was reported as torn or corrupt")
	}
	if cell.SilentAcceptances != 0 {
		t.Errorf("%d corrupt checkpoints accepted silently", cell.SilentAcceptances)
	}
}

// TestCrashCampaignWorkerCountInvariance runs the standard three-cell grid
// on one worker and on four: every tally is a sum of per-trial outcomes, so
// the two results must marshal to the same bytes.
func TestCrashCampaignWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	run := func(workers int) []byte {
		camp := crashCampaign(t, DefaultCrashCells(checksum.ModAdd, 16, 4, 4, 407))
		camp.Workers = workers
		res, err := camp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Gate(); err != nil {
			t.Fatalf("workers=%d: gate: %v", workers, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if one, four := run(1), run(4); !bytes.Equal(one, four) {
		t.Errorf("result depends on worker count:\n1 worker:  %s\n4 workers: %s", one, four)
	}
}

// TestCrashCampaignCancelled: a campaign under an already-cancelled context
// returns an incomplete result and an error that is context.Canceled.
func TestCrashCampaignCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := crashCampaign(t, DefaultCrashCells(checksum.ModAdd, 16, 4, 3, 408)).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Completed {
		t.Fatalf("cancelled campaign returned %+v, want an incomplete result", res)
	}
}

// TestCrashCampaignSameKindCells runs two kill cells side by side: their
// trials must not share WAL or report files.
func TestCrashCampaignSameKindCells(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	camp := crashCampaign(t, []CrashConfig{
		{Kind: checksum.ModAdd, Words: 16, Epochs: 5, Trials: 3, Seed: 409, Cell: CrashKill},
		{Kind: checksum.ModAdd, Words: 24, Epochs: 5, Trials: 3, Seed: 409, Cell: CrashKill},
	})
	camp.Workers = 6
	res, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Gate(); err != nil {
		t.Fatalf("gate: %v", err)
	}
}

// TestCrashCampaignReusedDir reuses a scratch directory after a campaign
// whose trial failed once its WAL was complete. The failed trial must leave
// no files behind, and the next campaign's trials must not resume from
// anything the first one wrote.
func TestCrashCampaignReusedDir(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	// The restarted incarnation runs to completion, then exits non-zero: the
	// trial errors with a finished WAL on disk.
	failing := filepath.Join(t.TempDir(), "child.sh")
	script := "#!/bin/sh\ncase \"$" + CrashChildEnv + "\" in\n" +
		"*'\"crash_step\":-1'*) \"$0.exe\" \"$@\"; exit 1 ;;\n" +
		"esac\nexec \"$0.exe\" \"$@\"\n"
	if err := os.WriteFile(failing, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(os.Args[0], failing+".exe"); err != nil {
		t.Fatal(err)
	}
	cell := CrashConfig{Kind: checksum.ModAdd, Words: 16, Epochs: 5, Trials: 1, Seed: 410, Cell: CrashKill}
	first := &CrashCampaign{Cells: []CrashConfig{cell}, Exe: failing, Dir: dir, Workers: 1}
	if _, err := first.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "restarted child") {
		t.Fatalf("first campaign: err = %v, want a failed restart", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) > 0 {
		t.Errorf("failed trial left %v behind", left)
	}
	// A campaign killed outright runs no cleanup: plant the completed WAL
	// such a run leaves where trial 0 keeps its log.
	if _, err := runCrashSpec(context.Background(), CrashSpec{
		Words: cell.Words, Epochs: cell.Epochs, Kind: cell.Kind, Seed: trialSeed(cell.Seed, 0),
		WAL: filepath.Join(dir, "c0-t0.wal"), CrashStep: -1,
	}); err != nil {
		t.Fatal(err)
	}

	cell.Trials = 3
	res, err := (&CrashCampaign{Cells: []CrashConfig{cell}, Exe: os.Args[0], Dir: dir, Workers: 1}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Gate(); err != nil {
		t.Fatalf("gate: %v", err)
	}
}

func TestCrashGateRejectsBadCells(t *testing.T) {
	base := CrashResult{CrashConfig: CrashConfig{Trials: 4, CellName: "kill"},
		Killed: 4, Identical: 4}
	cases := []struct {
		name   string
		mutate func(*CrashCampaignResult)
		want   string
	}{
		{"incomplete", func(r *CrashCampaignResult) { r.Completed = false }, "incomplete"},
		{"unkilled", func(r *CrashCampaignResult) { r.Cells[0].Killed = 3 }, "not killed"},
		{"mismatch", func(r *CrashCampaignResult) { r.Cells[0].Mismatched = 1 }, "byte-identical"},
		{"silent", func(r *CrashCampaignResult) { r.Cells[0].SilentAcceptances = 2 }, "silently"},
		{"missed", func(r *CrashCampaignResult) { r.Cells[0].ResumeMissed = 1 }, "not resumed"},
		{"short", func(r *CrashCampaignResult) { r.Cells[0].Identical = 3 }, "not accounted"},
	}
	for _, tc := range cases {
		r := &CrashCampaignResult{Schema: CrashSchema, Completed: true,
			Cells: []CrashResult{base}}
		tc.mutate(r)
		err := r.Gate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: gate = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	clean := &CrashCampaignResult{Schema: CrashSchema, Completed: true,
		Cells: []CrashResult{base}}
	if err := clean.Gate(); err != nil {
		t.Errorf("clean result gated: %v", err)
	}
}

func TestCrashConfigValidate(t *testing.T) {
	ok := CrashConfig{Words: 8, Epochs: 3, Trials: 1, Cell: CrashKill}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []CrashConfig{
		{Words: 8, Epochs: 3, Trials: 0, Cell: CrashKill},
		{Words: 0, Epochs: 3, Trials: 1, Cell: CrashKill},
		{Words: 8, Epochs: 1, Trials: 1, Cell: CrashTornWrite},
		{Words: 8, Epochs: 3, Trials: 1, Cell: CrashCellKind(99)},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestParseCrashCell(t *testing.T) {
	for _, k := range []CrashCellKind{CrashKill, CrashTornWrite, CrashDiskFlip} {
		got, err := ParseCrashCell(k.String())
		if err != nil || got != k {
			t.Errorf("ParseCrashCell(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseCrashCell("meteor"); err == nil {
		t.Error("unknown cell accepted")
	}
}

// TestCheckpointWriteSurvivesKillMidWrite simulates a campaign killed while
// writing its resume checkpoint: the atomic writer's temp file is left
// truncated on disk. The visible checkpoint must be unaffected, the next
// write must replace the leftover, and a resume must load the intact file.
func TestCheckpointWriteSurvivesKillMidWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "resume.json")
	camp := &Campaign{
		Cells: []CoverageConfig{{
			Kind: checksum.ModAdd, Words: 4, BitFlips: 2, Trials: 6, Seed: 7,
		}},
		CheckpointPath: path,
		ChunkSize:      2,
	}
	key := camp.fingerprint(2)
	done := map[[2]int]chunkTally{{0, 0}: {Start: 0, Count: 2, Tally: Tally{Detected: 2}}}
	if err := camp.writeCheckpoint(key, done); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The kill: a half-written temp file next to the real checkpoint.
	if err := os.WriteFile(path+".tmp", before[:len(before)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	loaded := map[[2]int]chunkTally{}
	if n, err := loadCheckpoint(path, key, loaded); err != nil || n != 1 {
		t.Fatalf("loadCheckpoint after torn tmp: n=%d err=%v", n, err)
	}
	if loaded[[2]int{0, 0}].Detected != 2 {
		t.Error("checkpoint content damaged by the torn temp file")
	}

	// The next write replaces the leftover and the file stays loadable.
	done[[2]int{0, 2}] = chunkTally{Start: 2, Count: 2, Tally: Tally{Detected: 2}}
	if err := camp.writeCheckpoint(key, done); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file not cleaned up by the rewrite")
	}
	loaded = map[[2]int]chunkTally{}
	if n, err := loadCheckpoint(path, key, loaded); err != nil || n != 2 {
		t.Fatalf("loadCheckpoint after rewrite: n=%d err=%v", n, err)
	}
}
