package faults

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"

	"defuse/internal/checksum"
	"defuse/internal/memsim"
	"defuse/internal/recovery"
	"defuse/internal/wal"
	"defuse/rt"
	"defuse/telemetry"
)

// This file is the process-level half of the fault campaign: where
// trial.go flips bits inside a live process, the crash campaign kills the
// whole process. Each trial runs the word workload of workload.go under the
// durable (WAL-checkpointing) supervisor in a child process, SIGKILLs it at a
// seeded epoch/step, optionally corrupts the on-disk log the way a dying
// machine would (a torn write, a flipped bit at rest), restarts the child,
// and requires the resumed run to finish byte-identical — memory words,
// checksum accumulators, shadow copies, operation counters, and verdict — to
// an uninterrupted run of the same seed. A corrupt checkpoint must never be
// accepted silently: the restarted child has to report the torn tail or the
// corrupt record it refused.

// CrashChildEnv is the environment variable that re-routes a process into
// CrashChildMain. Its value is the JSON-encoded CrashSpec for the child run.
// Both the faults test binary (via its TestMain) and cmd/faultcov honor it,
// so either can serve as the campaign's child executable.
const CrashChildEnv = "DEFUSE_CRASH_CHILD"

// CrashSpec tells a child process exactly what to run.
type CrashSpec struct {
	Words  int           `json:"words"`
	Epochs int           `json:"epochs"`
	Kind   checksum.Kind `json:"kind"`
	// Seed drives the workload's data fill; the parent derives it per trial.
	Seed int64 `json:"seed"`
	// WAL is the durable checkpoint log shared by the crashing and the
	// resuming incarnation of the trial.
	WAL string `json:"wal"`
	// Out is where a cleanly finishing child writes its crashReport.
	Out string `json:"out"`
	// CrashStep is the global step (epoch*words + word) before which the
	// child SIGKILLs itself; -1 runs to completion.
	CrashStep int64 `json:"crash_step"`
}

// IsCrashChild reports whether this process was spawned as a crash-campaign
// child and must hand control to CrashChildMain before doing anything else.
func IsCrashChild() bool { return os.Getenv(CrashChildEnv) != "" }

// CrashChildMain runs the child side of a crash trial and never returns: the
// process either dies by its own SIGKILL at the spec's crash step or exits
// after writing its report.
func CrashChildMain() {
	var spec CrashSpec
	if err := json.Unmarshal([]byte(os.Getenv(CrashChildEnv)), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "crash child: bad spec:", err)
		os.Exit(3)
	}
	rep, err := runCrashSpec(context.Background(), spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(3)
	}
	if spec.CrashStep >= 0 {
		// The crash step was never reached: the spec is inconsistent with the
		// workload size. Surface it rather than report a bogus clean run.
		fmt.Fprintf(os.Stderr, "crash child: survived crash step %d\n", spec.CrashStep)
		os.Exit(4)
	}
	raw, err := json.Marshal(rep)
	if err == nil {
		err = wal.WriteFileAtomic(spec.Out, raw, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(3)
	}
	os.Exit(0)
}

// crashReport is what a cleanly finishing child hands back to the parent:
// the durable supervisor's outcome, and in Final the workload's encoded final
// state — epoch state (accumulators, shadows, op counters), shadow use
// counters, and memory snapshot. Two runs agree exactly when these bytes
// agree.
type crashReport struct {
	recovery.DurableOutcome
	Final []byte `json:"final"`
}

// killSelf is the crash trial's strike: SIGKILL is unblockable and
// unhandlable, so the process dies exactly as if the machine had lost power
// between two steps.
func killSelf() {
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable: SIGKILL cannot be caught or ignored
}

// encodeState renders the complete workload state: the sealed epoch state
// (with its own digest), the shadow use counters verbatim, and the memory
// snapshot (with its own digest). Called at verified epoch boundaries for WAL
// payloads and once more at the end for the trial report, so byte equality of
// two encodings is exactly state equality.
func (w *wordWorkload) encodeState() ([]byte, error) {
	es, err := w.tr.BeginEpoch().Encode()
	if err != nil {
		return nil, err
	}
	snap := w.mem.Snapshot()
	mb, err := snap.Encode()
	if err != nil {
		return nil, err
	}
	words := len(w.counters)
	b := make([]byte, 0, len(es)+8+16*words+len(mb))
	b = append(b, es...)
	b = binary.LittleEndian.AppendUint64(b, uint64(words))
	for i := range w.counters {
		packed, enc := w.counters[i].State()
		b = binary.LittleEndian.AppendUint64(b, packed)
		b = binary.LittleEndian.AppendUint64(b, enc)
	}
	return append(b, mb...), nil
}

func (w *wordWorkload) decodeState(b []byte) error {
	words := len(w.counters)
	if len(b) < rt.EncodedEpochStateSize+8 {
		return fmt.Errorf("faults: crash state of %d bytes: %w", len(b), rt.ErrCheckpointCorrupt)
	}
	st, err := rt.DecodeEpochState(b[:rt.EncodedEpochStateSize])
	if err != nil {
		return err
	}
	rest := b[rt.EncodedEpochStateSize:]
	if n := binary.LittleEndian.Uint64(rest); n != uint64(words) {
		return fmt.Errorf("faults: crash state for %d words, workload has %d: %w",
			n, words, rt.ErrCheckpointCorrupt)
	}
	rest = rest[8:]
	if len(rest) < 16*words {
		return fmt.Errorf("faults: crash state truncated counters: %w", rt.ErrCheckpointCorrupt)
	}
	snap, err := memsim.DecodeSnapshot(rest[16*words:])
	if err != nil {
		return err
	}
	if err := w.tr.Resume(st); err != nil {
		return err
	}
	for i := range w.counters {
		w.counters[i].SetState(
			binary.LittleEndian.Uint64(rest[16*i:]),
			binary.LittleEndian.Uint64(rest[16*i+8:]))
	}
	return w.mem.Restore(snap)
}

// crashFingerprint pins a WAL record to one trial's exact workload, so a
// record from another trial (or a stale file) can never resume this one.
func crashFingerprint(spec CrashSpec) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "crash words=%d epochs=%d kind=%d seed=%d", spec.Words, spec.Epochs, spec.Kind, spec.Seed)
	return h.Sum64()
}

// runCrashSpec executes one incarnation of a crash trial: resume from the
// spec's WAL if it holds a usable record, run (possibly dying at the crash
// step), and report the final state. The parent calls it in-process with a
// fresh WAL to compute the uninterrupted reference.
//
// The run is the hardened epoch trial over the spec's seeded words, whose
// one strike is the SIGKILL before global step CrashStep, at (step / words,
// step % words). A negative step, or one past the last epoch, never strikes.
func runCrashSpec(ctx context.Context, spec CrashSpec) (crashReport, error) {
	if spec.Words <= 0 || spec.Epochs <= 0 || spec.WAL == "" {
		return crashReport{}, fmt.Errorf("faults: crash spec needs words, epochs, and a wal path")
	}
	init := make([]uint64, spec.Words)
	NewInjector(spec.Seed).Fill(init, Random)
	t := newWordTrial(CoverageConfig{Kind: spec.Kind, Epochs: spec.Epochs, Recover: true, Hardened: true},
		init, rt.NewTrackerWith(spec.Kind))
	t.kill = true
	if spec.CrashStep >= 0 {
		words := int64(spec.Words)
		t.d.epoch, t.d.word = int(spec.CrashStep/words), int(spec.CrashStep%words)
	}
	d := &recovery.DurableSupervisor{
		Config:      t.config(),
		Path:        spec.WAL,
		Fingerprint: crashFingerprint(spec),
		EncodeState: t.w.encodeState,
		DecodeState: t.w.decodeState,
	}
	out, err := d.Run(ctx)
	if err != nil {
		return crashReport{}, err
	}
	final, err := t.w.encodeState()
	if err != nil {
		return crashReport{}, err
	}
	return crashReport{DurableOutcome: out, Final: final}, nil
}

// CrashCellKind selects what a crash cell does to the durable run.
type CrashCellKind int

const (
	// CrashKill SIGKILLs the child at a seeded step and restarts it; the WAL
	// is left exactly as the dying process wrote it.
	CrashKill CrashCellKind = iota
	// CrashTornWrite additionally truncates the WAL mid-frame after the kill,
	// simulating a seal whose write reached the disk only partially.
	CrashTornWrite
	// CrashDiskFlip additionally flips one seeded bit inside the WAL's valid
	// frames, simulating corruption of the checkpoint at rest.
	CrashDiskFlip
)

var crashCellNames = map[CrashCellKind]string{
	CrashKill:      "kill",
	CrashTornWrite: "torn-write",
	CrashDiskFlip:  "disk-flip",
}

// String returns the lower-case name of the cell kind.
func (k CrashCellKind) String() string { return enumName(crashCellNames, k, "CrashCellKind") }

// ParseCrashCell resolves a crash-cell name as used by cmd/faultcov.
func ParseCrashCell(s string) (CrashCellKind, error) {
	return parseEnum(crashCellNames, s, "crash cell")
}

// CrashConfig describes one crash-injection cell.
type CrashConfig struct {
	Kind   checksum.Kind `json:"kind"`
	Words  int           `json:"words"`
	Epochs int           `json:"epochs"`
	Trials int           `json:"trials"`
	Seed   int64         `json:"seed"`
	Cell   CrashCellKind `json:"-"`
	// CellName is Cell's name in reports.
	CellName string `json:"cell"`

	// Tracer, when non-nil, marks one crash.trial root span per trial.
	Tracer  *telemetry.Tracer   `json:"-"`
	Metrics *telemetry.Registry `json:"-"`
}

// Validate reports configuration errors before any process is spawned.
func (cfg CrashConfig) Validate() error {
	if cfg.Trials <= 0 {
		return fmt.Errorf("faults: crash Trials must be positive, got %d", cfg.Trials)
	}
	if cfg.Words <= 0 || cfg.Epochs <= 0 {
		return fmt.Errorf("faults: crash Words and Epochs must be positive, got %d/%d", cfg.Words, cfg.Epochs)
	}
	if cfg.Epochs < 2 && cfg.Cell != CrashKill {
		return fmt.Errorf("faults: %v cell needs Epochs >= 2 (at least one sealed record to corrupt)", cfg.Cell)
	}
	if _, ok := crashCellNames[cfg.Cell]; !ok {
		return fmt.Errorf("faults: unknown crash cell %d", int(cfg.Cell))
	}
	return nil
}

// CrashResult tallies one cell's trials. All counts are sums of per-trial
// outcomes, so the result is independent of worker count and trial order.
type CrashResult struct {
	CrashConfig
	// Killed counts first incarnations that died by SIGKILL as scheduled.
	Killed int `json:"killed"`
	// Identical counts trials whose resumed final state was byte-identical to
	// the uninterrupted reference with a clean verdict.
	Identical int `json:"identical"`
	// Mismatched counts trials that finished with wrong bytes or a dirty
	// verdict (detected/tainted on a fault-free workload).
	Mismatched int `json:"mismatched"`
	// Resumed and Fresh split the restarted incarnations by whether a durable
	// record was installed.
	Resumed int `json:"resumed"`
	Fresh   int `json:"fresh"`
	// MutationsApplied counts trials whose WAL was torn or bit-flipped.
	MutationsApplied int `json:"mutations_applied"`
	// TornReported and CorruptReported count restarted incarnations that
	// flagged the torn tail / refused records.
	TornReported    int `json:"torn_reported"`
	CorruptReported int `json:"corrupt_reported"`
	// SilentAcceptances counts trials whose WAL was mutated and whose
	// restarted child neither reported a torn tail nor refused a record: a
	// corrupt checkpoint accepted silently. The gate requires zero.
	SilentAcceptances int `json:"silent_acceptances"`
	// ResumeMissed counts trials that sealed at least one epoch, were not
	// mutated, and still failed to resume from the WAL.
	ResumeMissed int `json:"resume_missed"`
}

// CrashSchema identifies the crash campaign result JSON document.
const CrashSchema = "defuse/crashcov/v1"

// CrashCampaignResult aggregates the campaign's cells.
type CrashCampaignResult struct {
	Schema    string        `json:"schema"`
	Completed bool          `json:"completed"`
	Cells     []CrashResult `json:"cells"`
}

// Gate returns a non-nil error unless every trial was killed as scheduled,
// every resumed run finished byte-identical with a clean verdict, every
// intact WAL actually resumed, and no mutated WAL was accepted silently.
func (r *CrashCampaignResult) Gate() error {
	if !r.Completed {
		return errors.New("faults: gate: crash campaign incomplete")
	}
	for i, res := range r.Cells {
		cell := fmt.Sprintf("crash cell %d (%s)", i, res.CellName)
		switch {
		case res.Killed != res.Trials:
			return fmt.Errorf("faults: gate: %s: %d of %d children not killed as scheduled", cell, res.Trials-res.Killed, res.Trials)
		case res.Mismatched > 0:
			return fmt.Errorf("faults: gate: %s: %d resumed runs not byte-identical to uninterrupted runs", cell, res.Mismatched)
		case res.SilentAcceptances > 0:
			return fmt.Errorf("faults: gate: %s: %d corrupt checkpoints accepted silently", cell, res.SilentAcceptances)
		case res.ResumeMissed > 0:
			return fmt.Errorf("faults: gate: %s: %d intact checkpoints not resumed", cell, res.ResumeMissed)
		case res.Identical != res.Trials:
			return fmt.Errorf("faults: gate: %s: %d of %d trials not accounted identical", cell, res.Trials-res.Identical, res.Trials)
		}
	}
	return nil
}

// CrashCampaign drives crash cells against a child executable.
type CrashCampaign struct {
	Cells []CrashConfig
	// Exe is the child binary; empty means the current executable. The binary
	// must route CrashChildEnv to CrashChildMain before doing anything else
	// (cmd/faultcov does; so does the faults test binary via its TestMain).
	Exe string
	// Dir is the scratch directory for WALs and reports; empty means a fresh
	// temporary directory, removed when the campaign finishes.
	Dir string
	// Workers is the number of concurrent trials; 0 means GOMAXPROCS.
	Workers int
}

// crashTrialOutcome is one trial's contribution to its cell's tallies.
type crashTrialOutcome struct {
	killed, identical, mismatched   bool
	resumed, mutated, torn, corrupt bool
	silent, resumeMissed            bool
}

// Run executes every cell's trials on a worker pool and aggregates them.
func (c *CrashCampaign) Run(ctx context.Context) (*CrashCampaignResult, error) {
	if len(c.Cells) == 0 {
		return nil, errors.New("faults: crash campaign has no cells")
	}
	for i, cfg := range c.Cells {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("crash cell %d: %w", i, err)
		}
	}
	exe := c.Exe
	if exe == "" {
		var err error
		if exe, err = os.Executable(); err != nil {
			return nil, err
		}
	}
	dir := c.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "defuse-crash-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	type job struct{ cell, trial int }
	var jobs []job
	results := make([]CrashResult, len(c.Cells))
	for i, cfg := range c.Cells {
		for t := 0; t < cfg.Trials; t++ {
			jobs = append(jobs, job{i, t})
		}
		results[i].CrashConfig = cfg
		results[i].CellName = cfg.Cell.String()
		results[i].Trials = 0 // counts completed trials; compared by Gate
	}
	runTrial := func(ctx context.Context, j job) (crashTrialOutcome, error) {
		out, err := c.runTrial(ctx, exe, dir, j.cell, j.trial)
		if err != nil {
			err = fmt.Errorf("crash cell %d trial %d: %w", j.cell, j.trial, err)
		}
		return out, err
	}
	err := runPool(ctx, c.Workers, jobs,
		func() func(context.Context, job) (crashTrialOutcome, error) { return runTrial },
		func(j job, out crashTrialOutcome) error {
			tallyCrash(&results[j.cell], out)
			return nil
		})

	return &CrashCampaignResult{Schema: CrashSchema, Completed: err == nil, Cells: results}, err
}

func tallyCrash(r *CrashResult, o crashTrialOutcome) {
	r.Trials++
	r.Killed += one(o.killed)
	r.Identical += one(o.identical)
	r.Mismatched += one(o.mismatched)
	r.Resumed += one(o.resumed)
	r.Fresh += one(!o.resumed)
	r.MutationsApplied += one(o.mutated)
	r.TornReported += one(o.torn)
	r.CorruptReported += one(o.corrupt)
	r.SilentAcceptances += one(o.silent)
	r.ResumeMissed += one(o.resumeMissed)
}

// runTrial executes trial of cell end to end. Its files are named by cell
// index, so cells of one kind never share them; they are removed before the
// trial starts — a WAL left in a reused directory must not resume it — and on
// every way out.
func (c *CrashCampaign) runTrial(ctx context.Context, exe, dir string, cell, trial int) (crashTrialOutcome, error) {
	var out crashTrialOutcome
	cfg := c.Cells[cell]
	seed := trialSeed(cfg.Seed, trial)
	in := NewInjector(seed)
	totalSteps := int64(cfg.Words) * int64(cfg.Epochs)
	var crashStep int64
	if cfg.Cell == CrashKill {
		crashStep = int64(in.Intn(int(totalSteps)))
	} else {
		// Mutation cells die no earlier than epoch 1, so at least one sealed
		// record exists for the mutation to strike.
		crashStep = int64(cfg.Words) + int64(in.Intn(int(totalSteps)-cfg.Words))
	}

	base := filepath.Join(dir, fmt.Sprintf("c%d-t%d", cell, trial))
	spec := CrashSpec{
		Words: cfg.Words, Epochs: cfg.Epochs, Kind: cfg.Kind, Seed: seed,
		WAL: base + ".wal", Out: base + ".json", CrashStep: crashStep,
	}
	refWAL := base + ".ref.wal"
	removeFiles := func() error {
		for _, f := range []string{spec.WAL, spec.Out, refWAL} {
			if err := os.Remove(f); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
		}
		return nil
	}
	if err := removeFiles(); err != nil {
		return out, err
	}
	// Best effort: whatever stays behind, the next trial of this name removes.
	defer removeFiles()

	// Incarnation 1: run until the scheduled SIGKILL.
	if err := c.spawn(ctx, exe, spec); err == nil {
		return out, fmt.Errorf("child survived crash step %d", crashStep)
	} else if !killedBySigkill(err) {
		return out, fmt.Errorf("child did not die by SIGKILL: %w", err)
	}
	out.killed = true

	// Post-mortem disk damage for the mutation cells.
	var err error
	switch cfg.Cell {
	case CrashTornWrite:
		out.mutated, err = TearWAL(spec.WAL, in)
	case CrashDiskFlip:
		out.mutated, err = FlipWALBit(spec.WAL, in)
	}
	if err != nil {
		return out, err
	}
	if cfg.Cell != CrashKill && !out.mutated {
		return out, fmt.Errorf("%v cell found no sealed record to mutate", cfg.Cell)
	}

	// Incarnation 2: restart and run to completion.
	spec.CrashStep = -1
	if err := c.spawn(ctx, exe, spec); err != nil {
		return out, fmt.Errorf("restarted child: %w", err)
	}
	raw, err := os.ReadFile(spec.Out)
	if err != nil {
		return out, err
	}
	var rep crashReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return out, fmt.Errorf("child report: %w", err)
	}

	// The oracle: an uninterrupted in-process run of the same seed.
	refSpec := spec
	refSpec.WAL = refWAL
	ref, err := runCrashSpec(ctx, refSpec)
	if err != nil {
		return out, fmt.Errorf("reference run: %w", err)
	}

	out.resumed = rep.Resumed
	out.torn = rep.TornTail
	out.corrupt = rep.CorruptRecords > 0
	if out.mutated && !rep.TornTail && rep.CorruptRecords == 0 {
		out.silent = true
	}
	if cfg.Cell == CrashKill && crashStep >= int64(cfg.Words) && !rep.Resumed {
		// Epoch 0 was sealed and fsynced before the kill and nothing touched
		// the log: the restart must have resumed from it.
		out.resumeMissed = true
	}
	if bytes.Equal(rep.Final, ref.Final) && !rep.Detected && !rep.Tainted &&
		!out.silent && !out.resumeMissed {
		out.identical = true
	} else if !bytes.Equal(rep.Final, ref.Final) || rep.Detected || rep.Tainted {
		out.mismatched = true
	}

	if cfg.Metrics != nil {
		labels := []telemetry.Label{{Key: "cell", Value: cfg.Cell.String()}}
		cfg.Metrics.Counter("defuse_crash_trials_total", labels...).Inc()
		if !out.identical {
			cfg.Metrics.Counter("defuse_crash_failures_total", labels...).Inc()
		}
	}
	if cfg.Tracer.Enabled() {
		cfg.Tracer.Mark(telemetry.SpanContext{}, telemetry.EvCrashTrial,
			telemetry.String("cell", cfg.Cell.String()), telemetry.Int("trial", trial),
			telemetry.Int64("crash_step", crashStep), telemetry.Bool("resumed", rep.Resumed),
			telemetry.Int("resume_epoch", rep.ResumeEpoch), telemetry.Bool("torn_tail", rep.TornTail),
			telemetry.Int("corrupt_records", rep.CorruptRecords), telemetry.Bool("identical", out.identical))
	}
	return out, nil
}

// spawn runs one child incarnation, handing it the spec through the
// environment hook. Child stderr is folded into the returned error.
func (c *CrashCampaign) spawn(ctx context.Context, exe string, spec CrashSpec) error {
	raw, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), CrashChildEnv+"="+string(raw))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		if msg := bytes.TrimSpace(stderr.Bytes()); len(msg) > 0 {
			return fmt.Errorf("%w: %s", err, msg)
		}
		return err
	}
	return nil
}

// killedBySigkill reports whether a child's exit error means death by SIGKILL.
func killedBySigkill(err error) bool {
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		return false
	}
	ws, ok := exit.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL
}

// TearWAL truncates the log at path strictly inside its last valid frame —
// the footprint of a seal whose write only partially reached the platter. It
// reports whether a frame existed to tear. The crash campaign applies it
// after a kill; the chaos soak, to a killed child's active segment between
// restarts.
func TearWAL(path string, in *Injector) (bool, error) {
	scan, err := wal.Recover(path)
	if err != nil || len(scan.Records) == 0 {
		return false, nil
	}
	last := scan.Records[len(scan.Records)-1]
	frameLen := int64(16 + len(last.Payload))
	start := scan.ValidSize - frameLen
	cut := start + 1 + int64(in.Intn(int(frameLen-1)))
	return true, os.Truncate(path, cut)
}

// FlipWALBit flips one seeded bit inside the log's valid frames (past the
// file magic) — corruption of the checkpoint at rest. It reports whether a
// frame existed to corrupt.
func FlipWALBit(path string, in *Injector) (bool, error) {
	scan, err := wal.Recover(path)
	if err != nil || len(scan.Records) == 0 {
		return false, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	const magicLen = 8
	off := magicLen + in.Intn(int(scan.ValidSize)-magicLen)
	raw[off] ^= 1 << uint(in.Intn(8))
	return true, os.WriteFile(path, raw, 0o644)
}

// DefaultCrashCells returns the standard three-cell crash grid (kill,
// torn-write, disk-flip) with trials trials per cell.
func DefaultCrashCells(kind checksum.Kind, words, epochs, trials int, seed int64) []CrashConfig {
	var cells []CrashConfig
	for _, cell := range []CrashCellKind{CrashKill, CrashTornWrite, CrashDiskFlip} {
		cells = append(cells, CrashConfig{
			Kind: kind, Words: words, Epochs: epochs,
			Trials: trials, Seed: seed, Cell: cell,
		})
	}
	return cells
}
