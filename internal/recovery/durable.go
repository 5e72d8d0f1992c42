package recovery

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"defuse/internal/wal"
	"defuse/telemetry"
)

// DurableSupervisor runs a supervised epoch loop whose sealed epochs are
// persisted to an on-disk write-ahead checkpoint log, so that recovery
// survives not just a detected corruption but the death of the process
// itself. On startup it scans the log: if a valid record with a matching
// config fingerprint exists, the application state it carries is decoded
// (its payload digest re-verified) and the run resumes from the epoch after
// the one it sealed; otherwise the run starts from scratch. Each record the
// scanner or decoder refuses falls back to the strictly older one — a
// corrupt checkpoint is never resumed silently, matching the in-memory
// policy of ClassCheckpoint at process scale.
type DurableSupervisor struct {
	// Config is the supervised run. StartEpoch and Commit are owned by the
	// durable supervisor and must be left zero/nil.
	Config
	// Path is the checkpoint log file. Required.
	Path string
	// Fingerprint identifies the run configuration (program, parameters,
	// epoch count). A record sealed under a different fingerprint is skipped
	// during resume: state from another workload must not leak in.
	Fingerprint uint64
	// EncodeState renders the application state at an epoch boundary in a
	// stable binary form whose decoder re-verifies an integrity digest.
	// Called after each verified epoch. Required.
	EncodeState func() ([]byte, error)
	// DecodeState installs previously encoded state, failing (typically with
	// an error wrapping a checkpoint-corrupt sentinel) when the bytes cannot
	// be trusted. Called at most once per candidate record during resume.
	// Required.
	DecodeState func([]byte) error
}

// DurableOutcome extends Outcome with the durability story of the run.
type DurableOutcome struct {
	Outcome
	// Resumed reports that startup installed state from a durable checkpoint.
	Resumed bool
	// ResumeEpoch is the epoch execution started from (0 when not resumed).
	ResumeEpoch int
	// Seals counts checkpoint records fsynced during this run.
	Seals int
	// CorruptRecords counts records refused during resume — CRC-failed
	// frames, digest-failed payloads, or foreign fingerprints.
	CorruptRecords int
	// TornTail reports that recovery discarded a truncated final frame (the
	// previous process died mid-seal).
	TornTail bool
}

// durableRecordHeader is the fixed prefix of every WAL payload: the config
// fingerprint and the epoch index that execution should resume from.
const durableRecordHeader = 16

// Run executes the supervised loop with durable checkpoints. Terminal errors
// are those of Supervise plus I/O failures of the log itself; a corrupt or
// torn log is not terminal — it degrades to an older record or a fresh start
// and is reported in the outcome and via wal.* telemetry.
func (d *DurableSupervisor) Run(ctx context.Context) (DurableOutcome, error) {
	out := DurableOutcome{Outcome: Outcome{Epochs: d.Epochs, FirstDetection: -1}}
	if d.Path == "" || d.EncodeState == nil || d.DecodeState == nil {
		return out, errors.New("recovery: DurableSupervisor needs Path, EncodeState, and DecodeState")
	}
	if d.Config.StartEpoch != 0 || d.Config.Commit != nil {
		return out, errors.New("recovery: DurableSupervisor owns Config.StartEpoch and Config.Commit")
	}

	rspan := d.Config.Tracer.Start(d.Config.Span, "wal.recover")
	log, err := d.resume(&out, &rspan)
	rspan.EndErr(err)
	if err != nil {
		return out, err
	}
	defer log.Close()

	cfg := d.Config
	cfg.StartEpoch = out.ResumeEpoch
	log.SetTracer(cfg.Tracer, cfg.Span)
	sealBytes := cfg.Metrics.Gauge("defuse_wal_checkpoint_bytes")
	sealLatency := cfg.Metrics.Histogram("defuse_wal_seal_seconds", telemetry.DefBuckets())
	cfg.Commit = func(k int) error {
		start := time.Now()
		sspan := cfg.Tracer.Start(cfg.Span, "wal.seal", telemetry.Int("epoch", k))
		app, err := d.EncodeState()
		if err != nil {
			sspan.EndErr(err)
			return err
		}
		payload := make([]byte, durableRecordHeader+len(app))
		binary.LittleEndian.PutUint64(payload, d.Fingerprint)
		binary.LittleEndian.PutUint64(payload[8:], uint64(k+1))
		copy(payload[durableRecordHeader:], app)
		log.SetTracer(cfg.Tracer, sspan.Context())
		if err := log.Append(payload); err != nil {
			sspan.EndErr(err)
			return err
		}
		sspan.End(telemetry.Int("bytes", len(payload)))
		out.Seals++
		d := time.Since(start)
		cfg.Metrics.Counter("defuse_wal_seals_total").Inc()
		sealBytes.Set(float64(len(payload)))
		sealLatency.Observe(d.Seconds())
		return nil
	}

	out.Outcome, err = Supervise(ctx, cfg)
	return out, err
}

// resume scans the checkpoint log, installs the newest usable record's state,
// and returns an open append handle positioned after the last frame that
// survives. Unusable records (torn, CRC-failed, digest-failed, foreign
// fingerprint) are reported in out and marked under span, then discarded —
// the log is truncated (or recreated) so the refused bytes cannot resurface.
// A resumed record's epoch, position and size become span's attributes.
func (d *DurableSupervisor) resume(out *DurableOutcome, span *telemetry.Span) (*wal.Log, error) {
	var opts wal.Options
	scan, err := wal.Recover(d.Path)
	out.TornTail = scan.TornTail
	if out.TornTail {
		d.Tracer.Mark(span.Context(), telemetry.EvWALTornTail, telemetry.Int("bytes", scan.TornBytes))
		d.Metrics.Counter("defuse_wal_torn_tails_total").Inc()
	}
	noteCorrupt := func(cause error) {
		out.CorruptRecords++
		d.Tracer.Mark(span.Context(), telemetry.EvWALCorrupt, telemetry.String("error", cause.Error()))
		d.Metrics.Counter("defuse_wal_corrupt_total").Inc()
	}
	if err != nil {
		if errors.Is(err, wal.ErrNoCheckpoint) {
			return wal.Create(d.Path, opts)
		}
		if errors.Is(err, wal.ErrCheckpointCorrupt) {
			// Nothing in the log can be trusted; refuse it loudly and start
			// over — never resume silently wrong state.
			noteCorrupt(err)
			return wal.Create(d.Path, opts)
		}
		return nil, err
	}
	out.CorruptRecords += scan.Corrupt
	for i := 0; i < scan.Corrupt; i++ {
		noteCorrupt(wal.ErrCheckpointCorrupt)
	}

	// Walk newest to oldest: the first record whose fingerprint matches and
	// whose payload decodes (digest verified) wins. Anything refused on the
	// way down is corruption of recovery state — count and discard it.
	usable := -1
	for i := len(scan.Records) - 1; i >= 0; i-- {
		r := scan.Records[i]
		if len(r.Payload) < durableRecordHeader {
			noteCorrupt(fmt.Errorf("record seq %d: short payload (%d bytes)", r.Seq, len(r.Payload)))
			continue
		}
		if fp := binary.LittleEndian.Uint64(r.Payload); fp != d.Fingerprint {
			noteCorrupt(fmt.Errorf("record seq %d: fingerprint %#x, want %#x", r.Seq, fp, d.Fingerprint))
			continue
		}
		epoch := binary.LittleEndian.Uint64(r.Payload[8:])
		if epoch > uint64(d.Epochs) {
			noteCorrupt(fmt.Errorf("record seq %d: resume epoch %d of %d", r.Seq, epoch, d.Epochs))
			continue
		}
		if derr := d.DecodeState(r.Payload[durableRecordHeader:]); derr != nil {
			noteCorrupt(fmt.Errorf("record seq %d: %w", r.Seq, derr))
			continue
		}
		usable = i
		out.Resumed = true
		out.ResumeEpoch = int(epoch)
		break
	}
	if usable < 0 {
		// No record survived its checks: start from scratch on a fresh log.
		return wal.Create(d.Path, opts)
	}
	*span = span.SetAttr(telemetry.Int("epoch", out.ResumeEpoch),
		telemetry.Int("records", usable+1), telemetry.Int("bytes", len(scan.Records[usable].Payload)))
	d.Metrics.Counter("defuse_wal_recoveries_total").Inc()
	// Drop any newer-but-refused records before appending: Open truncates
	// only the torn/poisoned remainder past ValidSize, so records the decoder
	// refused must be rewritten away explicitly.
	if usable != len(scan.Records)-1 {
		if err := wal.Rewrite(d.Path, scan.Records[:usable+1]); err != nil {
			return nil, err
		}
		scan, err = wal.Recover(d.Path)
		if err != nil {
			return nil, err
		}
	}
	return wal.Open(scan, opts)
}
