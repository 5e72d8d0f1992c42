// Package recovery turns the checksum detector into a dependable system: a
// supervisor runs an epoch-structured computation, checkpoints its protected
// state at every epoch boundary, and on a detected checksum mismatch rolls
// the state back and re-executes just that epoch. Retries are bounded with
// exponential backoff; when they are exhausted the supervisor escalates to a
// full-run restart, and when restarts are exhausted too it degrades
// gracefully — the run continues and completes, but its result is marked
// tainted. This bounds the detection-to-recovery window that the paper's
// program-end verification leaves open (see DESIGN.md).
//
// Failures are classified into three modes, each with its own response:
//
//   - data fault (*checksum.MismatchError): the protected data was corrupted;
//     roll back to the epoch's entry checkpoint and re-execute with backoff.
//   - detector fault (*rt.DetectorFaultError, *checksum.ScrubError): the
//     detector's own state was struck, so its verdict is untrustworthy;
//     rebuild the tracker state from the last sealed epoch (no backoff — the
//     data is presumed fine) and re-run the epoch.
//   - corrupt checkpoint (rt.ErrCheckpointCorrupt, memsim.ErrCheckpointCorrupt):
//     the recovery state itself was hit; restoring it would install silently
//     wrong data, so escalate straight to a full restart from initial state.
package recovery

import (
	"context"
	"errors"
	"fmt"
	"time"

	"defuse/internal/checksum"
	"defuse/internal/memsim"
	"defuse/rt"
	"defuse/telemetry"
)

// FaultClass is the supervisor's classification of a failed epoch attempt.
type FaultClass int

const (
	// ClassNone marks an error that is not a detected fault at all — a
	// terminal execution failure the supervisor must surface, not retry.
	ClassNone FaultClass = iota
	// ClassData marks corruption of the protected data: rollback + re-execute.
	ClassData
	// ClassDetector marks corruption of the detector's own state: rebuild it
	// from the last sealed epoch and re-run without backoff.
	ClassDetector
	// ClassCheckpoint marks corruption of a parked checkpoint: escalate to a
	// full restart; the rollback path itself cannot be trusted.
	ClassCheckpoint
)

// String returns a short label for the class.
func (c FaultClass) String() string {
	switch c {
	case ClassData:
		return "data"
	case ClassDetector:
		return "detector"
	case ClassCheckpoint:
		return "checkpoint"
	default:
		return "none"
	}
}

// SelfClassifying lets fault types defined above the runtime core (e.g. the
// dme package's divergence errors; dme imports this package) declare their
// own class without recovery importing them.
// DefaultClassify consults it after the core error types.
type SelfClassifying interface {
	error
	RecoveryClass() FaultClass
}

// DefaultClassify maps the runtime's error types onto the three failure
// modes. Checkpoint sentinels are checked first: a corrupt-checkpoint error
// wrapping a rollback failure must escalate even if other evidence is
// present. Detector faults are checked before data faults because a struck
// detector produces untrustworthy mismatch reports.
func DefaultClassify(err error) FaultClass {
	if err == nil {
		return ClassNone
	}
	if errors.Is(err, rt.ErrCheckpointCorrupt) || errors.Is(err, memsim.ErrCheckpointCorrupt) {
		return ClassCheckpoint
	}
	var df *rt.DetectorFaultError
	var se *checksum.ScrubError
	if errors.As(err, &df) || errors.As(err, &se) {
		return ClassDetector
	}
	var mm *checksum.MismatchError
	if errors.As(err, &mm) {
		return ClassData
	}
	var sc SelfClassifying
	if errors.As(err, &sc) {
		return sc.RecoveryClass()
	}
	return ClassNone
}

// Policy bounds the supervisor's recovery effort. The zero value performs no
// retries and no restarts: the first unrecovered detection degrades the run.
type Policy struct {
	// MaxRetries is the number of rollback re-executions (or detector
	// rebuilds) allowed per epoch attempt before escalating.
	MaxRetries int
	// MaxRestarts is the number of full-run restarts allowed (across the
	// whole run) before degrading.
	MaxRestarts int
	// Backoff is the pause before the first retry of an epoch; successive
	// retries multiply it by BackoffFactor. Zero means retry immediately.
	Backoff time.Duration
	// BackoffFactor scales Backoff on each successive retry of the same
	// epoch. Values below 1 (including 0) mean 2.
	BackoffFactor float64
	// Sleep, when non-nil, replaces time.Sleep for backoff pauses (test
	// injection point).
	Sleep func(time.Duration)
}

// DefaultPolicy returns the production defaults: three retries per epoch,
// one full restart, 1ms initial backoff doubling per retry.
func DefaultPolicy() Policy {
	return Policy{MaxRetries: 3, MaxRestarts: 1, Backoff: time.Millisecond, BackoffFactor: 2}
}

// Delay returns the backoff pause before retry number retry (0-based): Backoff
// scaled by BackoffFactor^retry, with factors below 1 meaning 2. This is the
// single source of the schedule — Supervise uses it for epoch re-executions,
// and the load generator reuses it when a server sheds with no Retry-After.
func (p Policy) Delay(retry int) time.Duration {
	factor := p.BackoffFactor
	if factor < 1 {
		factor = 2
	}
	d := float64(p.Backoff)
	for i := 0; i < retry; i++ {
		d *= factor
	}
	return time.Duration(d)
}

// Config describes one supervised epoch-structured run.
type Config struct {
	// Epochs is the number of epochs the run is divided into (>= 1).
	Epochs int
	// Run executes epoch k against the current (possibly restored) state.
	Run func(k int) error
	// Verify checks integrity at the boundary closing epoch k; nil error
	// means the epoch is clean. A nil Verify trusts Run's own error.
	Verify func(k int) error
	// Checkpoint captures everything Run mutates; Restore reinstates a
	// snapshot it returned, failing (typically with a corrupt-checkpoint
	// error) when the snapshot cannot be trusted. Both are required.
	Checkpoint func() any
	Restore    func(snap any) error
	// StartEpoch is the first epoch to execute (default 0). A durable
	// supervisor that resumed state sealed at an epoch boundary sets it to
	// the next epoch; the initial checkpoint is then the resumed state, so a
	// full restart rewinds to the resume point, not to a state the process
	// never held. StartEpoch == Epochs is legal and runs nothing (the prior
	// process sealed the final epoch and died before reporting).
	StartEpoch int
	// Commit, when non-nil, is called after each epoch's verification
	// succeeds, with the just-closed epoch index, until the run degrades: a
	// state that follows an unverified epoch is never sealed, so a restart
	// re-executes from the last clean seal. It is the durability hook: a
	// failure to persist is a terminal error (the run's recovery guarantee
	// can no longer be honored), surfaced from Supervise.
	Commit func(k int) error

	Policy  Policy
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records one span per epoch attempt (named
	// "epoch", attributes epoch/attempt/ok, with a "verify" child) plus
	// spans for each recovery action (recovery.rollback with its
	// backoff_seconds, recovery.rebuild, recovery.restart), all children of
	// Span. A failed attempt's detector.fault or checkpoint.corrupt and a
	// recovery.degraded are marked as point spans. A nil tracer is free.
	Tracer *telemetry.Tracer
	// Span is the parent context the supervisor's spans attach to (the
	// caller's "run" span); the zero value roots a fresh trace.
	Span telemetry.SpanContext
}

// Outcome summarizes a supervised run.
type Outcome struct {
	// Epochs is the configured epoch count.
	Epochs int
	// Detected reports whether any epoch verification ever failed.
	Detected bool
	// FirstDetection is the epoch index of the first failed verification,
	// or -1 when the run was clean.
	FirstDetection int
	// Retries counts rollback re-executions across the whole run.
	Retries int
	// Restarts counts full-run restarts.
	Restarts int
	// Rebuilds counts detector-state rebuilds (detector-fault recoveries).
	Rebuilds int
	// DataFaults, DetectorFaults, and CheckpointFaults count failed attempts
	// by classification across the whole run.
	DataFaults       int
	DetectorFaults   int
	CheckpointFaults int
	// Recovered reports that corruption was detected and the run still
	// completed with every epoch verified.
	Recovered bool
	// Tainted reports graceful degradation: the run completed and its
	// result was reported, but at least one epoch could not be verified.
	Tainted bool
}

// Supervise executes cfg.Epochs epochs under checkpoint/rollback recovery.
// It returns a non-nil error only for terminal failures: an invalid config,
// a context cancellation, or a Run error classified as ClassNone. Detected
// faults are handled per their class and reported in the Outcome.
func Supervise(ctx context.Context, cfg Config) (Outcome, error) {
	o := Outcome{Epochs: cfg.Epochs, FirstDetection: -1}
	if cfg.Epochs < 1 {
		return o, fmt.Errorf("recovery: need at least 1 epoch, got %d", cfg.Epochs)
	}
	if cfg.Run == nil || cfg.Checkpoint == nil || cfg.Restore == nil {
		return o, errors.New("recovery: Config needs Run, Checkpoint, and Restore")
	}
	if cfg.StartEpoch < 0 || cfg.StartEpoch > cfg.Epochs {
		return o, fmt.Errorf("recovery: StartEpoch %d out of range [0,%d]", cfg.StartEpoch, cfg.Epochs)
	}
	sleep := cfg.Policy.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	verifications := func(result string) *telemetry.Counter {
		return cfg.Metrics.Counter("defuse_epoch_verifications_total",
			telemetry.Label{Key: "result", Value: result})
	}
	backoffHist := cfg.Metrics.Histogram("defuse_recovery_backoff_seconds", telemetry.DefBuckets())
	verifyHist := cfg.Metrics.Histogram("defuse_epoch_verify_seconds", telemetry.DefBuckets())

	// noteDetection records the first failed verification and per-class
	// tallies for one failed attempt, marking detector and checkpoint faults
	// under span (the failed attempt, or the recovery action that failed).
	noteDetection := func(k int, class FaultClass, err error, span telemetry.SpanContext) {
		if !o.Detected {
			o.Detected = true
			o.FirstDetection = k
		}
		mark := ""
		switch class {
		case ClassData:
			o.DataFaults++
		case ClassDetector:
			o.DetectorFaults++
			mark = telemetry.EvDetectorFault
			cfg.Metrics.Counter("defuse_detector_faults_total").Inc()
		case ClassCheckpoint:
			o.CheckpointFaults++
			mark = telemetry.EvCheckpointCorrupt
			cfg.Metrics.Counter("defuse_checkpoint_corrupt_total").Inc()
		}
		if mark != "" && cfg.Tracer.Enabled() {
			cfg.Tracer.Mark(span, mark, telemetry.Int("epoch", k), telemetry.String("error", err.Error()))
		}
	}

	initial := cfg.Checkpoint()
	for {
		restart := false
		// escalateRestart restores the initial checkpoint for a full-run
		// restart; if even that restore fails, recovery is out of options
		// and the run degrades.
		escalateRestart := func(k int) {
			if o.Restarts < cfg.Policy.MaxRestarts {
				o.Restarts++
				cfg.Metrics.Counter("defuse_recovery_restarts_total").Inc()
				var rspan telemetry.Span
				if cfg.Tracer.Enabled() {
					rspan = cfg.Tracer.Start(cfg.Span, "recovery.restart",
						telemetry.Int("epoch", k), telemetry.Int("restart", o.Restarts))
				}
				rerr := cfg.Restore(initial)
				rspan.EndErr(rerr)
				if rerr != nil {
					noteDetection(k, DefaultClassify(rerr), rerr, rspan.Context())
				} else {
					restart = true
					return
				}
			}
			o.Tainted = true
			if cfg.Tracer.Enabled() {
				cfg.Tracer.Mark(cfg.Span, telemetry.EvRecoveryDegraded, telemetry.Int("epoch", k))
			}
			cfg.Metrics.Counter("defuse_recovery_degraded_total").Inc()
		}
		for k := cfg.StartEpoch; k < cfg.Epochs && !restart; k++ {
			if err := ctx.Err(); err != nil {
				return o, err
			}
			snap := cfg.Checkpoint()
			retries := 0
			// dataRetries drives the backoff schedule: detector rebuilds
			// retry immediately and must not advance it.
			dataRetries := 0
			verified := false
			for {
				// Attributes are built only when tracing: an untraced
				// attempt allocates none.
				var attempt telemetry.Span
				if cfg.Tracer.Enabled() {
					attempt = cfg.Tracer.Start(cfg.Span, "epoch",
						telemetry.Int("epoch", k), telemetry.Int("attempt", retries))
				}
				err := cfg.Run(k)
				if err == nil && cfg.Verify != nil {
					vspan := cfg.Tracer.Start(attempt.Context(), "verify")
					vstart := time.Now()
					err = cfg.Verify(k)
					verifyHist.Observe(time.Since(vstart).Seconds())
					vspan.EndErr(err)
				}
				attempt.EndErr(err)
				if err == nil {
					verifications("ok").Inc()
					verified = true
					break
				}
				verifications("mismatch").Inc()
				class := DefaultClassify(err)
				if class == ClassNone {
					return o, err
				}
				if o.Tainted {
					// Already degraded: report-and-continue, no more
					// recovery effort. The fault that degraded the run was
					// tallied then; later boundaries still see its
					// unrepaired imbalance, so they must not count it again.
					break
				}
				noteDetection(k, class, err, attempt.Context())
				if cerr := ctx.Err(); cerr != nil {
					return o, cerr
				}
				if class == ClassCheckpoint {
					// The rollback path itself is compromised; retrying
					// through it would restore corrupt state.
					escalateRestart(k)
					break
				}
				if retries < cfg.Policy.MaxRetries {
					retries++
					o.Retries++
					span := "recovery.rollback"
					var backoff time.Duration
					if class == ClassDetector {
						// The detector was struck, not the data: restore the
						// epoch checkpoint (detector state included) and
						// re-run immediately — no backoff, since nothing
						// suggests the data path is under sustained
						// disturbance.
						o.Rebuilds++
						cfg.Metrics.Counter("defuse_recovery_rebuilds_total").Inc()
						span = "recovery.rebuild"
					} else {
						backoff = cfg.Policy.Delay(dataRetries)
						dataRetries++
						cfg.Metrics.Counter("defuse_recovery_retries_total").Inc()
						backoffHist.Observe(backoff.Seconds())
						if backoff > 0 {
							sleep(backoff)
						}
					}
					var rspan telemetry.Span
					if cfg.Tracer.Enabled() {
						rspan = cfg.Tracer.Start(cfg.Span, span,
							telemetry.Int("epoch", k), telemetry.Int("attempt", retries),
							telemetry.Float("backoff_seconds", backoff.Seconds()))
					}
					rerr := cfg.Restore(snap)
					rspan.EndErr(rerr)
					if rerr != nil {
						// The epoch checkpoint cannot be reinstated —
						// typically because it was itself corrupted.
						noteDetection(k, DefaultClassify(rerr), rerr, rspan.Context())
						escalateRestart(k)
						break
					}
					continue
				}
				escalateRestart(k)
				break
			}
			if verified && !o.Tainted && cfg.Commit != nil {
				if cerr := cfg.Commit(k); cerr != nil {
					return o, fmt.Errorf("recovery: commit of epoch %d: %w", k, cerr)
				}
			}
		}
		if !restart {
			break
		}
	}
	o.Recovered = o.Detected && !o.Tainted
	return o, nil
}
