// Package codegen lowers checked (and typically instrumented) lang programs
// to natively compiled Go: Source and SourceFile render a program as Go
// source, which cmd/genkernels commits for the Table 2 kernels (see the
// gennative subpackage) and which tests build offline for any program they
// generate. Generated code executes against Machine, which embeds the same
// simulated-machine state as interp.Machine (internal/machine: memory,
// checksum.Pair, layout, telemetry wiring, and the epoch layer with its
// checkpoints, durable encoding and fingerprint), so fault coordinates,
// checkpoints, WAL records, and verdicts carry across backends unchanged.
// This package owns only the lowering and the runtime the generated code
// calls.
//
// The interpreter remains the reference oracle: the native semantics below
// replicate interp's dynamic semantics exactly — evaluation order, integer
// and float typing (static here, dynamic there, provably equal on checked
// programs), store conversions, bounds and division-by-zero errors down to
// the message text, and checksum folds. The folds go into a per-call
// checksum.Folds delta file, flushed into the checksum.Pair before every
// assert_checksums and on return; the operators are associative, so the
// Pair and its shadow copies end bit-identical to the interpreter's direct
// ScaleFold calls. The differential harness in diff_test.go holds the
// generated source to byte-identical outputs, accumulator and shadow state,
// epoch digests, verdicts, and detection latencies: the committed kernels
// in process, and generated programs and error programs through one offline
// build of their rendered source.
//
// What is different, by design: the native backend does not maintain
// interp's per-operation OpCounts (the cost-model columns stay
// interpreter-derived), and its step/cancellation budget ticks once per loop
// iteration rather than once per statement. Neither affects observable
// program state.
package codegen

import (
	"fmt"

	"defuse/internal/lang"
	"defuse/internal/machine"
)

// Fn is the native execution ABI: run epoch k of an epochs-partitioned
// execution against m. Running epochs 0..epochs-1 in order is equivalent to
// one full interpreter Run; Fn(m, 0, 1) is the single-shot full run. The
// epoch partition replicates interp.EpochPlan's chunk arithmetic over the
// program's kernel loop (lang.KernelLoop; see Slice).
type Fn func(m *Machine, epoch, epochs int) error

// CheckEpoch validates an epoch coordinate. Generated code calls it on
// entry.
func CheckEpoch(epoch, epochs int) error {
	if epochs < 1 || epoch < 0 || epoch >= epochs {
		return fmt.Errorf("codegen: epoch %d out of range [0,%d)", epoch, epochs)
	}
	return nil
}

// Slice returns the inclusive iteration sub-range of [lo,hi] assigned to
// epoch k of n: the epoch layer's chunk arithmetic (machine.Slice), under
// the name generated code calls.
func Slice(lo, hi int64, k, n int) (start, end int64) { return machine.Slice(lo, hi, k, n) }

// RuntimeError reports a native execution failure (bounds, division by
// zero, step budget). Its position and message text match the interpreter's
// RuntimeError for the same program point, so differential harnesses can
// compare failures modulo the package prefix.
type RuntimeError struct {
	Pos lang.Pos
	Msg string
}

func (e *RuntimeError) Error() string { return fmt.Sprintf("codegen: %s: %s", e.Pos, e.Msg) }

// DetectionError reports that assert_checksums() detected a memory error.
type DetectionError struct {
	Pos lang.Pos
	Err error // the underlying *checksum.MismatchError
}

func (e *DetectionError) Error() string {
	return fmt.Sprintf("codegen: %s: %v", e.Pos, e.Err)
}

func (e *DetectionError) Unwrap() error { return e.Err }

// CancelError reports that execution was abandoned because the machine's
// context was cancelled. It unwraps to the context error, mirroring
// interp.CancelError, so recovery's DefaultClassify treats it as terminal.
type CancelError struct {
	Pos lang.Pos
	Err error
}

func (e *CancelError) Error() string { return fmt.Sprintf("codegen: %s: cancelled: %v", e.Pos, e.Err) }

func (e *CancelError) Unwrap() error { return e.Err }

// Runtime helpers referenced by generated code. They replicate interp's
// intrinsic semantics for integer arguments.

// AbsI returns the integer absolute value, interp-style (no special casing
// of MinInt64: Go negation wraps identically in both backends).
func AbsI(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// MinI returns the smaller integer.
func MinI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// MaxI returns the larger integer.
func MaxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// B2I converts a comparison result to the language's 0/1 integer booleans.
func B2I(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
