package codegen_test

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"defuse/internal/bench"
	"defuse/internal/codegen"
	"defuse/internal/interp"
	"defuse/internal/lang"
	"defuse/internal/recovery"
	"defuse/internal/wal"
)

// Context cancellation mid-epoch, for both backends. A cancelled epoch must
// behave exactly like a crashed one: the tracker and memory roll back to the
// epoch's entry checkpoint and the epoch re-executes cleanly, and under the
// durable supervisor the cancelled epoch is never sealed into the WAL — a
// resume starts from the last boundary that actually verified.

// cancelScale is larger than diffScale so every epoch spans comfortably
// more statements/ticks than the backends' 256-step cancellation poll.
const cancelScale = 0.01

const cancelEpochs = 4

// cancelEpoch is the interior epoch the tests cancel inside.
const cancelEpoch = 2

// balancedSource is a hand-instrumented, epoch-balanced kernel: every outer
// iteration folds each value into the def and use sides symmetrically, so
// the def/use identity holds at EVERY iteration boundary, not just the
// program's post-dominator. That is the soundness condition of boundary
// verification, which the durable supervisor performs — the Table 2 kernels
// are only post-dominator-balanced and cannot seal interior epochs.
const balancedSource = `
program balanced(n)
float A[n], B[n];
for i = 0 to n - 1 {
  A[i] = B[i] + 1.5;
  add_to_chksm(def_cs, A[i], 1);
  add_to_chksm(e_def_cs, A[i], 1);
  B[i] = A[i] * 2.0;
  add_to_chksm(use_cs, A[i], 1);
  add_to_chksm(e_use_cs, A[i], 1);
}
`

// buildPlan constructs an initialized machine of the requested kind and
// plans cancelEpochs epochs over it.
func buildPlan(t *testing.T, kind string, prog *lang.Program, params map[string]int64, init func(bench.DataHost)) *codegen.EpochRun {
	t.Helper()
	var p *codegen.EpochRun
	switch kind {
	case "interp":
		m, err := interp.New(prog, params)
		if err != nil {
			t.Fatal(err)
		}
		init(m)
		if p, err = m.PlanEpochs(cancelEpochs); err != nil {
			t.Fatal(err)
		}
	case "codegen":
		m, err := codegen.MachineFor(prog, params)
		if err != nil {
			t.Fatal(err)
		}
		unit, err := codegen.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		init(m)
		if p, err = codegen.PlanEpochs(m, unit, cancelEpochs); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown backend %q", kind)
	}
	return p
}

// jacobiBuilder returns a constructor for the jacobi1d Resilient kernel —
// a real instrumented benchmark for the in-memory rollback test.
func jacobiBuilder(t *testing.T) func(kind string) *codegen.EpochRun {
	t.Helper()
	for _, b := range bench.Suite() {
		if b.Name != "jacobi1d" {
			continue
		}
		prog, err := b.BuildVariant(bench.Resilient)
		if err != nil {
			t.Fatal(err)
		}
		params := b.Params(cancelScale)
		return func(kind string) *codegen.EpochRun {
			return buildPlan(t, kind, prog, params, func(h bench.DataHost) {
				b.Init(h, params, rand.New(rand.NewSource(7)))
			})
		}
	}
	t.Fatal("jacobi1d not in suite")
	return nil
}

// balancedBuilder returns a constructor for the epoch-balanced kernel used
// by the durable WAL test.
func balancedBuilder(t *testing.T) func(kind string) *codegen.EpochRun {
	t.Helper()
	prog, err := lang.Parse(balancedSource)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"n": 4000}
	return func(kind string) *codegen.EpochRun {
		return buildPlan(t, kind, prog, params, func(h bench.DataHost) {
			rng := rand.New(rand.NewSource(7))
			if err := h.FillFloat("B", func(int64) float64 { return rng.Float64()*4 - 2 }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// epochSteps runs a clean reference and returns the cumulative step counter
// at each epoch's exit plus the final memory words.
func epochSteps(t *testing.T, p *codegen.EpochRun) ([]uint64, []uint64) {
	t.Helper()
	var last uint64
	m := p.State()
	m.SetStepHook(func(step uint64) { last = step })
	var exits []uint64
	for k := 0; k < cancelEpochs; k++ {
		if err := p.RunEpoch(k); err != nil {
			t.Fatalf("reference epoch %d: %v", k, err)
		}
		exits = append(exits, last)
	}
	m.SetStepHook(nil)
	return exits, m.Mem().Words()
}

// cancelTarget picks a step count halfway into the cancel epoch — far from
// both boundaries and past at least one cancellation poll.
func cancelTarget(t *testing.T, exits []uint64) uint64 {
	t.Helper()
	span := exits[cancelEpoch] - exits[cancelEpoch-1]
	if span < 600 {
		t.Fatalf("epoch %d spans only %d steps; cancellation poll untestable", cancelEpoch, span)
	}
	return exits[cancelEpoch-1] + span/2
}

// armCancel installs a step hook that cancels the context at the target
// step and arms the machine with it.
func armCancel(p *codegen.EpochRun, target uint64) context.CancelFunc {
	ctx, cancel := context.WithCancel(context.Background())
	m := p.State()
	m.SetStepHook(func(step uint64) {
		if step >= target {
			cancel()
		}
	})
	m.SetContext(ctx)
	return cancel
}

// diffWords asserts two memories are bit-identical.
func diffWords(t *testing.T, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("memory size %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("word %d = %#x, reference %#x", i, got[i], want[i])
		}
	}
}

// TestCancelMidEpochRollback cancels a context partway through an interior
// epoch of a real instrumented kernel and asserts the cancelled epoch's
// entry checkpoint is still a valid restore point: after rollback the epoch
// re-executes cleanly and the run finishes with the exact reference state
// and verified checksums, on both backends.
func TestCancelMidEpochRollback(t *testing.T) {
	build := jacobiBuilder(t)
	for _, kind := range []string{"interp", "codegen"} {
		t.Run(kind, func(t *testing.T) {
			exits, wantWords := epochSteps(t, build(kind))
			target := cancelTarget(t, exits)

			p := build(kind)
			m := p.State()
			cancel := armCancel(p, target)
			defer cancel()
			for k := 0; k < cancelEpochs; k++ {
				if k != cancelEpoch {
					if err := p.RunEpoch(k); err != nil {
						t.Fatalf("epoch %d: %v", k, err)
					}
					continue
				}
				snap := p.Checkpoint()
				err := p.RunEpoch(k)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled epoch: got %v, want context.Canceled", err)
				}
				// Roll back and re-execute with a live context: the partial
				// epoch must leave no trace in memory or the tracker.
				m.SetStepHook(nil)
				m.SetContext(context.Background())
				if err := p.Restore(snap); err != nil {
					t.Fatalf("restore after cancel: %v", err)
				}
				if err := p.RunEpoch(k); err != nil {
					t.Fatalf("re-executed epoch %d: %v", k, err)
				}
			}
			if err := m.Pair().Scrub(); err != nil {
				t.Fatalf("scrub after rollback run: %v", err)
			}
			if err := m.Pair().Verify(); err != nil {
				t.Fatalf("verify after rollback run: %v", err)
			}
			diffWords(t, m.Mem().Words(), wantWords)
		})
	}
}

// TestCancelDurableWALUnsealed runs the durable supervisor over an
// epoch-balanced kernel, cancels it mid-epoch, and asserts the WAL holds
// seals only for boundaries that verified — then resumes from that WAL to a
// bit-identical final state, on both backends.
func TestCancelDurableWALUnsealed(t *testing.T) {
	build := balancedBuilder(t)
	pol := recovery.Policy{MaxRetries: 1, MaxRestarts: 1}

	for _, kind := range []string{"interp", "codegen"} {
		t.Run(kind, func(t *testing.T) {
			exits, wantWords := epochSteps(t, build(kind))
			target := cancelTarget(t, exits)

			walPath := filepath.Join(t.TempDir(), "kernel.wal")
			p := build(kind)
			cancel := armCancel(p, target)
			defer cancel()
			out, err := p.SuperviseDurable(context.Background(), pol, walPath)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled durable run: got err %v, want context.Canceled", err)
			}
			if out.Seals != cancelEpoch {
				t.Fatalf("sealed %d epochs, want %d (cancelled epoch must stay unsealed)", out.Seals, cancelEpoch)
			}

			// The WAL's newest record resumes from exactly the cancelled
			// epoch: earlier boundaries sealed, the cancelled one absent.
			scan, err := wal.Recover(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(scan.Records) != cancelEpoch {
				t.Fatalf("WAL holds %d records, want %d", len(scan.Records), cancelEpoch)
			}
			newest := scan.Records[len(scan.Records)-1]
			if got := binary.LittleEndian.Uint64(newest.Payload[8:]); got != uint64(cancelEpoch) {
				t.Fatalf("newest record resumes at epoch %d, want %d", got, cancelEpoch)
			}

			// Resume on a fresh machine: picks up after the last sealed
			// boundary and completes to the reference state.
			p2 := build(kind)
			out2, err := p2.SuperviseDurable(context.Background(), pol, walPath)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !out2.Resumed || out2.ResumeEpoch != cancelEpoch {
				t.Fatalf("resume: Resumed=%v ResumeEpoch=%d, want true/%d", out2.Resumed, out2.ResumeEpoch, cancelEpoch)
			}
			if out2.Tainted || out2.Detected {
				t.Fatalf("resumed run not clean: %+v", out2.Outcome)
			}
			diffWords(t, p2.State().Mem().Words(), wantWords)
		})
	}
}
