package faults

import (
	"context"
	"errors"

	"defuse/internal/checksum"
	"defuse/internal/machine"
	"defuse/internal/recovery"
	"defuse/telemetry"
)

// This file runs epoch-structured injection trials against real instrumented
// kernels instead of the synthetic rt-protected array the rest of the
// package exercises. A trial runs on the shared epoch layer (machine.Plan),
// so the interpreter and the native codegen engine enter the same way,
// differing only in their epoch body. The trial is the execution substrate
// of the codegen differential oracle: two backends fed the same program,
// data, and injector stream must produce identical verdicts, latencies,
// per-epoch state stamps, and final memory.
//
// Instrumented kernels are NOT epoch-balanced — the instrumenter proves its
// def/use identity at the program's post-dominator, not at arbitrary
// interior cuts of the kernel loop — so interior boundaries scrub the
// detector (self-check) but only the final boundary runs the full def/use
// verification. Detection latency for kernels is therefore measured to the
// final boundary, the placement the paper's Figure 4 verification uses.

// KernelTrialConfig parameterizes one kernel trial.
type KernelTrialConfig struct {
	// Inject enables fault injection; false runs the trial clean (the
	// differential baseline).
	Inject bool
	// Seed keys the injector's deterministic draw stream.
	Seed int64
	// Targets names the float variables eligible for injection, in draw
	// order. Empty with Inject set is an error surfaced by RunKernelTrial.
	Targets []string
	// Policy is the recovery policy (zero value: detect only, no retry).
	Policy recovery.Policy
}

// KernelStamp is the per-epoch observable state fingerprint the
// differential harness compares: captured at every epoch boundary after the
// boundary's checks, before the next epoch begins.
type KernelStamp struct {
	Epoch     int
	MemDigest uint64
	Def, Use  uint64
	EDef      uint64
	EUse      uint64
}

// KernelTrialResult is everything observable about one trial.
type KernelTrialResult struct {
	Backend string
	Outcome recovery.Outcome
	// Stamps has one entry per verified epoch boundary, in order. A boundary
	// that detected (and was retried) contributes one entry per attempt.
	Stamps []KernelStamp
	// FinalWords is the complete simulated memory at trial end.
	FinalWords []uint64
	// Pair is the final accumulator state.
	Pair checksum.Pair
	// Err is the terminal error text with the backend prefix stripped, ""
	// on success — backends must agree on it.
	Err string
	// Injection coordinates actually used (meaningful when Inject).
	InjEpoch, InjWord, InjBit int
}

// stripPrefix removes the backend-identifying error prefix so the two
// backends' otherwise-identical diagnostics compare equal.
func stripPrefix(s string) string {
	for _, p := range []string{"interp: ", "codegen: "} {
		if len(s) >= len(p) && s[:len(p)] == p {
			return s[len(p):]
		}
	}
	return s
}

// RunKernelTrial executes one supervised trial of an epoch plan over an
// initialized machine, under the plan's own supervisor configuration (its
// checkpoint, restore, and the machine's telemetry) with the trial's
// injecting epoch body and boundary checks.
// The injector stream draws, in order: injection epoch, target variable
// slot, word offset within the target, bit. The flip lands at the injected
// epoch's entry, after its checkpoint is parked — the transient-fault model
// (re-execution from the checkpoint does not see the fault again).
func RunKernelTrial(ctx context.Context, p *machine.Plan, cfg KernelTrialConfig) (KernelTrialResult, error) {
	m := p.State()
	epochs := p.Epochs()
	res := KernelTrialResult{Backend: m.Backend(), InjEpoch: -1, InjWord: -1, InjBit: -1}

	injEpoch, injWord, injBit := -1, -1, -1
	if cfg.Inject {
		if len(cfg.Targets) == 0 {
			return res, errors.New("faults: kernel trial injects but names no target variable")
		}
		in := NewInjector(cfg.Seed)
		injEpoch = in.Intn(epochs)
		slot := in.Intn(len(cfg.Targets))
		base, size, err := m.Region(cfg.Targets[slot])
		if err != nil {
			return res, err
		}
		injWord = base + in.Intn(size)
		injBit = in.Intn(64)
		res.InjEpoch, res.InjWord, res.InjBit = injEpoch, injWord, injBit
	}

	injected := false
	run := func(k int) error {
		if cfg.Inject && !injected && k == injEpoch {
			injected = true
			m.Mem().FlipBit(injWord, injBit)
			telemetry.Emit(m.Trace(), telemetry.EvFaultInjected, map[string]any{
				"scheme": "kernel", "backend": m.Backend(),
				"epoch": k, "word": injWord, "bit": injBit,
			})
		}
		return p.RunEpoch(k)
	}

	stamp := func(k int) {
		pair := m.Pair()
		sn := m.Mem().Snapshot()
		res.Stamps = append(res.Stamps, KernelStamp{
			Epoch: k, MemDigest: sn.Digest(),
			Def: pair.Def, Use: pair.Use, EDef: pair.EDef, EUse: pair.EUse,
		})
	}

	verify := func(k int) error {
		// Interior boundaries: detector self-check only — the kernel's
		// def/use identity holds at the program's post-dominator, not at
		// arbitrary interior cuts.
		err := m.Pair().Scrub()
		if err == nil && k == epochs-1 {
			err = m.Pair().Verify()
		}
		stamp(k)
		return err
	}

	sc := p.Config(cfg.Policy, telemetry.SpanContext{})
	sc.Run, sc.Verify = run, verify
	out, err := recovery.Supervise(ctx, sc)
	res.Outcome = out
	if err != nil {
		res.Err = stripPrefix(err.Error())
	}
	res.FinalWords = m.Mem().Words()
	res.Pair = *m.Pair()
	return res, nil
}
