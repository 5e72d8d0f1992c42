// Package server is the resident detection service behind cmd/defused: a
// long-running HTTP front end where every request executes under a
// per-request epoch discipline on pooled detector state, supervised by
// internal/recovery with per-request deadlines, bounded retry+backoff, and
// three-way fault classification. The package provides the tracker and
// machine pools, admission control with a bounded queue and load-shedding
// (429s instead of collapse), SIGTERM-style graceful drain, a WAL journal of
// completed requests with startup resume and re-verification, and the load
// generator that measures the service's latency and fault-recovery behavior
// under sustained concurrent traffic.
//
// Two request kinds map the paper's end-of-interval verification onto live
// traffic (see DESIGN.md):
//
//   - verify jobs run the rt def/use word-update workload: every tracked
//     word is used, advanced, and redefined each epoch, and finalized at
//     every epoch boundary, so the checksums are quiescent exactly where
//     verification happens. Within this discipline any single-bit data flip
//     inside an epoch is detected at that epoch's own boundary, which is
//     what lets the service inject faults into a sampled fraction of live
//     verify requests and assert 100% detection + recovery.
//   - kernel jobs execute an instrumented benchmark program on a pooled
//     interpreter machine; the program's own checksum placement (the
//     post-dominator of all defs and uses) verifies at the end of the run.
//     Kernel traffic is always clean — its role under load is to prove that
//     recovery activity on neighboring requests never disturbs it.
package server

import (
	"context"
	"fmt"

	"defuse/internal/bench"
	"defuse/internal/faults"
	"defuse/internal/interp"
	"defuse/internal/recovery"
	"defuse/rt"
	"defuse/telemetry"
)

// Request kinds.
const (
	KindVerify = "verify"
	KindKernel = "kernel"
)

// mix is the splitmix64 finalizer, used to derive per-request initial words
// and to chain result digests.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// initWord derives word i's deterministic initial value for a verify job.
func initWord(seed, id uint64, i int) uint64 {
	return mix(seed ^ mix(id) ^ mix(uint64(i)+1))
}

// digestWords chains a word slice through splitmix64 — order- and
// length-sensitive, like memsim's snapshot digest.
func digestWords(words []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15) + uint64(len(words))
	for _, w := range words {
		h = mix(h ^ w)
	}
	return h
}

// ReferenceDigest computes, without executing anything, the digest a clean
// verify job must produce: every word advanced epochs times from its derived
// initial value. Both the server (to detect silent corruption before
// journaling) and the load generator (to audit responses independently)
// compute it; a recovered request must land exactly here.
func ReferenceDigest(words, epochs int, seed, id uint64) uint64 {
	return digestWords(faults.FaultFree(initWords(words, seed, id), epochs))
}

// initWords derives a verify job's initial words.
func initWords(words int, seed, id uint64) []uint64 {
	init := make([]uint64, words)
	for i := range init {
		init[i] = initWord(seed, id, i)
	}
	return init
}

// verifyJob is one verify request's resolved parameters.
type verifyJob struct {
	id     uint64
	words  int
	epochs int
	seed   uint64
}

// jobResult is the outcome of one executed request.
type jobResult struct {
	digest    uint64
	refDigest uint64
	outcome   recovery.Outcome
}

// runVerify executes one verify job — the faults package's word workload,
// folding through a pooled tracker that owns the epochs — under the recovery
// supervisor. plan, when non-nil, arms a single transient fault at the
// planned (epoch, word): injected once, mid-epoch, exactly as a live memory
// fault would land. The tracker must arrive Reset.
func runVerify(ctx context.Context, tr *rt.Tracker, job verifyJob, plan *faults.LivePlan, pol recovery.Policy, tel bench.Telemetry, span telemetry.SpanContext) (jobResult, error) {
	w := faults.NewWordWorkload(initWords(job.words, job.seed, job.id), tr, make([]rt.Counter, job.words))
	injected := false
	strike := func(i int) (load, store int) {
		injected = true
		load = i
		if plan.Kind == faults.LiveAddrWrong {
			// A corrupted index register: this one load observes a different
			// valid word. The use fold sees the wrong value (distinct with
			// overwhelming probability — words derive from splitmix64), so the
			// boundary check flags it.
			load = plan.Partner
		} else {
			w.FlipBit(plan.Word, plan.Bit)
		}
		if tel.Tracer.Enabled() {
			tel.Tracer.Mark(span, telemetry.EvFaultInjected,
				telemetry.Int("epoch", plan.Epoch), telemetry.Int("word", plan.Word),
				telemetry.Int("bit", plan.Bit), telemetry.String("kind", plan.Kind.String()),
				telemetry.Int("partner", plan.Partner), telemetry.String("mode", "live"))
		}
		return load, i
	}
	run := func(k int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		at := -1
		if plan != nil && !injected && k == plan.Epoch {
			at = plan.Word
		}
		w.RunEpoch(at, strike)
		return nil
	}
	out, err := recovery.Supervise(ctx, recovery.Config{
		Epochs:     job.epochs,
		Run:        run,
		Verify:     func(k int) error { return w.Boundary(k == job.epochs-1, tr.ScrubDetector) },
		Checkpoint: w.Checkpoint,
		Restore:    func(snap any) error { return w.Restore(snap, true) },
		Policy:     pol,
		Metrics:    tel.Metrics,
		Tracer:     tel.Tracer,
		Span:       span,
	})
	if err != nil {
		return jobResult{}, err
	}
	return jobResult{
		digest:    digestWords(w.Words()),
		refDigest: ReferenceDigest(job.words, job.epochs, job.seed, job.id),
		outcome:   out,
	}, nil
}

// kernelRunner is one pooled interpreter machine preloaded with an
// instrumented benchmark. The machine is built once and Reset between
// requests; Init re-seeds the arrays, so every request executes the same
// deterministic program and must reproduce the same digest.
type kernelRunner struct {
	bench  *bench.Benchmark
	params map[string]int64
	m      *interp.Machine
	plan   *interp.EpochPlan
}

// newKernelRunner parses, instruments (Resilient variant — the program's own
// assert verifies at its end), and allocates one machine.
func newKernelRunner(b *bench.Benchmark, scale float64, tel bench.Telemetry) (*kernelRunner, error) {
	prog, err := b.BuildVariantWith(bench.Resilient, tel)
	if err != nil {
		return nil, err
	}
	params := b.Params(scale)
	m, err := interp.New(prog, params, interp.WithMetrics(tel.Metrics), interp.WithTracer(tel.Tracer))
	if err != nil {
		return nil, err
	}
	b.InitDefault(m, params)
	// A single epoch spans the whole program: the checksum placement is the
	// instrumenter's post-dominator, so the def/use fold is balanced exactly
	// at the program's end — the paper's end-of-interval verification with
	// the interval being the request.
	plan, err := m.PlanEpochs(1)
	if err != nil {
		return nil, err
	}
	return &kernelRunner{bench: b, params: params, m: m, plan: plan}, nil
}

// reset returns the runner to a freshly initialized state for the next
// request.
func (kr *kernelRunner) reset() {
	kr.m.Reset()
	kr.plan.Reset()
	kr.bench.InitDefault(kr.m, kr.params)
}

// run executes the kernel under supervision with the request's deadline
// propagated into the interpreter's step loop, and digests the machine's
// final memory image.
func (kr *kernelRunner) run(ctx context.Context, pol recovery.Policy) (uint64, recovery.Outcome, error) {
	kr.m.SetContext(ctx)
	out, err := kr.plan.Supervise(ctx, pol)
	kr.m.SetContext(nil)
	if err != nil {
		return 0, out, err
	}
	return kr.digest(), out, nil
}

// digest chains the machine's entire memory image — every output array and
// scalar — so two runs agree iff they are byte-identical.
func (kr *kernelRunner) digest() uint64 {
	mem := kr.m.Mem()
	h := uint64(0x9e3779b97f4a7c15) + uint64(mem.Size())
	for i := 0; i < mem.Size(); i++ {
		h = mix(h ^ mem.Peek(i))
	}
	return h
}

// warmup runs the kernel once cleanly to establish its reference digest, and
// fails if the instrumented program does not verify.
func (kr *kernelRunner) warmup(ctx context.Context) (uint64, error) {
	digest, out, err := kr.run(ctx, recovery.Policy{})
	if err != nil {
		return 0, fmt.Errorf("server: kernel warmup %s: %w", kr.bench.Name, err)
	}
	if out.Detected || out.Tainted {
		return 0, fmt.Errorf("server: kernel warmup %s: clean run reported detected=%v tainted=%v",
			kr.bench.Name, out.Detected, out.Tainted)
	}
	kr.reset()
	return digest, nil
}
