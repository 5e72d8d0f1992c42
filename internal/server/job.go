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
	"defuse/internal/splitmix"
	"defuse/rt"
	"defuse/telemetry"
)

// Request kinds.
const (
	KindVerify = "verify"
	KindKernel = "kernel"
)

// digestWords chains a word slice through splitmix64 — order- and
// length-sensitive, like memsim's snapshot digest.
func digestWords(words []uint64) uint64 {
	h := splitmix.Golden + uint64(len(words))
	for _, w := range words {
		h = splitmix.Mix(h ^ w)
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

// initWords derives a verify job's deterministic initial words.
func initWords(words int, seed, id uint64) []uint64 {
	init := make([]uint64, words)
	for i := range init {
		init[i] = splitmix.Mix(seed ^ splitmix.Mix(id) ^ splitmix.Mix(uint64(i)+1))
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
// supervisor, and digests its final words. plan, when non-nil, arms a single
// transient fault at the planned (epoch, word): injected once, mid-epoch,
// exactly as a live memory fault would land. The tracker must arrive Reset.
func runVerify(ctx context.Context, tr *rt.Tracker, job verifyJob, plan *faults.LivePlan, pol recovery.Policy, tel bench.Telemetry, span telemetry.SpanContext) (jobResult, error) {
	out, final, err := faults.RunLive(ctx, tr, initWords(job.words, job.seed, job.id), job.epochs,
		plan, pol, tel.Metrics, tel.Tracer, span)
	if err != nil {
		return jobResult{}, err
	}
	return jobResult{
		digest:    digestWords(final),
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
	h := splitmix.Golden + uint64(mem.Size())
	for i := 0; i < mem.Size(); i++ {
		h = splitmix.Mix(h ^ mem.Peek(i))
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
