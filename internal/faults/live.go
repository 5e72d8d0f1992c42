package faults

import (
	"context"

	"defuse/internal/recovery"
	"defuse/internal/splitmix"
	"defuse/rt"
	"defuse/telemetry"
)

// Live sampled fault injection (the FastFlip-style deployment mode from
// PAPERS.md): instead of dedicated offline campaigns, a resident service
// injects faults into a small sampled fraction of its live requests and
// checks that each one is detected and recovered in place. The sampler is a
// pure function of (seed, request ID), so the server deciding *whether* to
// inject and the load generator deciding *which requests to audit* agree
// exactly without any side channel.

// LiveSampler deterministically selects a fraction of request IDs for fault
// injection. Selection hashes the ID with a seeded splitmix64 step and
// compares against a fixed-point threshold, so the hit set is stable across
// restarts, uniformly spread across the ID space, and reproducible by any
// party that knows (rate, seed).
type LiveSampler struct {
	seed      uint64
	threshold uint64 // hits are draws strictly below this
	addrTh    uint64 // hits whose kind draw is below this get an address fault
}

// NewLiveSampler returns a sampler hitting approximately rate (clamped to
// [0,1]) of all request IDs under the given seed.
func NewLiveSampler(rate float64, seed uint64) *LiveSampler {
	return &LiveSampler{seed: seed, threshold: drawThreshold(rate)}
}

// drawThreshold maps frac, clamped to [0,1], to the fixed-point threshold
// that approximately frac of uniform 64-bit draws fall strictly below.
func drawThreshold(frac float64) uint64 {
	switch {
	case frac < 0:
		return 0
	case frac >= 1:
		return ^uint64(0)
	}
	// frac * 2^64 without overflowing float64 conversion at the top end.
	return uint64(frac * float64(1<<63) * 2)
}

// WithAddrFraction makes approximately frac (clamped to [0,1]) of sampled
// hits address faults (a wrong-location load) instead of data bit flips.
// Both parties deriving plans must use the same fraction — it is part of the
// sampler's shared (rate, seed, frac) contract. The kind draw extends the
// plan's derivation chain, so frac 0 reproduces the original plans exactly.
func (s *LiveSampler) WithAddrFraction(frac float64) *LiveSampler {
	s.addrTh = drawThreshold(frac)
	return s
}

// Draw returns the request's 64-bit hash draw. Callers that need more
// deterministic randomness for a hit (which word, which bit, which epoch)
// derive it from this draw with further splitmix64 steps rather than from a
// shared RNG, keeping requests independent.
func (s *LiveSampler) Draw(id uint64) uint64 {
	return splitmix.Mix(s.seed ^ splitmix.Mix(id))
}

// Sample reports whether request id is selected for injection.
func (s *LiveSampler) Sample(id uint64) bool {
	if s == nil || s.threshold == 0 {
		return false
	}
	return s.Draw(id) < s.threshold
}

// LiveKind selects the fault shape a sampled request receives.
type LiveKind int

const (
	// LiveFlip is a single transient bit flip in one tracked word.
	LiveFlip LiveKind = iota
	// LiveAddrWrong is a transient address-generation error: one load
	// observes a different valid tracked word (the plan's Partner) instead
	// of its intended Word.
	LiveAddrWrong
)

// String returns the wire label for the kind.
func (k LiveKind) String() string {
	if k == LiveAddrWrong {
		return "addr-wrong"
	}
	return "flip"
}

// LivePlan is the concrete injection a sampled request receives: one
// transient fault — a bit flip or a wrong-location load — mid-way through
// one epoch. All coordinates are derived from the request's draw, so the
// same (rate, seed, addr-fraction, id, words, epochs) always yields the
// same plan.
type LivePlan struct {
	Epoch int      // epoch during which the fault lands
	Word  int      // index of the struck (intended) word
	Bit   int      // bit position 0..63 (LiveFlip only)
	Kind  LiveKind // fault shape
	// Partner is the valid word a LiveAddrWrong load observes instead of
	// Word; equal to Word for LiveFlip plans.
	Partner int
}

// Plan derives the injection plan for a sampled request over a workload of
// the given word count and epoch count. Both must be positive. The kind and
// partner draws extend the derivation chain after the flip coordinates, so
// every earlier coordinate is unchanged from the flip-only sampler — two
// parties disagreeing only on the address fraction still agree on where a
// flip would land.
func (s *LiveSampler) Plan(id uint64, words, epochs int) LivePlan {
	d := s.Draw(id)
	e := splitmix.Mix(d)
	w := splitmix.Mix(e)
	b := splitmix.Mix(w)
	p := LivePlan{
		Epoch: int(e % uint64(epochs)),
		Word:  int(w % uint64(words)),
		Bit:   int(b % 64),
	}
	p.Partner = p.Word
	kd := splitmix.Mix(b)
	if kd < s.addrTh && words > 1 {
		p.Kind = LiveAddrWrong
		pd := splitmix.Mix(kd)
		j := int(pd % uint64(words-1))
		if j >= p.Word {
			j++ // skip the intended word: the partner must be a wrong location
		}
		p.Partner = j
	}
	return p
}

// RunLive runs one verify job of the resident service: the word workload
// over init, folding through tr (which must arrive Reset), as a hardened
// epoch trial supervised under pol. A non-nil plan is the job's one
// transient fault in trial coordinates: a LiveFlip flips {Word, Bit} and a
// LiveAddrWrong redirects Word's load to Partner (AddrWrong), both just
// before iteration Word of epoch Plan.Epoch. The supervisor's spans and the
// fault.injected mark hang from span. It returns the run's outcome and its
// final words.
func RunLive(ctx context.Context, tr *rt.Tracker, init []uint64, epochs int, plan *LivePlan, pol recovery.Policy, metrics *telemetry.Registry, tracer *telemetry.Tracer, span telemetry.SpanContext) (recovery.Outcome, []uint64, error) {
	t := newWordTrial(CoverageConfig{Epochs: epochs, Hardened: true, Metrics: metrics, Tracer: tracer}, init, tr)
	t.span = span
	if plan != nil {
		t.d.epoch, t.d.word = plan.Epoch, plan.Word
		if plan.Kind == LiveAddrWrong {
			t.cfg.AddrFault, t.d.addr = AddrWrong, plan.Partner
		} else {
			t.d.flips = []BitFlip{{Word: plan.Word, Bit: plan.Bit}}
		}
	}
	cfg := t.config()
	cfg.Policy = pol
	out, err := recovery.Supervise(ctx, cfg)
	if err != nil {
		return out, nil, err
	}
	return out, t.w.Words(), nil
}
