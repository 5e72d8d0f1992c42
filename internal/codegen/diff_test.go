package codegen_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"defuse/internal/bench"
	"defuse/internal/checksum"
	"defuse/internal/codegen"
	"defuse/internal/codegen/gennative"
	"defuse/internal/faults"
	"defuse/internal/instrument"
	"defuse/internal/interp"
	"defuse/internal/lang"
	"defuse/internal/progen"
	"defuse/internal/recovery"
)

// The differential oracle: the interpreter is the reference semantics, and
// the generated source must be observationally identical to it. Identical
// means byte-identical: every memory word, every checksum accumulator and
// shadow, every output array bit pattern, every verdict, every detection
// latency, on clean runs and under injected faults alike. The committed
// kernels (gennative) run in process; generated programs run through the
// source leg (srcleg_test.go).

// diffScale keeps kernel problem sizes small enough to run every kernel ×
// variant × seed combination in test time.
const diffScale = 0.002

// host is the initialization surface both machines share.
type host interface {
	SetFloat(name string, v float64, idx ...int64) error
	SetInt(name string, v int64, idx ...int64) error
	FillFloat(name string, gen func(flat int64) float64) error
	FillInt(name string, gen func(flat int64) int64) error
}

// pairState flattens a checksum pair for comparison.
func pairState(p *checksum.Pair) [8]uint64 {
	sh := p.Shadows()
	return [8]uint64{p.Def, p.Use, p.EDef, p.EUse, sh[0], sh[1], sh[2], sh[3]}
}

// normErr strips the backend prefix so otherwise-identical diagnostics
// compare equal.
func normErr(err error) string {
	if err == nil {
		return ""
	}
	return normMsg(err.Error())
}

// normMsg strips the backend prefix from an error's text.
func normMsg(s string) string {
	for _, p := range []string{"interp: ", "codegen: "} {
		if len(s) >= len(p) && s[:len(p)] == p {
			return s[len(p):]
		}
	}
	return s
}

// diffFullState asserts two machines hold bit-identical observable state:
// memory words and checksum pair state.
func diffFullState(t *testing.T, label string, iw, cw []uint64, ip, cp [8]uint64) {
	t.Helper()
	if len(iw) != len(cw) {
		t.Fatalf("%s: memory layout diverged: interp %d words, native %d", label, len(iw), len(cw))
	}
	for i := range iw {
		if iw[i] != cw[i] {
			t.Fatalf("%s: word %d: interp %#x, native %#x", label, i, iw[i], cw[i])
		}
	}
	if ip != cp {
		t.Fatalf("%s: checksum state diverged:\ninterp %#x\nnative %#x", label, ip, cp)
	}
}

// kernelSeeds is the differential battery's seed set (>= 8, per the
// acceptance bar). -short trims it.
func kernelSeeds(t *testing.T) []int64 {
	if testing.Short() {
		return []int64{1, 2}
	}
	return []int64{1, 2, 3, 4, 5, 6, 7, 8}
}

var allVariants = []bench.Variant{bench.Original, bench.Resilient, bench.ResilientOpt}

// buildPair constructs an interp machine and a native machine over the same
// program with identically seeded data.
func buildPair(t *testing.T, b *bench.Benchmark, prog *lang.Program, seed int64) (*interp.Machine, *codegen.Machine) {
	t.Helper()
	params := b.Params(diffScale)
	im, err := interp.New(prog, params)
	if err != nil {
		t.Fatalf("%s: interp.New: %v", b.Name, err)
	}
	cm, err := codegen.MachineFor(prog, params)
	if err != nil {
		t.Fatalf("%s: codegen.MachineFor: %v", b.Name, err)
	}
	b.Init(im, params, rand.New(rand.NewSource(seed)))
	b.Init(cm, params, rand.New(rand.NewSource(seed)))
	return im, cm
}

// TestDiffCleanKernels runs every kernel × variant × seed clean, through the
// interpreter and the committed generated source, and asserts both agree on
// every word, accumulator, output bit, and error.
func TestDiffCleanKernels(t *testing.T) {
	seeds := kernelSeeds(t)
	for _, b := range bench.Suite() {
		for _, v := range allVariants {
			prog, err := b.BuildVariant(v)
			if err != nil {
				t.Fatal(err)
			}
			gen, ok := gennative.Lookup(b.Name, string(v))
			if !ok {
				t.Fatalf("%s/%s: no generated kernel in registry", b.Name, v)
			}
			for _, seed := range seeds {
				label := string(b.Name) + "/" + string(v)
				t.Run(label, func(t *testing.T) {
					im, gm := buildPair(t, b, prog, seed)
					ierr := im.Run()
					gerr := gen.Fn(gm, 0, 1)
					if normErr(ierr) != normErr(gerr) {
						t.Fatalf("gennative error diverged: interp %q, native %q", normErr(ierr), normErr(gerr))
					}
					diffFullState(t, "gennative", im.Mem().Words(), gm.Mem().Words(), pairState(im.Pair()), pairState(gm.Pair()))

					// Output arrays, compared through the same accessor the
					// bench harness uses.
					for _, d := range b.Program().Decls {
						if d.Type != lang.TypeFloat || !d.IsArray() {
							continue
						}
						want, err := im.SnapshotFloats(d.Name)
						if err != nil {
							t.Fatal(err)
						}
						got, err := gm.SnapshotFloats(d.Name)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want {
							if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
								t.Fatalf("%s[%d] = %v, interp %v", d.Name, i, got[i], want[i])
							}
						}
					}
				})
				// Only the first seed needs every variant; deeper seeds run
				// below in the supervised battery.
				if v != bench.Resilient {
					break
				}
			}
		}
	}
}

// floatTargets lists a benchmark's float arrays, the injection-eligible
// regions (present under both backends with identical layout).
func floatTargets(b *bench.Benchmark) []string {
	var names []string
	for _, d := range b.Program().Decls {
		if d.Type == lang.TypeFloat && d.IsArray() {
			names = append(names, d.Name)
		}
	}
	return names
}

// diffTrials compares two kernel trial results field by field.
func diffTrials(t *testing.T, ri, rc faults.KernelTrialResult) {
	t.Helper()
	if ri.InjEpoch != rc.InjEpoch || ri.InjWord != rc.InjWord || ri.InjBit != rc.InjBit {
		t.Fatalf("injection coordinates diverged: interp (%d,%d,%d), native (%d,%d,%d)",
			ri.InjEpoch, ri.InjWord, ri.InjBit, rc.InjEpoch, rc.InjWord, rc.InjBit)
	}
	if ri.Outcome != rc.Outcome {
		t.Fatalf("outcome diverged:\ninterp %+v\nnative %+v", ri.Outcome, rc.Outcome)
	}
	if ri.Err != rc.Err {
		t.Fatalf("terminal error diverged: interp %q, native %q", ri.Err, rc.Err)
	}
	if len(ri.Stamps) != len(rc.Stamps) {
		t.Fatalf("stamp count diverged: interp %d, native %d", len(ri.Stamps), len(rc.Stamps))
	}
	for i := range ri.Stamps {
		if ri.Stamps[i] != rc.Stamps[i] {
			t.Fatalf("stamp %d diverged:\ninterp %+v\nnative %+v", i, ri.Stamps[i], rc.Stamps[i])
		}
	}
	if len(ri.FinalWords) != len(rc.FinalWords) {
		t.Fatalf("final memory size diverged: interp %d, native %d", len(ri.FinalWords), len(rc.FinalWords))
	}
	for i := range ri.FinalWords {
		if ri.FinalWords[i] != rc.FinalWords[i] {
			t.Fatalf("final word %d diverged: interp %#x, native %#x", i, ri.FinalWords[i], rc.FinalWords[i])
		}
	}
	if pairState(&ri.Pair) != pairState(&rc.Pair) {
		t.Fatalf("final checksum state diverged:\ninterp %v\nnative %v",
			pairState(&ri.Pair), pairState(&rc.Pair))
	}
}

// TestDiffSupervisedFaults is the headline battery: every kernel, every
// seed, clean AND fault-injected, run as a 4-epoch supervised trial with
// rollback recovery through the interpreter and the generated source —
// each pair must agree on verdicts, detection latencies, retries,
// per-boundary state stamps, final memory, and final checksum state. Both
// instrumented variants run, so the injected, rolled-back and retried trials
// cross the generated kernels' outlined loop nests in each (subtests of
// Resilient-Optimized end in -opt).
func TestDiffSupervisedFaults(t *testing.T) {
	const epochs = 4
	pol := recovery.Policy{MaxRetries: 2, MaxRestarts: 1}
	ctx := context.Background()
	for _, b := range bench.Suite() {
		for _, v := range []bench.Variant{bench.Resilient, bench.ResilientOpt} {
			prog, err := b.BuildVariant(v)
			if err != nil {
				t.Fatal(err)
			}
			gen, ok := gennative.Lookup(b.Name, string(v))
			if !ok {
				t.Fatalf("%s %s: no generated kernel", b.Name, v)
			}
			targets := floatTargets(b)
			name := b.Name
			if v == bench.ResilientOpt {
				name += "-opt"
			}
			for _, seed := range kernelSeeds(t) {
				for _, inject := range []bool{false, true} {
					t.Run(name, func(t *testing.T) {
						cfg := faults.KernelTrialConfig{
							Inject: inject, Seed: seed, Targets: targets, Policy: pol,
						}
						im, gm := buildPair(t, b, prog, seed)
						pi, err := im.PlanEpochs(epochs)
						if err != nil {
							t.Fatal(err)
						}
						if inject {
							// Nothing to inject into is a config error, not a panic.
							noTargets := cfg
							noTargets.Targets = nil
							if _, err := faults.RunKernelTrial(ctx, pi, noTargets); err == nil {
								t.Fatal("injecting trial with no targets: no error")
							}
						}
						ri, err := faults.RunKernelTrial(ctx, pi, cfg)
						if err != nil {
							t.Fatal(err)
						}
						pg, err := codegen.PlanEpochs(gm, prog, gen.Fn, epochs)
						if err != nil {
							t.Fatal(err)
						}
						rg, err := faults.RunKernelTrial(ctx, pg, cfg)
						if err != nil {
							t.Fatal(err)
						}
						diffTrials(t, ri, rg)
					})
				}
			}
		}
	}
}

// setupHost mirrors the instrument fuzz tests' deterministic generated-
// program initialization on any backend.
func setupHost(t *testing.T, m host, gp *progen.Program, seed int64) {
	t.Helper()
	if err := initProgen(m, gp, seed); err != nil {
		t.Fatal(err)
	}
}

// initProgen fills a generated program's arrays and scalars from seed.
func initProgen(m host, gp *progen.Program, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, a := range gp.FloatArrays {
		if err := m.FillFloat(a, func(int64) float64 { return rng.Float64()*8 - 4 }); err != nil {
			return err
		}
	}
	for _, ia := range gp.IntArrays {
		if err := m.FillInt(ia, func(int64) int64 { return rng.Int63n(gp.N) }); err != nil {
			return err
		}
	}
	for _, s := range gp.Scalars {
		if err := m.SetFloat(s, rng.Float64()); err != nil {
			return err
		}
	}
	return nil
}

// legOptions are the instrumentation option sets every generated program
// runs under.
var legOptions = []instrument.Options{{}, {Split: true}, {Split: true, Inspector: true}}

// generate builds the progen program of a seed.
func generate(seed int64, indirect bool) (*progen.Program, *lang.Program, error) {
	cfg := progen.DefaultConfig()
	cfg.WithIndirect = indirect
	gp := progen.Generate(rand.New(rand.NewSource(seed)), cfg)
	prog, err := lang.Parse(gp.Source)
	if err != nil {
		return nil, nil, fmt.Errorf("seed %d: generated program does not parse: %v\n%s", seed, err, gp.Source)
	}
	return gp, prog, nil
}

// progenSeeds is the number of progen seeds, from 20000 on, the source leg
// builds; every third one has indirect subscripts.
const progenSeeds = 20

// progenLegCases instruments every source-leg progen seed under every
// option set.
func progenLegCases() ([]legCase, error) {
	var cases []legCase
	for i := int64(0); i < progenSeeds; i++ {
		seed := 20000 + i
		gp, prog, err := generate(seed, i%3 == 2)
		if err != nil {
			return nil, err
		}
		for _, opt := range legOptions {
			res, err := instrument.Instrument(prog, opt)
			if err != nil {
				return nil, fmt.Errorf("seed %d opt %+v: instrument: %v\n%s", seed, opt, err, gp.Source)
			}
			cases = append(cases, legCase{
				name: fmt.Sprintf("progen%d/split=%v,inspector=%v", seed, opt.Split, opt.Inspector),
				prog: res.Prog, params: gp.Params,
				init: func(h host) error { return initProgen(h, gp, seed) },
			})
		}
	}
	return cases, nil
}

// TestDiffGeneratedPrograms runs deterministic progen seeds, affine and
// indirect, under every instrumentation option set on interp and through
// the source leg, and requires the same memory, checksum pair and error.
func TestDiffGeneratedPrograms(t *testing.T) {
	cases, err := progenLegCases()
	if err != nil {
		t.Fatal(err)
	}
	native := nativeLeg(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { diffLeg(t, interpLeg(t, c), native[c.name]) })
	}
}

// FuzzSourceRenders renders any progen program under every instrumentation
// option set: the source generator's planner and outliner must return Go
// source, with no error and no panic. Building and running each input would
// take a go build per input; TestDiffGeneratedPrograms does that for a
// fixed seed set.
func FuzzSourceRenders(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, indirect bool) {
		gp, prog, err := generate(seed, indirect)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range legOptions {
			res, err := instrument.Instrument(prog, opt)
			if err != nil {
				t.Fatalf("seed %d opt %+v: instrument: %v\n%s", seed, opt, err, gp.Source)
			}
			if _, err := codegen.Source(res.Prog, "run_fuzz"); err != nil {
				t.Fatalf("seed %d opt %+v: render: %v\n%s", seed, opt, err, lang.Print(res.Prog))
			}
		}
	})
}
