package codegen_test

import (
	"context"
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
// both native forms — the compiled-closure backend and the committed
// generated source — must be observationally identical to it. Identical
// means byte-identical: every memory word, every checksum accumulator and
// shadow, every output array bit pattern, every verdict, every detection
// latency, on clean runs and under injected faults alike.

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
	s := err.Error()
	for _, p := range []string{"interp: ", "codegen: "} {
		if len(s) >= len(p) && s[:len(p)] == p {
			return s[len(p):]
		}
	}
	return s
}

// diffFullState asserts two machines hold bit-identical observable state.
func diffFullState(t *testing.T, label string, iw, cw []uint64, ip, cp *checksum.Pair) {
	t.Helper()
	if len(iw) != len(cw) {
		t.Fatalf("%s: memory layout diverged: interp %d words, native %d", label, len(iw), len(cw))
	}
	for i := range iw {
		if iw[i] != cw[i] {
			t.Fatalf("%s: word %d: interp %#x, native %#x", label, i, iw[i], cw[i])
		}
	}
	if pairState(ip) != pairState(cp) {
		t.Fatalf("%s: checksum state diverged:\ninterp %v\nnative %v",
			label, pairState(ip), pairState(cp))
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

// buildPair constructs an interp machine and a codegen machine over the same
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
// interpreter, the compiled closure, and the committed generated source, and
// asserts all three agree on every word, accumulator, output bit, and error.
func TestDiffCleanKernels(t *testing.T) {
	seeds := kernelSeeds(t)
	for _, b := range bench.Suite() {
		for _, v := range allVariants {
			prog, err := b.BuildVariant(v)
			if err != nil {
				t.Fatal(err)
			}
			unit, err := codegen.Compile(prog)
			if err != nil {
				t.Fatalf("%s/%s: Compile: %v", b.Name, v, err)
			}
			gen, ok := gennative.Lookup(b.Name, string(v))
			if !ok {
				t.Fatalf("%s/%s: no generated kernel in registry", b.Name, v)
			}
			if gen.Anchored != unit.Anchored() {
				t.Fatalf("%s/%s: registry Anchored=%v, Compile says %v",
					b.Name, v, gen.Anchored, unit.Anchored())
			}
			for _, seed := range seeds {
				label := string(b.Name) + "/" + string(v)
				t.Run(label, func(t *testing.T) {
					im, cm := buildPair(t, b, prog, seed)
					ierr := im.Run()
					cerr := unit.Run(cm)
					if normErr(ierr) != normErr(cerr) {
						t.Fatalf("closure error diverged: interp %q, native %q", normErr(ierr), normErr(cerr))
					}
					diffFullState(t, "closure", im.Mem().Words(), cm.Mem().Words(), im.Pair(), cm.Pair())

					_, gm := buildPair(t, b, prog, seed)
					gerr := gen.Fn(gm, 0, 1)
					if normErr(ierr) != normErr(gerr) {
						t.Fatalf("gennative error diverged: interp %q, native %q", normErr(ierr), normErr(gerr))
					}
					diffFullState(t, "gennative", im.Mem().Words(), gm.Mem().Words(), im.Pair(), gm.Pair())

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
						got, err := cm.SnapshotFloats(d.Name)
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
// rollback recovery through the interpreter backend, the compiled-closure
// backend, and the generated-source backend — each trio must agree on
// verdicts, detection latencies, retries, per-boundary state stamps, final
// memory, and final checksum state.
func TestDiffSupervisedFaults(t *testing.T) {
	const epochs = 4
	pol := recovery.Policy{MaxRetries: 2, MaxRestarts: 1}
	ctx := context.Background()
	for _, b := range bench.Suite() {
		prog, err := b.BuildVariant(bench.Resilient)
		if err != nil {
			t.Fatal(err)
		}
		unit, err := codegen.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		gen, ok := gennative.Lookup(b.Name, string(bench.Resilient))
		if !ok {
			t.Fatalf("%s: no generated kernel", b.Name)
		}
		genUnit := codegen.FnUnit(prog, gen.Anchored, gen.Fn)
		targets := floatTargets(b)
		for _, seed := range kernelSeeds(t) {
			for _, inject := range []bool{false, true} {
				name := b.Name
				t.Run(name, func(t *testing.T) {
					cfg := faults.KernelTrialConfig{
						Inject: inject, Seed: seed, Targets: targets, Policy: pol,
					}
					im, cm := buildPair(t, b, prog, seed)
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
					pc, err := codegen.PlanEpochs(cm, unit, epochs)
					if err != nil {
						t.Fatal(err)
					}
					rc, err := faults.RunKernelTrial(ctx, pc, cfg)
					if err != nil {
						t.Fatal(err)
					}
					diffTrials(t, ri, rc)

					_, gm := buildPair(t, b, prog, seed)
					pg, err := codegen.PlanEpochs(gm, genUnit, epochs)
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

// setupHost mirrors the instrument fuzz tests' deterministic generated-
// program initialization on any backend.
func setupHost(t *testing.T, m host, gp *progen.Program, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, a := range gp.FloatArrays {
		if err := m.FillFloat(a, func(int64) float64 { return rng.Float64()*8 - 4 }); err != nil {
			t.Fatal(err)
		}
	}
	for _, ia := range gp.IntArrays {
		if err := m.FillInt(ia, func(int64) int64 { return rng.Int63n(gp.N) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range gp.Scalars {
		if err := m.SetFloat(s, rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
}

// diffGenerated runs one generated program through interp and the closure
// backend under every instrumentation option set and asserts equivalence.
func diffGenerated(t *testing.T, seed int64, indirect bool) {
	rng := rand.New(rand.NewSource(seed))
	cfg := progen.DefaultConfig()
	cfg.WithIndirect = indirect
	gp := progen.Generate(rng, cfg)
	prog, err := lang.Parse(gp.Source)
	if err != nil {
		t.Fatalf("seed %d: generated program does not parse: %v\n%s", seed, err, gp.Source)
	}
	for _, opt := range []instrument.Options{{}, {Split: true}, {Split: true, Inspector: true}} {
		res, err := instrument.Instrument(prog, opt)
		if err != nil {
			t.Fatalf("seed %d opt %+v: instrument: %v\n%s", seed, opt, err, gp.Source)
		}
		im, err := interp.New(res.Prog, gp.Params)
		if err != nil {
			t.Fatalf("seed %d opt %+v: interp.New: %v", seed, opt, err)
		}
		cm, err := codegen.MachineFor(res.Prog, gp.Params)
		if err != nil {
			t.Fatalf("seed %d opt %+v: MachineFor: %v", seed, opt, err)
		}
		unit, err := codegen.Compile(res.Prog)
		if err != nil {
			t.Fatalf("seed %d opt %+v: Compile: %v\n%s", seed, opt, err, lang.Print(res.Prog))
		}
		setupHost(t, im, gp, seed)
		setupHost(t, cm, gp, seed)
		ierr := im.Run()
		cerr := unit.Run(cm)
		if normErr(ierr) != normErr(cerr) {
			t.Fatalf("seed %d opt %+v: error diverged: interp %q, native %q\n%s",
				seed, opt, normErr(ierr), normErr(cerr), gp.Source)
		}
		diffFullState(t, "generated", im.Mem().Words(), cm.Mem().Words(), im.Pair(), cm.Pair())
	}
}

// TestDiffGeneratedPrograms sweeps deterministic progen seeds, affine and
// indirect, through the differential check.
func TestDiffGeneratedPrograms(t *testing.T) {
	trials := int64(60)
	if testing.Short() {
		trials = 10
	}
	for seed := int64(0); seed < trials; seed++ {
		diffGenerated(t, 20000+seed, seed%3 == 2)
	}
}

// FuzzCodegenDiff is the continuous form: any seed the fuzzer finds must
// hold interp ≡ native over every instrumentation option set.
func FuzzCodegenDiff(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, indirect bool) {
		diffGenerated(t, seed, indirect)
	})
}
