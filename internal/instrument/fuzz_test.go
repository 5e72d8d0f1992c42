package instrument

import (
	"math"
	"math/rand"
	"testing"

	"defuse/internal/interp"
	"defuse/internal/lang"
	"defuse/internal/progen"
)

// setupGenerated initializes a generated program's data deterministically.
func setupGenerated(m *interp.Machine, gp *progen.Program, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, a := range gp.FloatArrays {
		if err := m.FillFloat(a, func(i int64) float64 { return rng.Float64()*8 - 4 }); err != nil {
			panic(err)
		}
	}
	for _, ia := range gp.IntArrays {
		if err := m.FillInt(ia, func(i int64) int64 { return rng.Int63n(gp.N) }); err != nil {
			panic(err)
		}
	}
	for _, s := range gp.Scalars {
		if err := m.SetFloat(s, rng.Float64()); err != nil {
			panic(err)
		}
	}
}

// TestFuzzAffinePrograms generates random affine programs and checks the
// central soundness properties on each, for every optimization combination:
// the instrumented program type-checks, produces bit-identical outputs, and
// never reports a false positive. A wrong use count anywhere in the
// polyhedral pipeline makes the def/use checksums diverge, so this is an
// end-to-end differential test of the whole analysis stack.
func TestFuzzAffinePrograms(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 20
	}
	cfg := progen.DefaultConfig()
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		gp := progen.Generate(rng, cfg)
		checkGenerated(t, gp, trial)
	}
}

// TestFuzzIndirectPrograms adds data-dependent subscripts, exercising the
// dynamic-counter path against the same properties.
func TestFuzzIndirectPrograms(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	cfg := progen.DefaultConfig()
	cfg.WithIndirect = true
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		gp := progen.Generate(rng, cfg)
		checkGenerated(t, gp, trial)
	}
}

// TestFuzzWhilePrograms puts a run of each generated program in a top-level
// while loop, whose body reads a per-trip temporary, and checks the same
// properties at 0, 1 and 3 trips: a use count that needs the trip count, or
// a value carried between trips on a static plan, fails the checksums.
func TestFuzzWhilePrograms(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	cfg := progen.DefaultConfig()
	cfg.WithWhile = true
	for trial := 0; trial < trials; trial++ {
		cfg.WithIndirect = trial%3 == 2
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		gp := progen.Generate(rng, cfg)
		for _, trips := range []int64{0, 1, 3} {
			gp.Params["w"] = trips
			checkGenerated(t, gp, trial)
		}
	}
}

func checkGenerated(t *testing.T, gp *progen.Program, trial int) {
	t.Helper()
	prog, err := lang.Parse(gp.Source)
	if err != nil {
		t.Fatalf("trial %d: generated program does not parse: %v\n%s", trial, err, gp.Source)
	}
	ref, err := interp.New(prog, gp.Params)
	if err != nil {
		t.Fatalf("trial %d: %v\n%s", trial, err, gp.Source)
	}
	setupGenerated(ref, gp, int64(trial))
	if err := ref.Run(); err != nil {
		t.Fatalf("trial %d: original run failed: %v\n%s", trial, err, gp.Source)
	}

	for _, opt := range []Options{{}, {Split: true}, {Split: true, Inspector: true}} {
		res, err := Instrument(prog, opt)
		if err != nil {
			t.Fatalf("trial %d opt %+v: instrument: %v\n%s", trial, opt, err, gp.Source)
		}
		m, err := interp.New(res.Prog, gp.Params)
		if err != nil {
			t.Fatalf("trial %d opt %+v: machine: %v\n%s", trial, opt, err, lang.Print(res.Prog))
		}
		setupGenerated(m, gp, int64(trial))
		if err := m.Run(); err != nil {
			t.Fatalf("trial %d opt %+v: FALSE POSITIVE or crash: %v\nprogram:\n%s\ninstrumented:\n%s",
				trial, opt, err, gp.Source, lang.Print(res.Prog))
		}
		for _, a := range gp.FloatArrays {
			want, err := ref.SnapshotFloats(a)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.SnapshotFloats(a)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("trial %d opt %+v: %s[%d] = %v, want %v\nprogram:\n%s",
						trial, opt, a, i, got[i], want[i], gp.Source)
				}
			}
		}
	}
}

// TestFuzzSingleBitDetection injects one bit flip per generated program at a
// random mid-run step into a random float array cell; the run must either
// detect it or complete with intact checksums — never crash, never corrupt
// silently while claiming verification of a *tracked, still-live* value.
func TestFuzzSingleBitDetection(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	detected := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		gp := progen.Generate(rng, progen.DefaultConfig())
		prog, err := lang.Parse(gp.Source)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Instrument(prog, Options{Split: true})
		if err != nil {
			t.Fatal(err)
		}
		clean, err := interp.New(res.Prog, gp.Params)
		if err != nil {
			t.Fatal(err)
		}
		setupGenerated(clean, gp, int64(trial))
		if err := clean.Run(); err != nil {
			t.Fatalf("trial %d: clean run failed: %v", trial, err)
		}
		if clean.Counts.Stmts < 4 {
			continue
		}
		m, err := interp.New(res.Prog, gp.Params)
		if err != nil {
			t.Fatal(err)
		}
		setupGenerated(m, gp, int64(trial))
		arr := gp.FloatArrays[rng.Intn(len(gp.FloatArrays))]
		base, size, err := m.Region(arr)
		if err != nil {
			t.Fatal(err)
		}
		step := uint64(rng.Int63n(int64(clean.Counts.Stmts-2))) + 1
		addr := base + rng.Intn(size)
		fired := false
		m.SetStepHook(func(cur uint64) {
			if !fired && cur == step {
				m.Mem().FlipBit(addr, rng.Intn(64))
				fired = true
			}
		})
		err = m.Run()
		switch err.(type) {
		case nil:
			// Flip outside any def-use window: acceptable.
		case *interp.DetectionError:
			detected++
		default:
			t.Fatalf("trial %d: unexpected error: %v\n%s", trial, err, gp.Source)
		}
	}
	if detected == 0 {
		t.Error("no injected fault detected across all fuzz trials")
	}
}
