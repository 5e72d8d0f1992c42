package progen

import (
	"math/rand"
	"testing"

	"defuse/internal/interp"
	"defuse/internal/lang"
)

func TestGeneratedProgramsParseAndCheck(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		gp := Generate(rand.New(rand.NewSource(seed)), DefaultConfig())
		prog, err := lang.Parse(gp.Source)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, gp.Source)
		}
		if err := lang.Check(prog); err != nil {
			t.Fatalf("seed %d: check: %v\n%s", seed, err, gp.Source)
		}
	}
}

func TestGeneratedProgramsRunInBounds(t *testing.T) {
	// Every generated program must execute without runtime errors (bounds,
	// division) on its declared parameters.
	cfg := DefaultConfig()
	cfg.WithIndirect = true
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gp := Generate(rng, cfg)
		prog := lang.MustParse(gp.Source)
		m, err := interp.New(prog, gp.Params)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, a := range gp.FloatArrays {
			if err := m.FillFloat(a, func(i int64) float64 { return float64(i%7) * 0.5 }); err != nil {
				t.Fatal(err)
			}
		}
		for _, ia := range gp.IntArrays {
			if err := m.FillInt(ia, func(i int64) int64 { return i % gp.N }); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Run(); err != nil {
			t.Fatalf("seed %d: run: %v\n%s", seed, err, gp.Source)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(42)), DefaultConfig())
	b := Generate(rand.New(rand.NewSource(42)), DefaultConfig())
	if a.Source != b.Source || a.N != b.N {
		t.Error("same seed must generate the same program")
	}
}

func TestIndirectConfigProducesIntArrays(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WithIndirect = true
	gp := Generate(rand.New(rand.NewSource(1)), cfg)
	if len(gp.IntArrays) == 0 {
		t.Error("WithIndirect should declare an index array")
	}
}

// TestWhileConfigEmitsWhile checks that WithWhile wraps a run of the
// top-level constructs in one top-level while loop whose trip count is the
// parameter w, and that the program runs that many trips for w = 0, 1 and 3.
func TestWhileConfigEmitsWhile(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WithWhile = true
	for seed := int64(0); seed < 20; seed++ {
		gp := Generate(rand.New(rand.NewSource(seed)), cfg)
		prog, err := lang.Parse(gp.Source)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, gp.Source)
		}
		if w := gp.Params["w"]; w < 0 || w > 3 {
			t.Fatalf("seed %d: trip count %d outside [0, 3]", seed, w)
		}
		whiles := 0
		for _, s := range prog.Body {
			if _, ok := s.(*lang.While); ok {
				whiles++
			}
		}
		if whiles != 1 {
			t.Fatalf("seed %d: %d top-level while loops, want 1\n%s", seed, whiles, gp.Source)
		}
		for _, trips := range []int64{0, 1, 3} {
			m, err := interp.New(prog, map[string]int64{"n": gp.N, "w": trips})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(); err != nil {
				t.Fatalf("seed %d w=%d: run: %v\n%s", seed, trips, err, gp.Source)
			}
			if got, err := m.Int("wctr"); err != nil || got != trips {
				t.Fatalf("seed %d: wctr = %d (%v) after the loop, want %d", seed, got, err, trips)
			}
		}
	}
}
