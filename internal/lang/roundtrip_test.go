package lang_test

import (
	"math/rand"
	"testing"

	"defuse/internal/bench"
	"defuse/internal/lang"
	"defuse/internal/progen"
)

// The printer must be a faithful inverse of the parser: parse → Print →
// parse must converge, with the second print byte-identical to the first
// (Print is the canonical form). Every tool that round-trips programs
// through text — WAL fingerprints, the native source generator and its
// registry — relies on this.

// roundTrip asserts print/parse convergence for one program.
func roundTrip(t *testing.T, label string, prog *lang.Program) {
	t.Helper()
	first := lang.Print(prog)
	reparsed, err := lang.Parse(first)
	if err != nil {
		t.Fatalf("%s: printed program does not re-parse: %v\n%s", label, err, first)
	}
	second := lang.Print(reparsed)
	if first != second {
		t.Fatalf("%s: print/parse did not converge:\nfirst:\n%s\nsecond:\n%s", label, first, second)
	}
	// The reparsed program must be semantically intact, not just printable.
	if err := lang.Check(prog); err == nil {
		if err := lang.Check(reparsed); err != nil {
			t.Fatalf("%s: original checks but reparse does not: %v", label, err)
		}
	}
}

// TestRoundTripKernels round-trips every Table 2 benchmark in all three
// variants — raw and instrumented (the instrumenter emits synthesized AST
// nodes that never came from the parser, the printer's hardest inputs).
func TestRoundTripKernels(t *testing.T) {
	for _, b := range bench.Suite() {
		for _, v := range []bench.Variant{bench.Original, bench.Resilient, bench.ResilientOpt} {
			prog, err := b.BuildVariant(v)
			if err != nil {
				t.Fatal(err)
			}
			roundTrip(t, b.Name+"/"+string(v), prog)
		}
	}
}

// TestRoundTripGenerated round-trips generated programs, affine and
// indirect, over a deterministic seed sweep.
func TestRoundTripGenerated(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 25
	}
	for trial := 0; trial < trials; trial++ {
		cfg := progen.DefaultConfig()
		cfg.WithIndirect = trial%3 == 2
		gp := progen.Generate(rand.New(rand.NewSource(int64(40000+trial))), cfg)
		prog, err := lang.Parse(gp.Source)
		if err != nil {
			t.Fatalf("trial %d: generated program does not parse: %v\n%s", trial, err, gp.Source)
		}
		roundTrip(t, "generated", prog)
	}
}

// FuzzLangRoundTrip fuzzes print/parse convergence over the generator's
// seed space.
func FuzzLangRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, indirect bool) {
		cfg := progen.DefaultConfig()
		cfg.WithIndirect = indirect
		gp := progen.Generate(rand.New(rand.NewSource(seed)), cfg)
		prog, err := lang.Parse(gp.Source)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, gp.Source)
		}
		roundTrip(t, "fuzz", prog)
	})
}
