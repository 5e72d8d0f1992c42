package bench

import (
	"math"
	"testing"

	"defuse/internal/instrument"
	"defuse/internal/lang"
)

// benchScale keeps interpreter runs fast in tests.
const benchScale = 0.004

func TestSuiteComplete(t *testing.T) {
	s := Suite()
	if len(s) != 10 {
		t.Fatalf("suite has %d benchmarks, want 10 (Table 2)", len(s))
	}
	want := []string{"ADI", "CG", "cholesky", "dsyrk", "jacobi1d", "LU", "moldyn", "seidel", "strsm", "trisolv"}
	for i, name := range want {
		if s[i].Name != name {
			t.Errorf("suite[%d] = %s, want %s", i, s[i].Name, name)
		}
	}
	if _, err := ByName("cholesky"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName should fail for unknown benchmark")
	}
}

func TestSourcesParseAndCheck(t *testing.T) {
	for _, b := range Suite() {
		prog, err := lang.Parse(b.Source)
		if err != nil {
			t.Errorf("%s: parse: %v", b.Name, err)
			continue
		}
		if err := lang.Check(prog); err != nil {
			t.Errorf("%s: check: %v", b.Name, err)
		}
	}
}

func TestAllVariantsBuild(t *testing.T) {
	for _, b := range Suite() {
		for _, v := range []Variant{Original, Resilient, ResilientOpt} {
			if _, err := b.BuildVariant(v); err != nil {
				t.Errorf("%s/%s: %v", b.Name, v, err)
			}
		}
	}
}

// TestRunAllBenchmarks is the central evaluation smoke test: every benchmark
// runs all three variants fault-free (no false positives), produces
// bit-identical outputs, and exhibits the paper's overhead ordering under
// the operation-count model: original < optimized <= resilient.
func TestRunAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("long: runs 30 interpreted kernels")
	}
	for _, b := range Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			r10, r11, err := RunBenchmark(b, benchScale)
			if err != nil {
				t.Fatal(err)
			}
			if r10.ResilientOps <= 1.0 {
				t.Errorf("resilient ops ratio %.3f should exceed 1", r10.ResilientOps)
			}
			if r10.OptimizedOps <= 1.0 {
				t.Errorf("optimized ops ratio %.3f should exceed 1", r10.OptimizedOps)
			}
			// Optimization must not hurt (the paper's Figure 10 shape). A
			// small tolerance absorbs loop-bound bookkeeping.
			if r10.OptimizedOps > r10.ResilientOps*1.02 {
				t.Errorf("optimized (%.3f) worse than resilient (%.3f)", r10.OptimizedOps, r10.ResilientOps)
			}
			// Figure 11: hardware support must beat software checksums.
			if r11.HWEstimate >= r10.OptimizedOps {
				t.Errorf("hw estimate %.3f not better than software %.3f", r11.HWEstimate, r10.OptimizedOps)
			}
			if r11.HWEstimate < 1.0 {
				t.Errorf("hw estimate %.3f below 1: counters/prologue cannot be free", r11.HWEstimate)
			}
		})
	}
}

func TestCGInspectorHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// The paper: CG's gains come entirely from inspector hoisting
	// (33.7s -> 81.1s resilient -> 52.7s hoisted). Verify the ops shape.
	b, err := ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	r10, _, err := RunBenchmark(b, benchScale)
	if err != nil {
		t.Fatal(err)
	}
	if r10.OptimizedOps >= r10.ResilientOps*0.95 {
		t.Errorf("CG optimized (%.3f) should be well below resilient (%.3f)",
			r10.OptimizedOps, r10.ResilientOps)
	}
}

func TestMoldynHighestOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// The paper: moldyn has the highest overhead because its inspector
	// cannot be hoisted (counters remain).
	rows, _, err := figureRows(t, []string{"moldyn", "cholesky", "jacobi1d", "trisolv"})
	if err != nil {
		t.Fatal(err)
	}
	mold := rows["moldyn"]
	for name, r := range rows {
		if name == "moldyn" {
			continue
		}
		if mold.OptimizedOps < r.OptimizedOps {
			t.Errorf("moldyn optimized overhead (%.3f) should exceed %s's (%.3f)",
				mold.OptimizedOps, name, r.OptimizedOps)
		}
	}
}

func figureRows(t *testing.T, names []string) (map[string]Figure10Row, map[string]Figure11Row, error) {
	t.Helper()
	rows10 := map[string]Figure10Row{}
	rows11 := map[string]Figure11Row{}
	for _, name := range names {
		b, err := ByName(name)
		if err != nil {
			return nil, nil, err
		}
		r10, r11, err := RunBenchmark(b, benchScale)
		if err != nil {
			return nil, nil, err
		}
		rows10[name] = r10
		rows11[name] = r11
	}
	return rows10, rows11, nil
}

func TestCGPlansMatchPaper(t *testing.T) {
	b, err := ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	res, err := instrument.Instrument(b.Program(), instrument.Options{Split: true, Inspector: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Report.Plans
	if p["p"] != instrument.PlanInspector {
		t.Errorf("p plan = %v, want inspector", p["p"])
	}
	if p["cols"] != instrument.PlanInvariant || p["Aval"] != instrument.PlanInvariant {
		t.Errorf("cols/Aval plans = %v/%v, want invariant", p["cols"], p["Aval"])
	}
	// The while body is read as the body of "for w = 0 to W - 1": values
	// used up in the iteration that defines them get Algorithm 1's static
	// counts; loop-carried values keep the counters (r) or the inspector
	// (p, x, rnorm).
	for _, v := range []string{"q", "pq", "alpha", "beta", "rnorm_new"} {
		if p[v] != instrument.PlanStatic {
			t.Errorf("%s plan = %v, want static (used only in its own iteration)", v, p[v])
		}
	}
	if p["r"] != instrument.PlanDynamic {
		t.Errorf("r plan = %v, want dynamic (loop-carried)", p["r"])
	}
	if p["x"] != instrument.PlanInspector || p["rnorm"] != instrument.PlanInspector {
		t.Errorf("x/rnorm plans = %v/%v, want inspector", p["x"], p["rnorm"])
	}
	if res.Report.InspectorsHoisted != 1 {
		t.Errorf("inspectors = %d, want 1", res.Report.InspectorsHoisted)
	}
}

func TestMoldynPlansMatchPaper(t *testing.T) {
	b, err := ByName("moldyn")
	if err != nil {
		t.Fatal(err)
	}
	res, err := instrument.Instrument(b.Program(), instrument.Options{Split: true, Inspector: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Report.Plans
	// The neighbor list is rebuilt each iteration: x cannot be
	// inspector-counted and falls back to dynamic counters.
	if p["x"] != instrument.PlanDynamic {
		t.Errorf("x plan = %v, want dynamic (inspector not hoistable)", p["x"])
	}
	// The neighbor list and the forces are rebuilt and used up in every
	// iteration: static counts. stride is loop-carried.
	if p["neigh"] != instrument.PlanStatic || p["f"] != instrument.PlanStatic {
		t.Errorf("neigh/f plans = %v/%v, want static", p["neigh"], p["f"])
	}
	if p["stride"] != instrument.PlanDynamic {
		t.Errorf("stride plan = %v, want dynamic (loop-carried)", p["stride"])
	}
}

func TestFormatters(t *testing.T) {
	rows := []Figure10Row{{Bench: "x", ResilientOps: 1.6, OptimizedOps: 1.3}}
	if s := FormatFigure10(rows); s == "" || len(s) < 20 {
		t.Error("empty figure 10 format")
	}
	rows11 := []Figure11Row{{Bench: "x", HWEstimate: 1.05}}
	if s := FormatFigure11(rows11); s == "" {
		t.Error("empty figure 11 format")
	}
	r, o := GeoMeans(rows)
	if math.Abs(r-1.6) > 1e-9 || math.Abs(o-1.3) > 1e-9 {
		t.Errorf("geomeans = %v, %v", r, o)
	}
}
