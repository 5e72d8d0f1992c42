package instrument

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"defuse/internal/interp"
	"defuse/internal/lang"
)

const choleskySrc = `
program cholesky(n)
float A[n][n];
for j = 0 to n - 1 {
  S1: A[j][j] = sqrt(A[j][j]);
  for i = j + 1 to n - 1 {
    S2: A[i][j] = A[i][j] / A[j][j];
  }
}
`

const cgishSrc = `
program cgish(n, maxiter)
float p_new[n];
float temp1, temp2, temp3;
int cols[n];
int iter;
iter = 0;
while (iter < maxiter) {
  for j1 = 0 to n - 1 {
    S1: temp1 += p_new[cols[j1]];
  }
  for j2 = 0 to n - 1 {
    S2: temp2 += p_new[j2];
  }
  temp3 = temp2 / 1000.0;
  for j3 = 0 to n - 1 {
    S3: p_new[j3] = temp3;
  }
  iter = iter + 1;
}
`

// kernels used by the matrix of option-combination tests.
var kernels = []struct {
	name   string
	src    string
	params map[string]int64
	setup  func(m *interp.Machine)
}{
	{
		name: "cholesky", src: choleskySrc,
		params: map[string]int64{"n": 8},
		setup: func(m *interp.Machine) {
			m.FillFloat("A", func(i int64) float64 { return 0.1*float64(i%13) + 1 })
			for d := int64(0); d < 8; d++ {
				m.SetFloat("A", 50+float64(d), d, d)
			}
		},
	},
	{
		name: "jacobi1d", src: `
program jacobi1d(n, tmax)
float A[n], B[n];
for t = 0 to tmax - 1 {
  for i = 1 to n - 2 {
    S1: B[i] = (A[i - 1] + A[i] + A[i + 1]) / 3.0;
  }
  for i = 1 to n - 2 {
    S2: A[i] = B[i];
  }
}
`,
		params: map[string]int64{"n": 12, "tmax": 4},
		setup: func(m *interp.Machine) {
			m.FillFloat("A", func(i int64) float64 { return float64(i * i % 17) })
		},
	},
	{
		name: "trisolv", src: `
program trisolv(n)
float L[n][n], x[n], b[n];
for i = 0 to n - 1 {
  S1: x[i] = b[i];
  for j = 0 to i - 1 {
    S2: x[i] = x[i] - L[i][j] * x[j];
  }
  S3: x[i] = x[i] / L[i][i];
}
`,
		params: map[string]int64{"n": 9},
		setup: func(m *interp.Machine) {
			m.FillFloat("L", func(i int64) float64 { return 0.01 * float64(i%7) })
			for d := int64(0); d < 9; d++ {
				m.SetFloat("L", 2+float64(d), d, d)
			}
			m.FillFloat("b", func(i int64) float64 { return float64(i + 1) })
		},
	},
	{
		name: "cgish", src: cgishSrc,
		params: map[string]int64{"n": 10, "maxiter": 5},
		setup: func(m *interp.Machine) {
			m.FillFloat("p_new", func(i int64) float64 { return float64(i) + 0.5 })
			m.FillInt("cols", func(i int64) int64 { return (i * 3) % 10 })
		},
	},
	{
		// A guard over a variable the guarded code assigns says nothing
		// about the nested guard on the same variable.
		name: "countdown", src: `
program countdown(n)
float A[n];
int s;
s = 2;
for i = 0 to n - 1 {
  if (s >= 1) {
    s = s - 1;
    if (s >= 1) {
      S1: A[i] = A[i] + 1.0;
    }
  }
}
`,
		params: map[string]int64{"n": 4},
		setup: func(m *interp.Machine) {
			m.FillFloat("A", func(i int64) float64 { return float64(i) })
		},
	},
	{
		// Guards over a float scalar the host sets are not integer
		// constraints: alpha > 0 does not imply alpha >= 1.
		name: "floatguard", src: `
program floatguard(n)
float A[n];
float alpha;
for i = 0 to n - 1 {
  if (alpha > 0) {
    if (alpha < 1) {
      S1: A[i] = A[i] + alpha;
    }
  }
  if (alpha > 0) {
    if (alpha >= 1) {
      S2: A[i] = A[i] * 2.0;
    }
  }
}
`,
		params: map[string]int64{"n": 4},
		setup: func(m *interp.Machine) {
			m.FillFloat("A", func(i int64) float64 { return float64(i) })
			m.SetFloat("alpha", 0.5)
		},
	},
}

func run(t *testing.T, src string, params map[string]int64, setup func(*interp.Machine)) *interp.Machine {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := interp.New(prog, params)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(m)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return m
}

func instrumented(t *testing.T, src string, opt Options) *Result {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Instrument(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func optCombos() []Options {
	return []Options{
		{},
		{Split: true},
		{Inspector: true},
		{Split: true, Inspector: true},
	}
}

// TestNoFalsePositivesAndSemanticsPreserved is the central soundness test:
// for every kernel and every option combination, the instrumented program
// must produce bit-identical results to the original and pass its checksum
// assertion when no faults are injected.
func TestNoFalsePositivesAndSemanticsPreserved(t *testing.T) {
	for _, k := range kernels {
		for _, opt := range optCombos() {
			name := k.name
			if opt.Split {
				name += "+split"
			}
			if opt.Inspector {
				name += "+insp"
			}
			t.Run(name, func(t *testing.T) {
				ref := run(t, k.src, k.params, k.setup)
				res := instrumented(t, k.src, opt)
				m, err := interp.New(res.Prog, k.params)
				if err != nil {
					t.Fatalf("instrumented machine: %v\n%s", err, lang.Print(res.Prog))
				}
				k.setup(m)
				if err := m.Run(); err != nil {
					t.Fatalf("false positive or runtime error: %v\n%s", err, lang.Print(res.Prog))
				}
				// Compare every float array bit-exactly.
				for _, d := range lang.MustParse(k.src).Decls {
					if d.Type != lang.TypeFloat {
						continue
					}
					want, err := ref.SnapshotFloats(d.Name)
					if err != nil {
						t.Fatal(err)
					}
					got, err := m.SnapshotFloats(d.Name)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("%s[%d] differs: %v vs %v", d.Name, i, want[i], got[i])
						}
					}
				}
			})
		}
	}
}

func TestCholeskyInstrumentationShape(t *testing.T) {
	res := instrumented(t, choleskySrc, Options{})
	src := lang.Print(res.Prog)
	// S1 loads A[j][j] once into a register; its use fold reads that
	// register, and the def fold, scaled by the n-1-j use count (paper
	// Figure 5), reads the register holding the stored value (Section 5).
	for _, want := range []string{
		"float A_r = A[j][j];",
		"add_to_chksm(use_cs, A_r, 1);",
		"float A_w = sqrt(A_r);",
		"S1: A[j][j] = A_w;",
		"add_to_chksm(def_cs, A_w, -j + n - 1);",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q:\n%s", want, src)
		}
	}
	if !strings.Contains(src, "assert_checksums();") {
		t.Errorf("missing verifier:\n%s", src)
	}
	// The guarded version keeps an if for the last-iteration exclusion.
	if !strings.Contains(src, "if (") {
		t.Errorf("expected use-count guard:\n%s", src)
	}
	if res.Report.Plans["A"] != PlanStatic {
		t.Errorf("A plan = %v, want static", res.Report.Plans["A"])
	}
}

func TestCholeskySplitRemovesGuardFromLoop(t *testing.T) {
	res := instrumented(t, choleskySrc, Options{Split: true})
	// After index-set splitting, no If guard may remain inside any compute
	// loop (one containing a labeled statement) around the S1 def add — the
	// j loop is peeled instead (Figure 6). Prologue loops keep their
	// equality guards and are exempt.
	var badIf bool
	lang.WalkStmts(res.Prog.Body, func(s lang.Stmt) bool {
		f, ok := s.(*lang.For)
		if !ok {
			return true
		}
		hasLabeled := false
		lang.WalkStmts(f.Body, func(inner lang.Stmt) bool {
			if a, isAssign := inner.(*lang.Assign); isAssign && a.Label != "" {
				hasLabeled = true
			}
			return true
		})
		if !hasLabeled {
			return true
		}
		lang.WalkStmts(f.Body, func(inner lang.Stmt) bool {
			if ifs, isIf := inner.(*lang.If); isIf {
				lang.WalkStmts(ifs.Then, func(x lang.Stmt) bool {
					if add, isAdd := x.(*lang.AddToChecksum); isAdd && add.CS == lang.DefCS {
						badIf = true
					}
					return true
				})
			}
			return true
		})
		return true
	})
	if badIf {
		t.Errorf("def add still guarded inside a loop after splitting:\n%s", lang.Print(res.Prog))
	}
	if !res.Report.SplitApplied {
		t.Error("report should record split")
	}
}

func TestCGInspectorPlans(t *testing.T) {
	res := instrumented(t, cgishSrc, Options{Inspector: true})
	p := res.Report.Plans
	if p["p_new"] != PlanInspector {
		t.Errorf("p_new plan = %v, want inspector", p["p_new"])
	}
	if p["cols"] != PlanInvariant {
		t.Errorf("cols plan = %v, want invariant", p["cols"])
	}
	if p["temp1"] != PlanDynamic || p["temp2"] != PlanDynamic {
		t.Errorf("temps should be dynamic: %v %v", p["temp1"], p["temp2"])
	}
	if p["iter"] != PlanControl {
		t.Errorf("iter plan = %v, want control", p["iter"])
	}
	if res.Report.InspectorsHoisted != 1 {
		t.Errorf("inspectors hoisted = %d, want 1", res.Report.InspectorsHoisted)
	}
	src := lang.Print(res.Prog)
	// The hoisted inspector counts indirect accesses before the while loop,
	// loading each subscript once.
	if !strings.Contains(src, "int cols_r = cols[j1];") || !strings.Contains(src, "p_new_icnt[cols_r] = p_new_icnt[cols_r] + 1;") {
		t.Errorf("missing hoisted inspector:\n%s", src)
	}
}

func TestCGWithoutInspectorUsesCounters(t *testing.T) {
	res := instrumented(t, cgishSrc, Options{})
	p := res.Report.Plans
	if p["p_new"] != PlanDynamic || p["cols"] != PlanDynamic {
		t.Errorf("without inspector both arrays should be dynamic: %v %v", p["p_new"], p["cols"])
	}
	src := lang.Print(res.Prog)
	if !strings.Contains(src, "p_new_cnt") {
		t.Errorf("missing shadow counter:\n%s", src)
	}
}

// TestDetectsInjectedFaults flips one bit of A[7][7] — read only by the very
// last S1 instance, so its def-to-use window spans nearly the whole run — at
// a sweep of steps, and checks that the verifier fires for most of them.
func TestDetectsInjectedFaults(t *testing.T) {
	for _, opt := range optCombos() {
		res := instrumented(t, choleskySrc, opt)
		clean, err := interp.New(res.Prog, map[string]int64{"n": 8})
		if err != nil {
			t.Fatal(err)
		}
		kernels[0].setup(clean)
		if err := clean.Run(); err != nil {
			t.Fatal(err)
		}
		total := clean.Counts.Stmts

		detected, trials := 0, 0
		for step := uint64(1); step < total; step += 7 {
			trials++
			m, err := interp.New(res.Prog, map[string]int64{"n": 8})
			if err != nil {
				t.Fatal(err)
			}
			kernels[0].setup(m)
			base, _, err := m.Region("A")
			if err != nil {
				t.Fatal(err)
			}
			fired := false
			s := step
			m.SetStepHook(func(cur uint64) {
				if !fired && cur == s {
					m.Mem().FlipBit(base+7*8+7, 21) // A[7][7]
					fired = true
				}
			})
			err = m.Run()
			var de *interp.DetectionError
			if errors.As(err, &de) {
				detected++
			} else if err != nil {
				t.Fatalf("opt %+v: unexpected error: %v", opt, err)
			}
		}
		// Flips before the prologue registers the cell (or after its last
		// use) fall outside any def-use window and are legitimately missed;
		// the window for A[7][7] still spans over a third of the run.
		if detected*3 < trials {
			t.Errorf("opt %+v: only %d/%d flip positions detected", opt, detected, trials)
		}
	}
}

// TestFaultInjectionSweep injects random single-bit flips at random steps
// across kernels and option combinations. Clean runs must always verify;
// flips must frequently be detected and never produce a spurious
// *RuntimeError.
func TestFaultInjectionSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, k := range kernels {
		for _, opt := range []Options{{}, {Split: true, Inspector: true}} {
			res := instrumented(t, k.src, opt)
			// Find total steps and data region from a clean run.
			clean, err := interp.New(res.Prog, k.params)
			if err != nil {
				t.Fatal(err)
			}
			k.setup(clean)
			if err := clean.Run(); err != nil {
				t.Fatalf("%s: clean run failed: %v", k.name, err)
			}
			totalSteps := clean.Counts.Stmts

			detected, trials := 0, 25
			for trial := 0; trial < trials; trial++ {
				m, err := interp.New(res.Prog, k.params)
				if err != nil {
					t.Fatal(err)
				}
				k.setup(m)
				// Pick a float data array of the original program.
				decls := lang.MustParse(k.src).Decls
				var name string
				for {
					d := decls[rng.Intn(len(decls))]
					if d.IsArray() && d.Type == lang.TypeFloat {
						name = d.Name
						break
					}
				}
				base, size, err := m.Region(name)
				if err != nil {
					t.Fatal(err)
				}
				step := uint64(rng.Int63n(int64(totalSteps-2))) + 1
				addr := base + rng.Intn(size)
				bit := rng.Intn(64)
				done := false
				m.SetStepHook(func(s uint64) {
					if !done && s == step {
						m.Mem().FlipBit(addr, bit)
						done = true
					}
				})
				err = m.Run()
				var de *interp.DetectionError
				var re *interp.RuntimeError
				switch {
				case errors.As(err, &de):
					detected++
				case errors.As(err, &re):
					t.Fatalf("%s: fault injection caused runtime error: %v", k.name, err)
				}
			}
			// Many flips land on already-dead values; still, a healthy
			// fraction must be detected.
			if detected == 0 {
				t.Errorf("%s opt=%+v: no injected fault detected in %d trials", k.name, opt, trials)
			}
		}
	}
}

func TestInstrumentedProgramsReparse(t *testing.T) {
	for _, k := range kernels {
		for _, opt := range optCombos() {
			res := instrumented(t, k.src, opt)
			printed := lang.Print(res.Prog)
			if _, err := lang.Parse(printed); err != nil {
				t.Errorf("%s: instrumented program does not reparse: %v\n%s", k.name, err, printed)
			}
		}
	}
}

func TestReportString(t *testing.T) {
	res := instrumented(t, choleskySrc, Options{Split: true})
	s := res.Report.String()
	if !strings.Contains(s, "A: static") {
		t.Errorf("report = %q", s)
	}
}

func TestCloneProgramIndependence(t *testing.T) {
	p := lang.MustParse(choleskySrc)
	c := CloneProgram(p)
	c.Decls[0].Name = "ZZ"
	c.Body[0].(*lang.For).Iter = "q"
	if p.Decls[0].Name != "A" || p.Body[0].(*lang.For).Iter != "j" {
		t.Error("CloneProgram shares state")
	}
}

func TestDynamicScalarScheme(t *testing.T) {
	// A purely dynamic program (Figure 7 shape): conditional uses.
	src := `
program fig7(n)
float temp, a, b;
int x[n], z[n];
temp = 30.0;
if (x[5] > 0) {
  a = temp + 1.0;
}
if (z[3] > 0) {
  b = temp + 2.0;
}
`
	res := instrumented(t, src, Options{})
	// x and z appear in conditions: control variables.
	if res.Report.Plans["x"] != PlanControl || res.Report.Plans["z"] != PlanControl {
		t.Errorf("condition arrays should be control: %v", res.Report.Plans)
	}
	if res.Report.Plans["temp"] != PlanDynamic {
		t.Errorf("temp should be dynamic, got %v", res.Report.Plans["temp"])
	}
	for _, zero := range []int64{0, 1} {
		m, err := interp.New(res.Prog, map[string]int64{"n": 8})
		if err != nil {
			t.Fatal(err)
		}
		m.FillInt("x", func(i int64) int64 { return zero })
		m.FillInt("z", func(i int64) int64 { return 1 - zero })
		if err := m.Run(); err != nil {
			t.Errorf("zero=%d: false positive: %v", zero, err)
		}
	}
}

func TestDynamicDetectsPersistentCorruption(t *testing.T) {
	// The Section 4.1 scenario end-to-end: a value corrupts after its first
	// use and stays corrupted; the auxiliary checksums must catch it.
	src := `
program p()
float temp, a, b;
temp = 30.0;
a = temp + 1.0;
b = temp + 2.0;
`
	res := instrumented(t, src, Options{})
	m, err := interp.New(res.Prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := m.Region("temp")
	if err != nil {
		t.Fatal(err)
	}
	// Statement numbering: prologue then body. Flip temp between the two
	// reads: find the step of statement "a = ..." dynamically by counting a
	// clean run, then flip right after.
	clean, _ := interp.New(res.Prog, nil)
	if err := clean.Run(); err != nil {
		t.Fatal(err)
	}
	total := clean.Counts.Stmts
	detectedAny := false
	for step := uint64(1); step <= total; step++ {
		m, _ := interp.New(res.Prog, nil)
		done := false
		s := step
		m.SetStepHook(func(cur uint64) {
			if !done && cur == s {
				m.Mem().FlipBit(base, 17)
				done = true
			}
		})
		err := m.Run()
		var de *interp.DetectionError
		if errors.As(err, &de) {
			detectedAny = true
		}
	}
	if !detectedAny {
		t.Error("no flip position on temp was detected")
	}
}

func TestInstrumentIdempotentStructures(t *testing.T) {
	// Instrumenting a program with existing checksum statements passes them
	// through untouched.
	src := `
program p()
float x;
x = 1.0;
add_to_chksm(def_cs, x, 0);
assert_checksums();
`
	res := instrumented(t, src, Options{})
	count := 0
	lang.WalkStmts(res.Prog.Body, func(s lang.Stmt) bool {
		if _, ok := s.(*lang.AssertChecksums); ok {
			count++
		}
		return true
	})
	if count != 2 { // the original plus the generated one
		t.Errorf("assert count = %d, want 2", count)
	}
}
