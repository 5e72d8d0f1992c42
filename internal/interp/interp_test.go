package interp

import (
	"errors"
	"math"
	"testing"

	"defuse/internal/checksum"
	"defuse/internal/lang"
)

func mustMachine(t *testing.T, src string, params map[string]int64, opts ...Option) *Machine {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(prog, params, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSimpleArithmetic(t *testing.T) {
	m := mustMachine(t, `
program t()
float x, y;
x = 2.0;
y = x * 3.0 + 1.0;
x = y - 0.5;
`, nil)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	x, _ := m.Float("x")
	y, _ := m.Float("y")
	if y != 7.0 || x != 6.5 {
		t.Errorf("x=%v y=%v", x, y)
	}
}

func TestForLoopAndArrays(t *testing.T) {
	m := mustMachine(t, `
program t(n)
float A[n];
float sum;
for i = 0 to n - 1 {
  A[i] = i * 2;
}
sum = 0.0;
for i = 0 to n - 1 {
  sum += A[i];
}
`, map[string]int64{"n": 10})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	sum, _ := m.Float("sum")
	if sum != 90 {
		t.Errorf("sum = %v, want 90", sum)
	}
}

func TestCholeskyNumerics(t *testing.T) {
	// Run the paper's Figure 2 kernel on a small SPD-ish matrix and verify
	// against a direct Go computation.
	src := `
program cholesky(n)
float A[n][n];
for j = 0 to n - 1 {
  S1: A[j][j] = sqrt(A[j][j]);
  for i = j + 1 to n - 1 {
    S2: A[i][j] = A[i][j] / A[j][j];
  }
}
`
	const n = 5
	init := func(i, j int64) float64 {
		if i == j {
			return float64(10 + i)
		}
		return 1.0 / float64(i+j+1)
	}
	m := mustMachine(t, src, map[string]int64{"n": n})
	ref := make([][]float64, n)
	for i := int64(0); i < n; i++ {
		ref[i] = make([]float64, n)
		for j := int64(0); j < n; j++ {
			m.SetFloat("A", init(i, j), i, j)
			ref[i][j] = init(i, j)
		}
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		ref[j][j] = math.Sqrt(ref[j][j])
		for i := j + 1; i < n; i++ {
			ref[i][j] = ref[i][j] / ref[j][j]
		}
	}
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			got, _ := m.Float("A", i, j)
			if math.Abs(got-ref[i][j]) > 1e-12 {
				t.Errorf("A[%d][%d] = %v, want %v", i, j, got, ref[i][j])
			}
		}
	}
}

func TestWhileAndIntVars(t *testing.T) {
	m := mustMachine(t, `
program t(limit)
int k, total;
k = 0;
total = 0;
while (k < limit) {
  total = total + k;
  k = k + 1;
}
`, map[string]int64{"limit": 100})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	total, _ := m.Int("total")
	if total != 4950 {
		t.Errorf("total = %d", total)
	}
}

func TestIfElseAndComparisons(t *testing.T) {
	m := mustMachine(t, `
program t()
int a, b, r1, r2, r3;
a = 3;
b = 5;
if (a < b && b != 0) { r1 = 1; } else { r1 = 2; }
if (a >= b || a == 3) { r2 = 1; } else { r2 = 2; }
if (!(a == b)) { r3 = 1; } else { r3 = 2; }
`, nil)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{"r1": 1, "r2": 1, "r3": 1} {
		got, _ := m.Int(name)
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestIntrinsics(t *testing.T) {
	m := mustMachine(t, `
program t()
float a, b, c, d;
a = sqrt(16.0);
b = abs(-2.5);
c = min(3.0, 1.0);
d = max(3.0, 1.0);
`, nil)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	checks := map[string]float64{"a": 4, "b": 2.5, "c": 1, "d": 3}
	for name, want := range checks {
		got, _ := m.Float(name)
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestIndirectAccess(t *testing.T) {
	m := mustMachine(t, `
program t(n)
float A[n], out;
int idx[n];
out = 0.0;
for i = 0 to n - 1 {
  out += A[idx[i]];
}
`, map[string]int64{"n": 4})
	vals := []float64{10, 20, 30, 40}
	perm := []int64{2, 0, 3, 1}
	for i := int64(0); i < 4; i++ {
		m.SetFloat("A", vals[i], i)
		m.SetInt("idx", perm[i], i)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	out, _ := m.Float("out")
	if out != 100 {
		t.Errorf("out = %v", out)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		src    string
		params map[string]int64
	}{
		{"program t(n) float A[n]; A[n] = 1.0;", map[string]int64{"n": 3}},   // OOB
		{"program t(n) float A[n]; A[0-1] = 1.0;", map[string]int64{"n": 3}}, // negative
		{"program t() float x; x = 1.0 / 0.0;", nil},                         // div by zero
		{"program t() int x; x = 5 % 0;", nil},                               // mod by zero
		{"program t() float x; x = 1.0; x /= 0.0;", nil},                     // compound div by zero
	}
	for _, c := range cases {
		m := mustMachine(t, c.src, c.params)
		err := m.Run()
		var re *RuntimeError
		if !errors.As(err, &re) {
			t.Errorf("Run(%q) error = %v, want *RuntimeError", c.src, err)
		}
	}
}

func TestStepLimit(t *testing.T) {
	m := mustMachine(t, `
program t()
int k;
k = 0;
while (k < 10) {
  k = k;
}
`, nil, WithMaxSteps(1000))
	err := m.Run()
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("non-terminating loop should hit step limit, got %v", err)
	}
}

func TestChecksumInstructionsAndAssert(t *testing.T) {
	// The hand-instrumented Figure 4 example: known use count 2.
	m := mustMachine(t, `
program t()
float temp, sum1, sum2;
temp = 10.0 + 20.0;
add_to_chksm(def_cs, temp, 2);
add_to_chksm(use_cs, temp, 1);
sum1 = temp + 30.0;
add_to_chksm(use_cs, temp, 1);
sum2 = temp + 40.0;
assert_checksums();
`, nil)
	if err := m.Run(); err != nil {
		t.Fatalf("fault-free run flagged an error: %v", err)
	}
	if m.Counts.CsOps != 3 {
		t.Errorf("CsOps = %d, want 3", m.Counts.CsOps)
	}
}

func TestChecksumDetectsInjectedFault(t *testing.T) {
	src := `
program t()
float temp, sum1, sum2;
temp = 10.0 + 20.0;
add_to_chksm(def_cs, temp, 2);
add_to_chksm(use_cs, temp, 1);
sum1 = temp + 30.0;
add_to_chksm(use_cs, temp, 1);
sum2 = temp + 40.0;
assert_checksums();
`
	m := mustMachine(t, src, nil)
	base, _, err := m.Region("temp")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt temp after its first use (statement 4) and before the second
	// use-checksum contribution executes as statement 5.
	m.SetStepHook(func(step uint64) {
		if step == 5 {
			m.Mem().FlipBit(base, 51)
		}
	})
	err = m.Run()
	var de *DetectionError
	if !errors.As(err, &de) {
		t.Fatalf("injected fault not detected: %v", err)
	}
	var me *checksum.MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("DetectionError should wrap MismatchError, got %v", err)
	}
}

func TestEDefEUseChecksums(t *testing.T) {
	// Exercise the auxiliary accumulators through language primitives.
	m := mustMachine(t, `
program t()
float temp;
temp = 30.0;
add_to_chksm(e_def_cs, temp, 1);
add_to_chksm(e_use_cs, temp, 1);
assert_checksums();
`, nil)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	_, _, edef, euse := pairSums(m)
	if edef == 0 || edef != euse {
		t.Errorf("e_def=%#x e_use=%#x", edef, euse)
	}
}

func pairSums(m *Machine) (def, use, edef, euse uint64) {
	p := m.Pair()
	return p.Def, p.Use, p.EDef, p.EUse
}

func TestNegativeChecksumCount(t *testing.T) {
	// add_to_chksm with count -1 must cancel a prior contribution — the
	// epilogue adjustment relies on this.
	m := mustMachine(t, `
program t()
float x;
x = 5.0;
add_to_chksm(def_cs, x, 1);
add_to_chksm(def_cs, x, 0 - 1);
assert_checksums();
`, nil)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	def, _, _, _ := pairSums(m)
	if def != 0 {
		t.Errorf("def = %#x, want 0", def)
	}
}

func TestOpCountsAttribution(t *testing.T) {
	m := mustMachine(t, `
program t(n)
float A[n];
for i = 0 to n - 1 {
  add_to_chksm(use_cs, A[i], 1);
  A[i] = A[i] + 1.0;
  add_to_chksm(def_cs, A[i], 1);
}
`, map[string]int64{"n": 8})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	c := m.Counts
	// Each iteration: program does 1 load + 1 store; checksums do 2 loads.
	if c.Loads != 8 || c.Stores != 8 {
		t.Errorf("program loads/stores = %d/%d, want 8/8", c.Loads, c.Stores)
	}
	if c.CsLoads != 16 || c.CsOps != 16 {
		t.Errorf("checksum loads/ops = %d/%d, want 16/16", c.CsLoads, c.CsOps)
	}
	if c.Total() == 0 || c.Stmts == 0 {
		t.Error("total counts empty")
	}
}

func TestMissingParameter(t *testing.T) {
	prog := lang.MustParse("program t(n) float A[n];")
	if _, err := New(prog, nil); err == nil {
		t.Fatal("missing parameter should fail")
	}
}

func TestNegativeDimension(t *testing.T) {
	prog := lang.MustParse("program t(n) float A[n];")
	if _, err := New(prog, map[string]int64{"n": -2}); err == nil {
		t.Fatal("negative dimension should fail")
	}
}

func TestXORMachine(t *testing.T) {
	m := mustMachine(t, `
program t()
float x, y;
x = 3.0;
add_to_chksm(def_cs, x, 1);
add_to_chksm(use_cs, x, 1);
y = x + 1.0;
assert_checksums();
`, nil, WithChecksumKind(checksum.XOR))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDataAccessorErrors(t *testing.T) {
	m := mustMachine(t, "program t(n) float A[n]; int B[n];", map[string]int64{"n": 3})
	if err := m.SetFloat("nope", 1); err == nil {
		t.Error("unknown name should fail")
	}
	if err := m.SetFloat("B", 1, 0); err == nil {
		t.Error("type mismatch should fail")
	}
	if err := m.SetInt("A", 1, 0); err == nil {
		t.Error("type mismatch should fail")
	}
	if err := m.SetFloat("A", 1, 5); err == nil {
		t.Error("OOB index should fail")
	}
	if err := m.SetFloat("A", 1); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := m.Int("A", 0); err == nil {
		t.Error("Int on float array should fail")
	}
	if _, err := m.Float("B", 0); err == nil {
		t.Error("Float on int array should fail")
	}
	if _, err := m.SnapshotFloats("B"); err == nil {
		t.Error("SnapshotFloats on int array should fail")
	}
	if _, _, err := m.Region("zz"); err == nil {
		t.Error("Region on unknown var should fail")
	}
}

func TestFillAndSnapshot(t *testing.T) {
	m := mustMachine(t, "program t(n) float A[n]; int B[n];", map[string]int64{"n": 4})
	if err := m.FillFloat("A", func(i int64) float64 { return float64(i) * 1.5 }); err != nil {
		t.Fatal(err)
	}
	if err := m.FillInt("B", func(i int64) int64 { return i * i }); err != nil {
		t.Fatal(err)
	}
	snap, err := m.SnapshotFloats("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 4 || snap[2] != 3.0 {
		t.Errorf("snapshot = %v", snap)
	}
	b2, _ := m.Int("B", 2)
	if b2 != 4 {
		t.Errorf("B[2] = %d", b2)
	}
}

// TestRegisterAssignment runs an int register kept across a loop: it is
// assigned without touching memory, converts a float value as a store to an
// int variable does, and its final value reaches memory only when stored.
func TestRegisterAssignment(t *testing.T) {
	m := mustMachine(t, `
program t(n)
int c[n];
for i = 0 to n - 1 {
  int r = c[i];
  for j = 0 to i {
    r = r + 2;
  }
  r = r + 0.75;
  c[i] = r;
}
`, map[string]int64{"n": 4})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if v, _ := m.Int("c", i); v != 2*(i+1) {
			t.Errorf("c[%d] = %d, want %d", i, v, 2*(i+1))
		}
	}
	if m.Counts.Loads != 4 || m.Counts.Stores != 4 {
		t.Errorf("loads %d stores %d, want 4 and 4", m.Counts.Loads, m.Counts.Stores)
	}
}
