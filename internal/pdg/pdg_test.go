package pdg

import (
	"testing"

	"defuse/internal/lang"
	"defuse/internal/poly"
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

func extract(t *testing.T, src string) *Model {
	t.Helper()
	m, err := Extract(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExtractCholeskyDomains(t *testing.T) {
	m := extract(t, choleskySrc)
	if len(m.Stmts) != 2 {
		t.Fatalf("got %d statements", len(m.Stmts))
	}
	s1, s2 := m.Statement("S1"), m.Statement("S2")
	if s1 == nil || s2 == nil {
		t.Fatal("statements not found by label")
	}
	if !s1.ControlAffine || !s2.ControlAffine {
		t.Error("cholesky statements should be control-affine")
	}
	if !s1.FullyAffine() || !s2.FullyAffine() {
		t.Error("cholesky statements should be fully affine")
	}
	// I^{S1} = { S1[j] : 0 <= j <= n-1 }
	if !s1.Domain.Contains(map[string]int64{"j": 0, "n": 3}) ||
		s1.Domain.Contains(map[string]int64{"j": 3, "n": 3}) {
		t.Errorf("S1 domain wrong: %v", s1.Domain)
	}
	// I^{S2} = { S2[j,i] : 0 <= j <= n-1, j+1 <= i <= n-1 }
	if !s2.Domain.Contains(map[string]int64{"j": 0, "i": 1, "n": 3}) ||
		s2.Domain.Contains(map[string]int64{"j": 0, "i": 0, "n": 3}) {
		t.Errorf("S2 domain wrong: %v", s2.Domain)
	}
}

func TestExtractCholeskySchedules(t *testing.T) {
	// Paper Section 3.1: S1[j] -> [0,j,0,0,0], S2[j,i] -> [0,j,1,i,0].
	m := extract(t, choleskySrc)
	s1, s2 := m.Statement("S1"), m.Statement("S2")
	if m.Depth != 2 {
		t.Fatalf("depth = %d, want 2", m.Depth)
	}
	wantS1 := []string{"0", "j", "0", "0", "0"}
	wantS2 := []string{"0", "j", "1", "i", "0"}
	for i, w := range wantS1 {
		if s1.Schedule[i].String() != w {
			t.Errorf("S1 schedule[%d] = %v, want %s", i, s1.Schedule[i], w)
		}
	}
	for i, w := range wantS2 {
		if s2.Schedule[i].String() != w {
			t.Errorf("S2 schedule[%d] = %v, want %s", i, s2.Schedule[i], w)
		}
	}
}

func TestExtractAccesses(t *testing.T) {
	m := extract(t, choleskySrc)
	s2 := m.Statement("S2")
	if s2.Write.Array != "A" || !s2.Write.Affine || !s2.Write.IsWrite {
		t.Fatalf("S2 write access wrong: %+v", s2.Write)
	}
	if len(s2.Reads) != 2 {
		t.Fatalf("S2 has %d reads, want 2 (A[i][j], A[j][j])", len(s2.Reads))
	}
	// Verify the write relation maps S2[j,i] to A[i,j].
	env := map[string]int64{"j": 1, "i": 2, "n": 5,
		s2.Write.Rel.Out[0]: 2, s2.Write.Rel.Out[1]: 1}
	if !s2.Write.Rel.ContainsPair(env) {
		t.Errorf("write relation rejects A[2][1] at (j=1,i=2): %v", s2.Write.Rel)
	}
	env[s2.Write.Rel.Out[0]] = 1
	if s2.Write.Rel.ContainsPair(env) {
		t.Error("write relation accepts wrong element")
	}
}

func TestCompoundAssignAddsSelfRead(t *testing.T) {
	m := extract(t, `
program t(n)
float s, A[n];
for i = 0 to n - 1 {
  S1: s += A[i];
}
`)
	s1 := m.Statement("S1")
	if len(s1.Reads) != 2 {
		t.Fatalf("+= should read both s and A[i]; got %d reads", len(s1.Reads))
	}
	if s1.Reads[0].Array != "s" || s1.Reads[1].Array != "A" {
		t.Errorf("reads = %s, %s", s1.Reads[0].Array, s1.Reads[1].Array)
	}
	// Scalar access is a 0-dim affine relation.
	if !s1.Reads[0].Affine || len(s1.Reads[0].Rel.Out) != 0 {
		t.Error("scalar read should be 0-dim affine")
	}
}

func TestIrregularAccessFlagged(t *testing.T) {
	m := extract(t, `
program t(n)
float A[n], s;
int cols[n];
for i = 0 to n - 1 {
  S1: s += A[cols[i]];
}
`)
	s1 := m.Statement("S1")
	if s1.FullyAffine() {
		t.Error("indirect access should not be fully affine")
	}
	if !s1.ControlAffine {
		t.Error("control is still affine")
	}
	// Reads: s (affine scalar), A[cols[i]] (non-affine), cols[i] (affine).
	var aAff, colsAff *Access
	for k := range s1.Reads {
		switch s1.Reads[k].Array {
		case "A":
			aAff = &s1.Reads[k]
		case "cols":
			colsAff = &s1.Reads[k]
		}
	}
	if aAff == nil || aAff.Affine {
		t.Error("A[cols[i]] should be flagged non-affine")
	}
	if colsAff == nil || !colsAff.Affine {
		t.Error("cols[i] subscript read should be affine and counted")
	}
}

// TestWhileBodyReadAsForLoop reads a while body as the body of
// "for w = 0 to W - 1": the statements under it are control-affine, carry the
// loop's fresh iterator first in their iterators and schedule, and have it
// bounded by the loop's fresh trip count.
func TestWhileBodyReadAsForLoop(t *testing.T) {
	m := extract(t, `
program t(n)
float A[n];
int k;
k = 0;
while (k < 10) {
  for i = 0 to n - 1 {
    S1: A[i] = A[i] + 1.0;
  }
  k = k + 1;
}
`)
	s1 := m.Statement("S1")
	if s1 == nil {
		t.Fatal("S1 not extracted")
	}
	if !s1.ControlAffine || !s1.FullyAffine() {
		t.Error("statements under a while read as a for loop must be affine")
	}
	if len(m.Whiles) != 1 || len(s1.Whiles) != 1 || s1.Whiles[0] != m.Whiles[0] {
		t.Fatalf("whiles: model %v, S1 %v", m.Whiles, s1.Whiles)
	}
	wl := m.Whiles[0]
	if len(s1.Iters) != 2 || s1.Iters[0] != wl.Iter || s1.Iters[1] != "i" {
		t.Errorf("S1 iterators = %v, want [%s i]", s1.Iters, wl.Iter)
	}
	if got := s1.Schedule[1]; !got.IsIter || got.Iter != wl.Iter {
		t.Errorf("S1 schedule = %v, want the while iterator at position 1", s1.Schedule)
	}
	for _, c := range []struct {
		w, trips int64
		in       bool
	}{{0, 1, true}, {2, 3, true}, {3, 3, false}, {0, 0, false}, {-1, 3, false}} {
		env := map[string]int64{wl.Iter: c.w, wl.Trips: c.trips, "i": 0, "n": 2}
		if got := s1.Domain.Contains(env); got != c.in {
			t.Errorf("S1 domain at w=%d W=%d: %v, want %v", c.w, c.trips, got, c.in)
		}
	}
	if !m.WhileSymbol(wl.Iter) || !m.WhileSymbol(wl.Trips) || m.WhileSymbol("k") || m.WhileSymbol("n") {
		t.Error("WhileSymbol must name exactly the while iterator and trip count")
	}
	// Extracting the while body as a region models no while at all.
	prog := lang.MustParse(`
program t(n)
float A[n];
int k;
while (k < 10) {
  for i = 0 to n - 1 {
    S1: A[i] = A[i] + 1.0;
  }
}
`)
	w := prog.Body[0].(*lang.While)
	rm, err := ExtractRegion(prog, w.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rs1 := rm.Statement("S1"); rs1 == nil || !rs1.ControlAffine || len(rs1.Whiles) != 0 {
		t.Error("region extraction should treat while body as affine")
	}
}

// TestWhileUnderIfNotAffine keeps a while loop under a data-dependent if out
// of the affine fragment.
func TestWhileUnderIfNotAffine(t *testing.T) {
	m := extract(t, `
program t(n)
float A[n], x;
int k;
if (x > 0.0) {
  while (k < 10) {
    S1: A[0] = 1.0;
    k = k + 1;
  }
}
`)
	if s1 := m.Statement("S1"); s1 == nil || s1.ControlAffine {
		t.Error("a while under an if is not control-affine")
	}
}

func TestIfBranchesNotAffineAndNumbered(t *testing.T) {
	m := extract(t, `
program t()
float x, a, b;
if (x > 0.0) {
  S1: a = 1.0;
} else {
  S2: b = 2.0;
}
`)
	s1, s2 := m.Statement("S1"), m.Statement("S2")
	if s1.ControlAffine || s2.ControlAffine {
		t.Error("if branches are data-dependent: not control-affine")
	}
}

func TestGeneratedIDs(t *testing.T) {
	m := extract(t, `
program t()
float x, y;
x = 1.0;
y = 2.0;
`)
	if m.Stmts[0].ID != "S1" || m.Stmts[1].ID != "S2" {
		t.Errorf("generated IDs = %s, %s", m.Stmts[0].ID, m.Stmts[1].ID)
	}
}

func TestNonAffineLoopBounds(t *testing.T) {
	m := extract(t, `
program t(n)
float A[n];
int k;
k = 5;
for i = 0 to k {
  S1: A[i] = 1.0;
}
`)
	s1 := m.Statement("S1")
	if s1.ControlAffine {
		t.Error("loop with variable (memory) bound is not affine")
	}
}

func TestExprToLin(t *testing.T) {
	isVar := func(s string) bool { return s == "i" || s == "n" }
	prog := lang.MustParse(`
program t(n)
float A[n];
for i = 0 to n - 1 {
  A[2 * i - n + 3] = 1.0;
}
`)
	sub := prog.Body[0].(*lang.For).Body[0].(*lang.Assign).LHS.Indices[0]
	lin, ok := ExprToLin(sub, isVar)
	if !ok {
		t.Fatal("affine subscript rejected")
	}
	if lin.Coeff("i") != 2 || lin.Coeff("n") != -1 || lin.Const() != 3 {
		t.Errorf("lin = %v", lin)
	}
}

func TestLinToExprRoundTrip(t *testing.T) {
	cases := []poly.LinExpr{
		poly.L(0),
		poly.L(-5),
		poly.V("n"),
		poly.V("n").Neg(),
		poly.V("n").Sub(poly.V("j")).AddConst(-1),
		poly.Term(3, "i").Add(poly.Term(-2, "j")).AddConst(7),
	}
	isVar := func(string) bool { return true }
	for _, want := range cases {
		e := LinToExpr(want)
		got, ok := ExprToLin(e, isVar)
		if !ok {
			t.Fatalf("LinToExpr(%v) produced non-affine %s", want, lang.ExprString(e))
		}
		if !got.Equal(want) {
			t.Errorf("round trip %v -> %s -> %v", want, lang.ExprString(e), got)
		}
	}
}

func TestPrecedesCholesky(t *testing.T) {
	m := extract(t, choleskySrc)
	s1, s2 := m.Statement("S1"), m.Statement("S2")
	prec := Precedes(s1, s2, "'")
	// S1[j] precedes S2[j',i'] iff j < j' (different outer iterations) or
	// j = j' (S1 comes first within the iteration).
	check := func(j, j2, i2 int64, want bool) {
		got := false
		for _, bm := range prec.Pieces {
			env := map[string]int64{"j": j, bm.Out[0]: j2, bm.Out[1]: i2, "n": 100}
			if bm.ContainsPair(env) {
				got = true
				break
			}
		}
		if got != want {
			t.Errorf("S1[%d] < S2[%d,%d] = %v, want %v", j, j2, i2, got, want)
		}
	}
	check(0, 0, 1, true)  // same j: S1 first
	check(0, 1, 2, true)  // earlier j
	check(2, 1, 2, false) // later j
	// And S2 precedes S1 only for strictly earlier j.
	prec2 := Precedes(s2, s1, "'")
	check2 := func(j, i, j2 int64, want bool) {
		got := false
		for _, bm := range prec2.Pieces {
			env := map[string]int64{"j": j, "i": i, bm.Out[0]: j2, "n": 100}
			if bm.ContainsPair(env) {
				got = true
				break
			}
		}
		if got != want {
			t.Errorf("S2[%d,%d] < S1[%d] = %v, want %v", j, i, j2, got, want)
		}
	}
	check2(0, 1, 1, true)
	check2(0, 1, 0, false) // S1[0] runs before S2[0,*]
	check2(2, 3, 2, false)
}

func TestPrecedesSequentialStatements(t *testing.T) {
	m := extract(t, `
program t()
float x, y;
S1: x = 1.0;
S2: y = 2.0;
`)
	s1, s2 := m.Statement("S1"), m.Statement("S2")
	p12 := Precedes(s1, s2, "'")
	if empty, _ := p12.IsEmpty(); empty {
		t.Error("S1 should precede S2")
	}
	p21 := Precedes(s2, s1, "'")
	if empty, _ := p21.IsEmpty(); !empty {
		t.Error("S2 should not precede S1")
	}
}
