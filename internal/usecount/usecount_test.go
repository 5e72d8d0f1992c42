package usecount

import (
	"fmt"
	"testing"

	"defuse/internal/deps"
	"defuse/internal/lang"
	"defuse/internal/pdg"
	"defuse/internal/poly"
)

func analyze(t *testing.T, src string) (*pdg.Model, *Analysis) {
	t.Helper()
	m, err := pdg.Extract(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return m, Analyze(deps.Analyze(m))
}

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

func TestCholeskyUseCountMatchesPaper(t *testing.T) {
	// Section 3.2: use count of S1 is n-1-j for 0 <= j <= n-2, zero at
	// j = n-1.
	m, a := analyze(t, choleskySrc)
	s1 := m.Statement("S1")
	dc := a.Defs[s1]
	if dc == nil {
		t.Fatal("no def count for S1")
	}
	if len(dc.Contribs) != 1 {
		t.Fatalf("S1 has %d contributions, want 1", len(dc.Contribs))
	}
	poly1, single := dc.Contribs[0].Count.IsSinglePolynomial()
	if !single {
		t.Fatalf("expected single polynomial, got %v", dc.Contribs[0].Count)
	}
	want := poly.PolyFromLin(poly.V("n").Sub(poly.V("j")).AddConst(-1))
	if !poly1.Equal(want) {
		t.Errorf("S1 use count = %v, want n - j - 1", poly1)
	}
	n := int64(7)
	for j := int64(0); j < n; j++ {
		got, err := dc.TotalAt(map[string]int64{"j": j, "n": n})
		if err != nil {
			t.Fatal(err)
		}
		wantCount := n - 1 - j
		if j == n-1 {
			wantCount = 0
		}
		if got != wantCount {
			t.Errorf("j=%d: use count %d, want %d", j, got, wantCount)
		}
	}
	// S2's definitions are never read again: zero contributions.
	s2 := m.Statement("S2")
	if dc2 := a.Defs[s2]; dc2 == nil {
		t.Fatal("S2 should still have a (zero-contribution) def count")
	} else if len(dc2.Contribs) != 0 {
		t.Errorf("S2 has %d contributions, want 0", len(dc2.Contribs))
	}
}

func TestCholeskyLiveIns(t *testing.T) {
	// Live-in cells of A: S1 reads A[j][j] at its first... every S1 read of
	// the diagonal is live-in (nothing writes the diagonal before S1[j]);
	// S2's A[i][j] reads are live-in; S2's A[j][j] reads are fed by S1.
	_, a := analyze(t, choleskySrc)
	if !a.Analyzable("A") {
		t.Fatal("A should be analyzable")
	}
	lis := a.LiveIns["A"]
	if len(lis) == 0 {
		t.Fatal("expected live-in contributions for A")
	}
	// Sum live-in counts for each cell at n=5 and compare with a trace.
	n := int64(5)
	total := map[string]int64{}
	for _, li := range lis {
		for c0 := int64(0); c0 < n; c0++ {
			for c1 := int64(0); c1 < n; c1++ {
				env := map[string]int64{"n": n, li.CellVars[0]: c0, li.CellVars[1]: c1}
				v, _, err := li.Count.Eval(env)
				if err != nil {
					t.Fatal(err)
				}
				total[fmt.Sprintf("%d,%d", c0, c1)] += v
			}
		}
	}
	// Trace: initial A[c0][c1] is read... S1[j] reads A[j][j] (live-in: yes,
	// first toucher of the diagonal). S2[j,i] reads A[i][j] (i>j): cell
	// (i,j) below diagonal, live-in (written only by S2 itself at that
	// iteration). S2 reads A[j][j]: fed by S1. So live-in counts:
	// diagonal (j,j) -> 1; below-diagonal (i,j), i>j -> 1; above -> 0.
	for c0 := int64(0); c0 < n; c0++ {
		for c1 := int64(0); c1 < n; c1++ {
			want := int64(0)
			if c0 >= c1 {
				want = 1
			}
			got := total[fmt.Sprintf("%d,%d", c0, c1)]
			if got != want {
				t.Errorf("live-in count of A[%d][%d] = %d, want %d", c0, c1, got, want)
			}
		}
	}
}

func TestClassification(t *testing.T) {
	_, a := analyze(t, `
program t(n)
float A[n], B[n], s;
int cols[n];
for i = 0 to n - 1 {
  S1: A[cols[i]] = 1.0;
}
for i = 0 to n - 1 {
  S2: B[i] = 2.0;
}
S3: s = B[0];
`)
	if a.Analyzable("A") {
		t.Error("A has indirect accesses: must be dynamic")
	}
	if !a.Analyzable("B") || !a.Analyzable("s") {
		t.Error("B and s should be analyzable")
	}
	if !a.Analyzable("cols") {
		t.Error("cols itself is accessed affinely: analyzable")
	}
	if a.Classes["A"].Reason == "" {
		t.Error("dynamic class should carry a reason")
	}
}

// TestWhileCarriedCountNamesTripCount reads the while loop as
// "for w = 0 to W - 1": A is affine there, but each def of A[i] is read in the
// next iteration, so its count depends on whether one follows (the
// instrumenter keeps such a variable on dynamic counters). The per-iteration
// temporary t is used up in its own iteration: its count is n in every
// iteration, the last one included.
func TestWhileCarriedCountNamesTripCount(t *testing.T) {
	m, a := analyze(t, `
program t(n)
float A[n], t;
int k;
k = 0;
while (k < 3) {
  t = 2.0;
  for i = 0 to n - 1 {
    S1: A[i] = A[i] + t;
  }
  k = k + 1;
}
`)
	if !a.Analyzable("A") || !a.Analyzable("t") {
		t.Fatalf("A and t are affine in the while body read as a loop: %v %v", a.Classes["A"], a.Classes["t"])
	}
	wl := m.Whiles[0]
	count := func(s *pdg.Statement, w int64) int64 {
		t.Helper()
		dc := a.Defs[s]
		if dc == nil {
			t.Fatalf("%s has no use counts", s.ID)
		}
		v, err := dc.TotalAt(map[string]int64{wl.Iter: w, wl.Trips: 3, "i": 1, "n": 4})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	s1 := m.Statement("S1")
	if first, last := count(s1, 0), count(s1, 2); first != 1 || last != 0 {
		t.Errorf("S1 counts at w = 0 and w = W - 1: %d, %d, want 1, 0", first, last)
	}
	for _, s := range m.Stmts {
		if s.Write.Array != "t" {
			continue
		}
		if first, last := count(s, 0), count(s, 2); first != 4 || last != 4 {
			t.Errorf("t counts at w = 0 and w = W - 1: %d, %d, want 4, 4", first, last)
		}
	}
}

func TestCellVarName(t *testing.T) {
	n := CellVarName("A", 1)
	if n != "A#c1" {
		t.Errorf("CellVarName = %q", n)
	}
}
