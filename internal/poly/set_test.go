package poly

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// choleskyS1 builds I^{S1} = { S1[j] : 0 <= j <= n-1 } from the paper.
func choleskyS1() BasicSet {
	j, n := V("j"), V("n")
	return NewBasicSet("S1", "j").With(Ge(j, L(0)), Le(j, n.AddConst(-1)))
}

// choleskyS2 builds I^{S2} = { S2[j,i] : 0 <= j <= n-1 and j+1 <= i <= n-1 }.
func choleskyS2() BasicSet {
	j, i, n := V("j"), V("i"), V("n")
	return NewBasicSet("S2", "j", "i").With(
		Ge(j, L(0)), Le(j, n.AddConst(-1)),
		Ge(i, j.AddConst(1)), Le(i, n.AddConst(-1)),
	)
}

func TestBasicSetContains(t *testing.T) {
	s2 := choleskyS2()
	if !s2.Contains(map[string]int64{"j": 0, "i": 1, "n": 4}) {
		t.Error("(0,1) should be in S2 for n=4")
	}
	if s2.Contains(map[string]int64{"j": 0, "i": 0, "n": 4}) {
		t.Error("(0,0) violates i >= j+1")
	}
	if s2.Contains(map[string]int64{"j": 3, "i": 4, "n": 4}) {
		t.Error("(3,4) violates i <= n-1")
	}
}

func TestBasicSetParams(t *testing.T) {
	s2 := choleskyS2()
	ps := s2.Params()
	if len(ps) != 1 || ps[0] != "n" {
		t.Errorf("Params = %v, want [n]", ps)
	}
	if !s2.IsDim("i") || s2.IsDim("n") {
		t.Error("IsDim misclassifies")
	}
}

func TestBasicSetEmptiness(t *testing.T) {
	// { [j] : j >= 1 and j <= 0 } is empty.
	b := NewBasicSet("S", "j").With(Ge(V("j"), L(1)), Le(V("j"), L(0)))
	empty, exact := b.IsEmpty()
	if !empty || !exact {
		t.Errorf("IsEmpty = %v,%v want true,true", empty, exact)
	}
	// { [j] : 0 <= j <= 5 } is non-empty.
	b = NewBasicSet("S", "j").With(Ge(V("j"), L(0)), Le(V("j"), L(5)))
	empty, exact = b.IsEmpty()
	if empty || !exact {
		t.Errorf("IsEmpty = %v,%v want false,true", empty, exact)
	}
	// Parametric: { [j] : 0 <= j <= n-1 } is non-empty (for some n).
	empty, _ = choleskyS1().IsEmpty()
	if empty {
		t.Error("parametric S1 should not be empty")
	}
	// Integer-only emptiness: { [j] : 2j == 1 }.
	b = NewBasicSet("S", "j").With(EqZero(Term(2, "j").AddConst(-1)))
	empty, exact = b.IsEmpty()
	if !empty || !exact {
		t.Errorf("2j=1: IsEmpty = %v,%v want true,true", empty, exact)
	}
}

func TestProjectOut(t *testing.T) {
	// Projecting i out of S2 gives { S2[j] : 0 <= j <= n-2 } — the j range
	// shrinks because i needs j+1 <= n-1.
	s2 := choleskyS2()
	proj, exact := s2.ProjectOut("i")
	if !exact {
		t.Fatal("projection should be exact (unit coefficients)")
	}
	if len(proj.Dims) != 1 || proj.Dims[0] != "j" {
		t.Fatalf("projected dims = %v", proj.Dims)
	}
	for _, tc := range []struct {
		j, n int64
		want bool
	}{
		{0, 4, true}, {2, 4, true}, {3, 4, false}, {0, 1, false},
	} {
		got := proj.Contains(map[string]int64{"j": tc.j, "n": tc.n})
		if got != tc.want {
			t.Errorf("j=%d n=%d: Contains = %v, want %v", tc.j, tc.n, got, tc.want)
		}
	}
}

func TestIntersectRenamesPositionally(t *testing.T) {
	a := NewBasicSet("S", "x").With(Ge(V("x"), L(0)))
	b := NewBasicSet("S", "y").With(Le(V("y"), L(10)))
	c := a.Intersect(b)
	if !c.Contains(map[string]int64{"x": 5}) {
		t.Error("5 should be in [0,10]")
	}
	if c.Contains(map[string]int64{"x": 11}) {
		t.Error("11 should not be in [0,10]")
	}
}

func TestSubtract(t *testing.T) {
	// [0,10] \ [3,5] = [0,2] ∪ [6,10]
	x := V("x")
	a := UnionSet(NewBasicSet("S", "x").With(Ge(x, L(0)), Le(x, L(10))))
	b := UnionSet(NewBasicSet("S", "x").With(Ge(x, L(3)), Le(x, L(5))))
	d := a.Subtract(b)
	for v := int64(-2); v <= 12; v++ {
		want := (v >= 0 && v <= 2) || (v >= 6 && v <= 10)
		got := d.Contains(map[string]int64{"x": v})
		if got != want {
			t.Errorf("x=%d: Contains = %v, want %v", v, got, want)
		}
	}

	// Random disjoint, nested and overlapping cases: the points of s \ o,
	// enumerated piece by piece, must be exactly the points of s outside o,
	// and the reference always-split algorithm must give the same points.
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 300; trial++ {
		kind := trial % 3
		s, o := randomSubtraction(rng, kind)
		d := s.Subtract(o)
		var ref Set
		WithReferenceSubtract(func() { ref = s.Subtract(o) })
		for _, params := range subtractParams {
			want := pointSet(params, s, func(env map[string]int64) bool { return !o.Contains(env) })
			for name, got := range map[string]Set{"Subtract": d, "reference": ref} {
				if have := pointSet(params, got, nil); !maps.Equal(have, want) {
					t.Fatalf("trial %d (kind %d) n=%d: %s gives %d points, want %d\ns = %v\no = %v\ngot %v",
						trial, kind, params["n"], name, len(have), len(want), s, o, got)
				}
			}
		}
	}
}

// subtractParams are the parameter values the random Subtract cases are
// enumerated at.
var subtractParams = []map[string]int64{{"n": 1}, {"n": 4}}

// box returns the piece x0 <= x <= x1, y0 <= y <= y1.
func box(x0, x1, y0, y1 int64) BasicSet {
	x, y := V("x"), V("y")
	return NewBasicSet("S", "x", "y").With(Ge(x, L(x0)), Le(x, L(x1)), Ge(y, L(y0)), Le(y, L(y1)))
}

// cut adds a random half-plane to b half the time: unit or non-unit
// coefficients (the latter may make emptiness inexact), sometimes bounded by
// the parameter n.
func cut(rng *rand.Rand, b BasicSet) BasicSet {
	if rng.Intn(2) == 0 {
		return b
	}
	e := Term(int64(rng.Intn(5)-2), "x").Add(Term(int64(rng.Intn(5)-2), "y")).AddConst(int64(rng.Intn(9) - 2))
	if rng.Intn(3) == 0 {
		e = e.Add(V("n"))
	}
	return b.With(GeZero(e))
}

// randomSubtraction draws s, one or two pieces stacked apart in y over the
// same x range, and o, one to three pieces placed by kind: 0 disjoint from
// every piece of s (to the left or right of its x range), 1 nested inside a
// piece of s, 2 anywhere (usually overlapping).
func randomSubtraction(rng *rand.Rand, kind int) (s, o Set) {
	r := func(lo, hi int64) int64 { return lo + rng.Int63n(hi-lo+1) }
	x0, x1 := r(-6, 0), r(0, 5)
	ys := [][2]int64{{r(-6, -2), 0}}
	ys[0][1] = ys[0][0] + r(0, 3)
	if rng.Intn(2) == 0 {
		lo := ys[0][1] + r(1, 2)
		ys = append(ys, [2]int64{lo, lo + r(0, 3)})
	}
	for _, y := range ys {
		s.Pieces = append(s.Pieces, cut(rng, box(x0, x1, y[0], y[1])))
	}
	for k := r(1, 3); k > 0; k-- {
		var b BasicSet
		switch kind {
		case 0:
			if rng.Intn(2) == 0 {
				lo := x1 + r(1, 3)
				b = box(lo, lo+r(0, 4), r(-6, 0), r(0, 6))
			} else {
				hi := x0 - r(1, 3)
				b = box(hi-r(0, 4), hi, r(-6, 0), r(0, 6))
			}
		case 1:
			i := rng.Intn(len(ys))
			bx0, by0 := r(x0, x1), r(ys[i][0], ys[i][1])
			b = box(bx0, r(bx0, x1), by0, r(by0, ys[i][1])).With(s.Pieces[i].Cons...)
		default:
			bx0, by0 := r(-7, 5), r(-7, 5)
			b = box(bx0, bx0+r(0, 6), by0, by0+r(0, 6))
		}
		o.Pieces = append(o.Pieces, cut(rng, b))
	}
	return s, o
}

// pointSet enumerates the points of s at params (dimensions in [-8, 8]) that
// keep passes (all of them when keep is nil), keyed "x,y".
func pointSet(params map[string]int64, s Set, keep func(env map[string]int64) bool) map[string]bool {
	pts := map[string]bool{}
	for _, p := range s.Pieces {
		for _, pt := range p.EnumeratePoints(params, 8) {
			env := map[string]int64{"x": pt["x"], "y": pt["y"]}
			for k, v := range params {
				env[k] = v
			}
			if keep == nil || keep(env) {
				pts[fmt.Sprint(pt["x"], ",", pt["y"])] = true
			}
		}
	}
	return pts
}

func TestSubtractPiecesDisjoint(t *testing.T) {
	// The incremental-prefix construction makes result pieces disjoint.
	x := V("x")
	a := UnionSet(NewBasicSet("S", "x").With(Ge(x, L(0)), Le(x, L(20))))
	b := UnionSet(NewBasicSet("S", "x").With(Ge(x, L(5)), Le(x, L(10))))
	d := a.Subtract(b)
	for v := int64(0); v <= 20; v++ {
		hits := 0
		for _, p := range d.Pieces {
			if p.Contains(map[string]int64{"x": v}) {
				hits++
			}
		}
		if hits > 1 {
			t.Errorf("x=%d contained in %d pieces; want disjoint", v, hits)
		}
	}

	// Random cases: s's pieces are disjoint, so the difference's must be
	// too, and an o that misses s entirely must leave s's pieces unsplit.
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 300; trial++ {
		kind := trial % 3
		s, o := randomSubtraction(rng, kind)
		d := s.Subtract(o)
		if kind == 0 && len(d.Pieces) != len(s.Pieces) {
			t.Fatalf("trial %d: o misses s, yet %d pieces became %d\ns = %v\no = %v\ngot %v",
				trial, len(s.Pieces), len(d.Pieces), s, o, d)
		}
		for _, params := range subtractParams {
			hits := map[string]int{}
			for _, p := range d.Pieces {
				for pt := range pointSet(params, UnionSet(p), nil) {
					if hits[pt]++; hits[pt] > 1 {
						t.Fatalf("trial %d n=%d: point %s lies in two pieces of %v", trial, params["n"], pt, d)
					}
				}
			}
		}
	}
}

func TestEqualSet(t *testing.T) {
	x := V("x")
	a := UnionSet(NewBasicSet("S", "x").With(Ge(x, L(0)), Le(x, L(10))))
	// Same interval expressed as union of two adjacent intervals.
	b := UnionSet(
		NewBasicSet("S", "x").With(Ge(x, L(0)), Le(x, L(4))),
		NewBasicSet("S", "x").With(Ge(x, L(5)), Le(x, L(10))),
	)
	eq, exact := a.EqualSet(b)
	if !eq || !exact {
		t.Errorf("EqualSet = %v,%v", eq, exact)
	}
	c := UnionSet(NewBasicSet("S", "x").With(Ge(x, L(0)), Le(x, L(9))))
	if eq, _ := a.EqualSet(c); eq {
		t.Error("[0,10] != [0,9]")
	}
}

func TestSampleAndEnumerate(t *testing.T) {
	s2 := choleskyS2()
	pt, ok := s2.Sample(map[string]int64{"n": 3}, 5)
	if !ok {
		t.Fatal("S2 with n=3 should have points")
	}
	env := map[string]int64{"n": 3, "j": pt["j"], "i": pt["i"]}
	if !s2.Contains(env) {
		t.Errorf("Sample returned non-member %v", pt)
	}
	pts := s2.EnumeratePoints(map[string]int64{"n": 3}, 5)
	// n=3: j=0:i∈{1,2}, j=1:i=2, j=2: none → 3 points.
	if len(pts) != 3 {
		t.Errorf("EnumeratePoints found %d points, want 3", len(pts))
	}
	if _, ok := s2.Sample(map[string]int64{"n": 1}, 5); ok {
		t.Error("S2 with n=1 should be empty")
	}
}

func TestStringFormats(t *testing.T) {
	if got := choleskyS1().String(); got != "{ S1[j] : j >= 0 and -j + n - 1 >= 0 }" {
		t.Errorf("String() = %q", got)
	}
	u := NewBasicSet("S", "x")
	if got := u.String(); got != "{ S[x] }" {
		t.Errorf("universe String() = %q", got)
	}
	if got := UnionSet().String(); got != "{ }" {
		t.Errorf("empty union String() = %q", got)
	}
}

func TestSimplifiedDropsDuplicates(t *testing.T) {
	x := V("x")
	b := NewBasicSet("S", "x").With(Ge(x, L(0)), Ge(x, L(0)), GeZero(L(3)))
	s := b.Simplified()
	if len(s.Cons) != 1 {
		t.Errorf("Simplified kept %d constraints, want 1", len(s.Cons))
	}
	// Infeasible constant constraint collapses to canonical false.
	b2 := NewBasicSet("S", "x").With(GeZero(L(-1)))
	s2 := b2.Simplified()
	if e, _ := s2.IsEmpty(); !e {
		t.Error("canonical false set should be empty")
	}
}

// TestProjectionAgainstEnumeration cross-validates Fourier-Motzkin projection
// against brute-force enumeration on random 2D integer systems with unit
// coefficients (the exact fragment).
func TestProjectionAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		// Random constraints a*x + b*y + c >= 0 with a,b ∈ {-1,0,1}.
		b := NewBasicSet("S", "x", "y")
		for k := 0; k < 4; k++ {
			a := int64(rng.Intn(3) - 1)
			bb := int64(rng.Intn(3) - 1)
			c := int64(rng.Intn(11) - 5)
			b = b.With(GeZero(Term(a, "x").Add(Term(bb, "y")).AddConst(c)))
		}
		// Bound the region so enumeration is finite.
		b = b.With(Ge(V("x"), L(-6)), Le(V("x"), L(6)), Ge(V("y"), L(-6)), Le(V("y"), L(6)))

		proj, exact := b.ProjectOut("y")
		if !exact {
			t.Fatalf("trial %d: expected exact projection with unit coefficients", trial)
		}
		for x := int64(-8); x <= 8; x++ {
			inProj := proj.Contains(map[string]int64{"x": x})
			exists := false
			for y := int64(-8); y <= 8; y++ {
				if b.Contains(map[string]int64{"x": x, "y": y}) {
					exists = true
					break
				}
			}
			if inProj != exists {
				t.Fatalf("trial %d x=%d: projection says %v, enumeration says %v\nset: %v\nproj: %v",
					trial, x, inProj, exists, b, proj)
			}
		}
	}
}

// TestEmptinessAgainstEnumeration cross-validates integer emptiness.
func TestEmptinessAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		b := NewBasicSet("S", "x", "y")
		n := rng.Intn(4) + 2
		for k := 0; k < n; k++ {
			a := int64(rng.Intn(3) - 1)
			bb := int64(rng.Intn(3) - 1)
			c := int64(rng.Intn(9) - 4)
			if rng.Intn(5) == 0 {
				b = b.With(EqZero(Term(a, "x").Add(Term(bb, "y")).AddConst(c)))
			} else {
				b = b.With(GeZero(Term(a, "x").Add(Term(bb, "y")).AddConst(c)))
			}
		}
		b = b.With(Ge(V("x"), L(-5)), Le(V("x"), L(5)), Ge(V("y"), L(-5)), Le(V("y"), L(5)))
		empty, exact := b.IsEmpty()
		if !exact {
			continue // approximate result: only the exact ones are checked
		}
		_, found := b.Sample(nil, 6)
		if empty == found {
			t.Fatalf("trial %d: IsEmpty=%v but enumeration found=%v for %v", trial, empty, found, b)
		}
	}
}
