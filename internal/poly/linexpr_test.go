package poly

import (
	"testing"
	"testing/quick"
)

func TestLinExprBasics(t *testing.T) {
	e := V("j").Scale(2).Add(L(3)).Sub(V("n"))
	if e.Coeff("j") != 2 || e.Coeff("n") != -1 || e.Const() != 3 {
		t.Fatalf("unexpected expr %v", e)
	}
	if e.IsConst() {
		t.Error("expr with vars reported const")
	}
	if got := e.String(); got != "2*j - n + 3" {
		t.Errorf("String() = %q", got)
	}
}

func TestLinExprZeroCoeffRemoved(t *testing.T) {
	e := V("x").Sub(V("x"))
	if !e.IsConst() || e.Const() != 0 {
		t.Errorf("x - x should be constant 0, got %v", e)
	}
	if len(e.Vars()) != 0 {
		t.Errorf("Vars() = %v", e.Vars())
	}
}

func TestTerm(t *testing.T) {
	if e := Term(0, "x"); !e.IsConst() {
		t.Error("Term(0,x) should be constant 0")
	}
	if e := Term(-3, "y"); e.Coeff("y") != -3 {
		t.Error("Term(-3,y) has wrong coefficient")
	}
}

func TestLinExprSubst(t *testing.T) {
	// (2j + n) with j := i + 1 → 2i + n + 2
	e := Term(2, "j").Add(V("n"))
	got := e.Subst("j", V("i").AddConst(1))
	want := Term(2, "i").Add(V("n")).AddConst(2)
	if !got.Equal(want) {
		t.Errorf("Subst = %v, want %v", got, want)
	}
	// substituting an absent var is identity
	if !e.Subst("zz", L(5)).Equal(e) {
		t.Error("substituting absent var changed expr")
	}
}

func TestLinExprRename(t *testing.T) {
	e := V("j").Add(V("n"))
	r := e.Rename(map[string]string{"j": "jp"})
	if r.Coeff("jp") != 1 || r.Coeff("j") != 0 || r.Coeff("n") != 1 {
		t.Errorf("Rename = %v", r)
	}
	// renaming two vars onto the same name merges coefficients
	m := V("a").Add(V("b")).Rename(map[string]string{"a": "c", "b": "c"})
	if m.Coeff("c") != 2 {
		t.Errorf("merged rename = %v", m)
	}
}

func TestLinExprEval(t *testing.T) {
	e := Term(2, "j").Add(V("n")).AddConst(-1)
	v, complete := e.Eval(map[string]int64{"j": 3, "n": 10})
	if !complete || v != 15 {
		t.Errorf("Eval = %d, complete=%v", v, complete)
	}
	_, complete = e.Eval(map[string]int64{"j": 3})
	if complete {
		t.Error("Eval with missing var should report incomplete")
	}
}

func TestLinExprAlgebraProperties(t *testing.T) {
	mk := func(a, b, k int8) LinExpr {
		return Term(int64(a), "x").Add(Term(int64(b), "y")).AddConst(int64(k))
	}
	add := func(a1, b1, k1, a2, b2, k2 int8) bool {
		e, f := mk(a1, b1, k1), mk(a2, b2, k2)
		return e.Add(f).Equal(f.Add(e))
	}
	if err := quick.Check(add, nil); err != nil {
		t.Errorf("Add not commutative: %v", err)
	}
	subSelf := func(a, b, k int8) bool {
		e := mk(a, b, k)
		return e.Sub(e).IsConst() && e.Sub(e).Const() == 0
	}
	if err := quick.Check(subSelf, nil); err != nil {
		t.Errorf("e - e != 0: %v", err)
	}
	scaleDist := func(a, b, k, c int8) bool {
		e := mk(a, b, k)
		env := map[string]int64{"x": 7, "y": -3}
		lhs, _ := e.Scale(int64(c)).Eval(env)
		rhs, _ := e.Eval(env)
		return lhs == rhs*int64(c)
	}
	if err := quick.Check(scaleDist, nil); err != nil {
		t.Errorf("Scale inconsistent with Eval: %v", err)
	}
}

func TestLinExprString(t *testing.T) {
	cases := []struct {
		e    LinExpr
		want string
	}{
		{L(0), "0"},
		{L(-7), "-7"},
		{V("n"), "n"},
		{V("n").Neg(), "-n"},
		{V("n").Sub(V("j")).AddConst(-1), "-j + n - 1"},
		{Term(3, "i"), "3*i"},
		{Term(-2, "i").AddConst(5), "-2*i + 5"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestGCDAndFloorDiv(t *testing.T) {
	if gcd64(12, -18) != 6 {
		t.Error("gcd64(12,-18) != 6")
	}
	if gcd64(0, 5) != 5 {
		t.Error("gcd64(0,5) != 5")
	}
	if floorDiv(7, 2) != 3 || floorDiv(-7, 2) != -4 || floorDiv(-8, 2) != -4 {
		t.Error("floorDiv wrong")
	}
}

func TestConstraintConstructors(t *testing.T) {
	j, n := V("j"), V("n")
	env := map[string]int64{"j": 4, "n": 5}
	cases := []struct {
		c    Constraint
		want bool
	}{
		{Le(j, n), true},
		{Lt(j, n), true},
		{Lt(n, j), false},
		{Ge(n, j), true},
		{Gt(j, n), false},
		{Eq(j, n), false},
		{Eq(j, j), true},
	}
	for i, c := range cases {
		got, complete := c.c.Holds(env)
		if !complete || got != c.want {
			t.Errorf("case %d (%v): Holds = %v, want %v", i, c.c, got, c.want)
		}
	}
}

func TestConstraintNegate(t *testing.T) {
	// ¬(x >= 0) is x <= -1
	c := GeZero(V("x"))
	neg := c.Negate()
	if len(neg) != 1 {
		t.Fatalf("inequality negation has %d parts", len(neg))
	}
	if ok, _ := neg[0].Holds(map[string]int64{"x": -1}); !ok {
		t.Error("x=-1 should satisfy negation")
	}
	if ok, _ := neg[0].Holds(map[string]int64{"x": 0}); ok {
		t.Error("x=0 should not satisfy negation")
	}
	// ¬(x == 0) is x >= 1 or x <= -1
	eq := EqZero(V("x"))
	neg = eq.Negate()
	if len(neg) != 2 {
		t.Fatalf("equality negation has %d parts", len(neg))
	}
	holdsAny := func(x int64) bool {
		for _, c := range neg {
			if ok, _ := c.Holds(map[string]int64{"x": x}); ok {
				return true
			}
		}
		return false
	}
	if holdsAny(0) || !holdsAny(1) || !holdsAny(-1) {
		t.Error("equality negation covers wrong points")
	}
}

func TestConstraintNormalizeTightening(t *testing.T) {
	// 2x - 3 >= 0 over the integers means x >= ceil(3/2) = 2, i.e.
	// x - 2 >= 0: normalization divides by the gcd 2 and floors the
	// constant, floor(-3/2) = -2.
	cs, inf := simplify([]Constraint{GeZero(Term(2, "x").AddConst(-3))})
	if inf || len(cs) != 1 {
		t.Fatalf("simplify = %v, infeasible %v", cs, inf)
	}
	if c := cs[0]; c.E.Coeff("x") != 1 || c.E.Const() != -2 || c.Equality {
		t.Errorf("normalized to %v, want x - 2 >= 0", c)
	}
	// 2x - 3 == 0 has no integer solution.
	if _, inf := simplify([]Constraint{EqZero(Term(2, "x").AddConst(-3))}); !inf {
		t.Error("2x=3 should be infeasible over integers")
	}
	// 2x - 4 == 0 normalizes to x - 2 == 0.
	cs, inf = simplify([]Constraint{EqZero(Term(2, "x").AddConst(-4))})
	if inf || len(cs) != 1 || cs[0].E.Coeff("x") != 1 || cs[0].E.Const() != -2 || !cs[0].Equality {
		t.Errorf("2x=4 normalized to %v", cs)
	}
	// Constant constraints resolve.
	if cs, inf := simplify([]Constraint{GeZero(L(5))}); inf || len(cs) != 0 {
		t.Error("5 >= 0 should drop")
	}
	if _, inf := simplify([]Constraint{GeZero(L(-5))}); !inf {
		t.Error("-5 >= 0 should be infeasible")
	}
}
