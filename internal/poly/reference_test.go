package poly

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file is a constraint-level reference implementation of elimination,
// projection and emptiness, used as a test oracle: every constraint is a
// LinExpr, normalized through the public API, and deduplicated by its
// rendered string. The dense row kernel in fm.go must make exactly the same
// decisions.

type refSystem struct {
	cons       []Constraint
	seen       map[string]bool
	infeasible bool
}

func refNewSystem(cs []Constraint) *refSystem {
	s := &refSystem{seen: make(map[string]bool, len(cs))}
	for _, c := range cs {
		s.add(c)
	}
	return s
}

// refState classifies a constraint after normalization.
type refState int

const (
	normKeep    refState = iota // constraint retained
	normDrop                    // trivially true, drop it
	normInfeasy                 // trivially false, system is empty
)

// refNormalize tightens a constraint over the integers through the public
// API: inequality coefficients are divided by their gcd with the constant
// floored; equalities whose constant the gcd does not divide are
// infeasible; constant-only constraints are resolved outright.
func refNormalize(c Constraint) (Constraint, refState) {
	k := c.E.Const()
	if c.E.IsConst() {
		if c.Equality {
			if k == 0 {
				return c, normDrop
			}
			return c, normInfeasy
		}
		if k >= 0 {
			return c, normDrop
		}
		return c, normInfeasy
	}
	var g int64
	for _, v := range c.E.Vars() {
		g = gcd64(g, c.E.Coeff(v))
	}
	if g <= 1 {
		return c, normKeep
	}
	if c.Equality {
		if k%g != 0 {
			return c, normInfeasy
		}
		e := L(k / g)
		for _, v := range c.E.Vars() {
			e = e.Add(Term(c.E.Coeff(v)/g, v))
		}
		return Constraint{E: e, Equality: true}, normKeep
	}
	e := L(floorDiv(k, g))
	for _, v := range c.E.Vars() {
		e = e.Add(Term(c.E.Coeff(v)/g, v))
	}
	return Constraint{E: e}, normKeep
}

func (s *refSystem) add(c Constraint) {
	nc, st := refNormalize(c)
	switch st {
	case normDrop:
		return
	case normInfeasy:
		s.infeasible = true
		return
	}
	k := nc.String()
	if s.seen[k] {
		return
	}
	s.seen[k] = true
	s.cons = append(s.cons, nc)
}

func (s *refSystem) list() []Constraint {
	out := make([]Constraint, len(s.cons))
	copy(out, s.cons)
	return out
}

func refEliminate(cons []Constraint, v string) (out []Constraint, exact, infeasible bool) {
	exact = true

	// Prefer substitution through an equality with unit coefficient: exact.
	bestEq := -1
	for i, c := range cons {
		if !c.Equality || !c.E.Uses(v) {
			continue
		}
		if a := c.E.Coeff(v); a == 1 || a == -1 {
			bestEq = i
			break
		}
		if bestEq < 0 {
			bestEq = i
		}
	}
	if bestEq >= 0 {
		eq := cons[bestEq]
		a := eq.E.Coeff(v)
		if a == 1 || a == -1 {
			// v = rest where rest = -(eq - a*v)/a.
			rest := eq.E.Subst(v, L(0)).Scale(-a) // a^2 = 1
			sys := refNewSystem(nil)
			for i, c := range cons {
				if i == bestEq {
					continue
				}
				sys.add(c.Subst(v, rest))
			}
			return sys.list(), true, sys.infeasible
		}
		// Non-unit equality a*v = -rest: scale the other constraints by |a|
		// and substitute a*v. Drops the divisibility condition a | rest, so
		// the result is a superset: mark inexact.
		if a < 0 {
			eq = EqZero(eq.E.Neg())
			a = -a
		}
		rest := eq.E.Subst(v, L(0)) // a*v + rest == 0, so a*v == -rest
		sys := refNewSystem(nil)
		for i, c := range cons {
			if i == bestEq {
				continue
			}
			cv := c.E.Coeff(v)
			if cv == 0 {
				sys.add(c)
				continue
			}
			// a*c.E = a*cv*v + a*(c.E - cv*v) = cv*(a*v) + a*rest'
			scaled := c.E.Subst(v, L(0)).Scale(a).Add(rest.Neg().Scale(cv))
			sys.add(Constraint{E: scaled, Equality: c.Equality})
		}
		return sys.list(), false, sys.infeasible
	}

	// Fourier-Motzkin on inequalities.
	var lowers, uppers []Constraint // coeff(v) > 0, coeff(v) < 0
	sys := refNewSystem(nil)
	for _, c := range cons {
		a := c.E.Coeff(v)
		switch {
		case a == 0:
			sys.add(c)
		case a > 0:
			lowers = append(lowers, c)
		default:
			uppers = append(uppers, c)
		}
	}
	for _, lo := range lowers {
		cl := lo.E.Coeff(v)
		rl := lo.E.Subst(v, L(0))
		for _, up := range uppers {
			cu := -up.E.Coeff(v)
			ru := up.E.Subst(v, L(0))
			// From cl*v + rl >= 0 and -cu*v + ru >= 0:
			// cu*rl + cl*ru >= 0 is the real shadow.
			sys.add(GeZero(rl.Scale(cu).Add(ru.Scale(cl))))
			if cl != 1 && cu != 1 {
				exact = false
			}
		}
	}
	return sys.list(), exact, sys.infeasible
}

func refVarsOf(cons []Constraint) []string {
	set := map[string]bool{}
	for _, c := range cons {
		for _, v := range c.E.Vars() {
			set[v] = true
		}
	}
	vs := make([]string, 0, len(set))
	for v := range set {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	return vs
}

func refProject(cons []Constraint, vars []string) (out []Constraint, exact bool, infeasible bool) {
	sys0 := refNewSystem(cons)
	if sys0.infeasible {
		return nil, true, true
	}
	out = sys0.list()
	exact = true
	remaining := append([]string(nil), vars...)
	for len(remaining) > 0 {
		// Eliminate the cheapest variable first: one with an equality, else
		// the one with the fewest lower*upper combinations.
		best, bestCost := -1, int(^uint(0)>>1)
		for i, v := range remaining {
			cost, hasEq := refElimCost(out, v)
			if hasEq {
				best = i
				break
			}
			if cost < bestCost {
				best, bestCost = i, cost
			}
		}
		v := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		var ex, inf bool
		out, ex, inf = refEliminate(out, v)
		exact = exact && ex
		if inf {
			return out, exact, true
		}
	}
	return out, exact, false
}

func refElimCost(cons []Constraint, v string) (cost int, hasUnitEq bool) {
	lo, hi := 0, 0
	for _, c := range cons {
		a := c.E.Coeff(v)
		if a == 0 {
			continue
		}
		if c.Equality && (a == 1 || a == -1) {
			return 0, true
		}
		if a > 0 {
			lo++
		} else {
			hi++
		}
	}
	return lo * hi, false
}

func refEmptiness(cons []Constraint) (empty, exact bool) {
	sys := refNewSystem(cons)
	if sys.infeasible {
		return true, true
	}
	out, ex, inf := refProject(sys.list(), refVarsOf(sys.list()))
	if inf {
		return true, true
	}
	for _, c := range out {
		if ok, _ := c.Holds(nil); !ok {
			return true, true
		}
	}
	return false, ex
}

// refProjectOut is BasicSet.ProjectOut over the reference projection.
func refProjectOut(b BasicSet, dims ...string) ([]Constraint, bool) {
	cons, exact, inf := refProject(b.Cons, dims)
	if inf {
		return []Constraint{GeZero(L(-1))}, exact
	}
	return cons, exact
}

// randomSystem draws a constraint system over nv variables with
// coefficients in [-4, 4] and some equalities.
func randomSystem(rng *rand.Rand, names []string) []Constraint {
	nc := 1 + rng.Intn(len(names)+4)
	cons := make([]Constraint, nc)
	for i := range cons {
		e := L(int64(rng.Intn(21) - 10))
		for _, v := range names {
			if rng.Intn(2) == 0 {
				e = e.Add(Term(int64(rng.Intn(9)-4), v))
			}
		}
		cons[i] = Constraint{E: e, Equality: rng.Intn(5) == 0}
	}
	return cons
}

// TestKernelMatchesReference checks the dense kernel against the reference
// algorithm on seeded random systems: identical (empty, exact) answers and
// identical ProjectOut constraint lists and exactness.
func TestKernelMatchesReference(t *testing.T) {
	pool := []string{"a", "b", "i", "i'", "j", "n", "x$1"}
	rng := rand.New(rand.NewSource(20140609))
	const systems = 20000
	var inexact, empty int
	for it := 0; it < systems; it++ {
		nv := 2 + rng.Intn(6)
		names := append([]string(nil), pool...)
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		names = names[:nv]
		cons := randomSystem(rng, names)

		e1, x1 := emptiness(cons)
		e2, x2 := refEmptiness(cons)
		if e1 != e2 || x1 != x2 {
			t.Fatalf("system %d %v: emptiness (%v, %v), reference (%v, %v)", it, cons, e1, x1, e2, x2)
		}
		if e1 {
			empty++
		}
		if !x1 {
			inexact++
		}

		// Project out a random selection in random order, sometimes with a
		// variable the system does not mention or one named twice.
		var dims []string
		for _, v := range names {
			if rng.Intn(2) == 0 {
				dims = append(dims, v)
			}
		}
		if rng.Intn(8) == 0 {
			dims = append(dims, "absent")
		}
		if len(dims) > 0 && rng.Intn(8) == 0 {
			dims = append(dims, dims[0])
		}
		rng.Shuffle(len(dims), func(i, j int) { dims[i], dims[j] = dims[j], dims[i] })
		b := BasicSet{Tuple: "S", Dims: names, Cons: cons}
		got, gx := b.ProjectOut(dims...)
		want, wx := refProjectOut(b, dims...)
		if gx != wx || !sameOrder(got.Cons, want) {
			t.Fatalf("system %d %v, project %v:\n got  %v exact=%v\n want %v exact=%v",
				it, cons, dims, got.Cons, gx, want, wx)
		}
	}
	t.Logf("%d systems: %d empty, %d inexact", systems, empty, inexact)
	// The draw must exercise both answers and inexact eliminations.
	if empty < systems/20 || empty > systems*19/20 || inexact < systems/50 {
		t.Errorf("weak draw: %d empty, %d inexact of %d", empty, inexact, systems)
	}
}

func sameOrder(a, b []Constraint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].equal(b[i]) {
			return false
		}
	}
	return true
}

// TestOverflowIsInexact checks that coefficients near 2^32, whose
// Fourier-Motzkin combinations overflow int64, make emptiness answer
// "not empty, inexact" and projection report an inexact result rather than
// deciding on wrapped arithmetic.
func TestOverflowIsInexact(t *testing.T) {
	const big = 1<<32 + 1
	x, y, z := V("x"), V("y"), V("z")
	// big*x + (big+2)*y >= 0 and -(big+4)*x + (big+6)*z - 1 >= 0: eliminating
	// x multiplies (big+4)*(big+2), far beyond int64. Constraints on y and z
	// keep the system integer-empty, which wrapped arithmetic could "prove".
	cons := []Constraint{
		GeZero(Term(big, "x").Add(Term(big+2, "y"))),
		GeZero(Term(-(big + 4), "x").Add(Term(big+6, "z")).AddConst(-1)),
		Ge(y, L(0)), Le(z, L(0)), Ge(z, L(0)), Le(y, L(0)),
	}
	if empty, exact := emptiness(cons); empty || exact {
		t.Errorf("emptiness = (%v, %v), want (false, false) on overflow", empty, exact)
	}
	b := BasicSet{Tuple: "S", Dims: []string{"x", "y", "z"}, Cons: cons}
	if _, exact := b.ProjectOut("x"); exact {
		t.Error("ProjectOut through an overflowing combination reported exact")
	}
	// Substitution through an equality overflows too.
	eq := []Constraint{
		EqZero(x.Sub(Term(math.MaxInt64/2, "y"))),
		GeZero(Term(4, "x").Add(z)),
	}
	if empty, exact := emptiness(eq); empty || exact {
		t.Errorf("emptiness via substitution = (%v, %v), want (false, false)", empty, exact)
	}
	// Unit coefficients at the same scale stay exact.
	small := []Constraint{Ge(x, Term(big, "n")), Le(x, Term(big, "n").AddConst(-1))}
	if empty, exact := emptiness(small); !empty || !exact {
		t.Errorf("non-overflowing empty system = (%v, %v), want (true, true)", empty, exact)
	}
}

// subtractReference is the piece difference as Subtract computed it before
// the disjointness test: it always splits a into a ∧ c_1 ∧ … ∧ c_{i-1} ∧ ¬c_i
// pieces, even when b misses a and the answer is a itself. The tests hold
// subtractBasic to the same point sets.
func subtractReference(a, b BasicSet) []BasicSet {
	if len(a.Dims) != len(b.Dims) {
		panic("poly: subtract dimension mismatch")
	}
	m := map[string]string{}
	for i, d := range b.Dims {
		m[d] = a.Dims[i]
	}
	rb := b.Rename(m)
	var out []BasicSet
	prefix := a.Copy()
	for _, c := range rb.Cons {
		for _, neg := range c.Negate() {
			p := prefix.With(neg)
			if e, _ := p.IsEmpty(); !e {
				out = append(out, p.Simplified())
			}
		}
		prefix = prefix.With(c)
	}
	return out
}

// WithReferenceSubtract runs f with Set.Subtract (and so SubsetOf and
// EqualSet) computing every piece difference by subtractReference. It lets
// the tests outside the package rerun a whole analysis with the reference.
// Not safe beside parallel tests that subtract.
func WithReferenceSubtract(f func()) {
	saved := subtractPiece
	subtractPiece = subtractReference
	defer func() { subtractPiece = saved }()
	f()
}
