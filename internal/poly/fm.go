package poly

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// This file implements variable elimination over systems of integer affine
// constraints: substitution through equalities when possible (exact) and
// Fourier-Motzkin combination of inequality pairs otherwise. Every
// elimination reports whether it was exact over the integers; the sources
// of approximation are eliminating through an equality with non-unit
// coefficient (loses a divisibility condition), combining two inequalities
// that both have non-unit coefficients on the eliminated variable (the real
// shadow can exceed the integer shadow), and int64 overflow while combining
// (the overflowing constraint is dropped, which only enlarges the set).
//
// Elimination runs on a dense kernel: the system's variables are indexed
// once, in sorted order, and every constraint becomes one []int64 row of
// coefficients followed by the constant. Rows are normalized and
// deduplicated in first-seen order. Every decision — elimination order,
// exactness, and the constraints handed back — must equal that of the
// constraint-level reference in reference_test.go.

// varsOf returns all variables appearing in the constraints, sorted.
func varsOf(cons []Constraint) []string { return appendVars(nil, cons) }

// appendVars merges the (sorted) variables of cons into the sorted,
// distinct list vs.
func appendVars(vs []string, cons []Constraint) []string {
	for _, c := range cons {
		for _, v := range c.E.vars {
			i := sort.SearchStrings(vs, v)
			if i < len(vs) && vs[i] == v {
				continue
			}
			vs = append(vs, "")
			copy(vs[i+1:], vs[i:])
			vs[i] = v
		}
	}
	return vs
}

// rows is a constraint system in dense form over n variable columns: row i
// is data[i*(n+1):(i+1)*(n+1)], the coefficients followed by the constant,
// and eq[i] tells whether it is an equality. Rows are kept normalized and
// distinct, in first-seen order.
type rows struct {
	n          int
	data       []int64
	eq         []bool
	hash       []uint64         // hash[i] is row i's hash
	index      map[uint64]int32 // hash -> first row with it, past linearDedup rows
	infeasible bool
}

// linearDedup is the system size up to which duplicates are found by a
// linear scan of the row hashes rather than a map.
const linearDedup = 64

func (s *rows) len() int { return len(s.eq) }

func (s *rows) row(i int) []int64 {
	w := s.n + 1
	return s.data[i*w : (i+1)*w : (i+1)*w]
}

func (s *rows) reset(n int) {
	s.n = n
	s.data = s.data[:0]
	s.eq = s.eq[:0]
	s.hash = s.hash[:0]
	s.index = nil
	s.infeasible = false
}

// add normalizes r in place and appends it unless it is trivially true or
// already present. Normalization tightens over the integers: the
// coefficients are divided by their gcd, an inequality's constant floored
// (exact for integer points) and an equality whose constant the gcd does
// not divide is infeasible; a constant row is dropped or infeasible.
func (s *rows) add(r []int64, eq bool) {
	n := s.n
	var g int64
	for _, a := range r[:n] {
		if a != 0 {
			g = gcd64(g, a)
		}
	}
	k := r[n]
	switch {
	case g == 0: // constant row
		if (eq && k != 0) || (!eq && k < 0) {
			s.infeasible = true
		}
		return
	case g > 1:
		if eq {
			if k%g != 0 {
				s.infeasible = true
				return
			}
			r[n] = k / g
		} else {
			r[n] = floorDiv(k, g)
		}
		for j := range r[:n] {
			r[j] /= g
		}
	}
	s.insert(r, eq, rowHash(r, eq))
}

const (
	hashSeed  uint64 = 0x9e3779b97f4a7c15
	hashPrime uint64 = 0x100000001b3
)

func rowHash(r []int64, eq bool) uint64 {
	h := hashSeed
	if eq {
		h = ^h
	}
	for _, a := range r {
		h = h*hashPrime + uint64(a)
	}
	return h
}

// has reports whether row r, with hash h, is already present.
func (s *rows) has(r []int64, eq bool, h uint64) bool {
	if s.index != nil {
		i, ok := s.index[h]
		if !ok {
			return false
		}
		if s.eq[i] == eq && slices.Equal(s.row(int(i)), r) {
			return true
		}
		// Another row has the same hash: fall back to the scan.
	}
	for i, x := range s.hash {
		if x == h && s.eq[i] == eq && slices.Equal(s.row(i), r) {
			return true
		}
	}
	return false
}

// insert appends row r, with hash h, unless it is already present.
func (s *rows) insert(r []int64, eq bool, h uint64) {
	if s.has(r, eq, h) {
		return
	}
	if s.index == nil && len(s.hash) == linearDedup {
		s.index = make(map[uint64]int32, 4*linearDedup)
		for i := len(s.hash) - 1; i >= 0; i-- {
			s.index[s.hash[i]] = int32(i)
		}
	}
	if _, ok := s.index[h]; s.index != nil && !ok {
		s.index[h] = int32(s.len())
	}
	s.data = append(s.data, r...)
	s.eq = append(s.eq, eq)
	s.hash = append(s.hash, h)
}

// workspace holds the buffers one projection needs: two row systems that
// take turns as source and destination of an elimination step, a scratch
// row, and the column names. Workspaces are pooled across calls.
type workspace struct {
	a, b  rows
	tmp   []int64
	names []string
	order []int
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// dense indexes the variables of cons in sorted order into ws.names and
// loads the normalized, deduplicated rows into ws.a.
func (ws *workspace) dense(cons []Constraint) *rows {
	ws.names = appendVars(ws.names[:0], cons)
	n := len(ws.names)
	s := &ws.a
	s.reset(n)
	if cap(ws.tmp) < n+1 {
		ws.tmp = make([]int64, n+1)
	}
	ws.tmp = ws.tmp[:n+1]
	r := ws.tmp
	for _, c := range cons {
		clear(r)
		j := 0
		for i, v := range c.E.vars { // both lists are sorted
			for ws.names[j] != v {
				j++
			}
			r[j] = c.E.coeffs[i]
		}
		r[n] = c.E.k
		s.add(r, c.Equality)
	}
	return s
}

// constraints converts the rows back to constraints over the named columns.
func (s *rows) constraints(names []string) []Constraint {
	out := make([]Constraint, s.len())
	for i := range out {
		r := s.row(i)
		var e LinExpr
		for j, a := range r[:s.n] {
			if a != 0 {
				e.vars = append(e.vars, names[j])
				e.coeffs = append(e.coeffs, a)
			}
		}
		e.k = r[s.n]
		out[i] = Constraint{E: e, Equality: s.eq[i]}
	}
	return out
}

// mul returns a*b and whether it did not overflow.
func mul(a, b int64) (int64, bool) {
	if -1<<31 <= a && a < 1<<31 && -1<<31 <= b && b < 1<<31 {
		return a * b, true
	}
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a || (a == -1 && b == math.MinInt64) || (b == -1 && a == math.MinInt64) {
		return 0, false
	}
	return p, true
}

// combine writes x*a + y*b into out, column v set to zero (the eliminated
// variable cancels), and reports whether no step overflowed.
func combine(out []int64, x int64, a []int64, y int64, b []int64, v int) bool {
	for j := range out {
		if j == v {
			out[j] = 0
			continue
		}
		p, ok1 := mul(x, a[j])
		q, ok2 := mul(y, b[j])
		sum := p + q
		if !ok1 || !ok2 || (p^sum)&(q^sum) < 0 {
			return false
		}
		out[j] = sum
	}
	return true
}

// eliminate removes column v from s into out, reporting whether the
// projection is exact over the integers and whether any combination
// overflowed (such combinations are dropped).
func (s *rows) eliminate(v int, out *rows, tmp []int64) (exact, overflow bool) {
	out.reset(s.n)
	nr := s.len()

	// Prefer substitution through an equality with unit coefficient: exact.
	best := -1
	for i := 0; i < nr; i++ {
		if a := s.row(i)[v]; s.eq[i] && a != 0 {
			if a == 1 || a == -1 {
				best = i
				break
			}
			if best < 0 {
				best = i
			}
		}
	}
	if best >= 0 {
		// v = rest/a for the equality a*v + rest == 0. Every other row c
		// with coefficient cv on v becomes |a|*c - cv*sign(a)*eq, column v
		// cancelled: with |a| = 1 that is exact substitution; otherwise the
		// divisibility condition a | rest is dropped and the result is a
		// superset (inexact).
		eq := s.row(best)
		sign := int64(1)
		if eq[v] < 0 {
			sign = -1
		}
		a, aok := mul(sign, eq[v])
		unit := a == 1
		for i := 0; i < nr; i++ {
			if i == best {
				continue
			}
			c := s.row(i)
			if c[v] == 0 {
				out.insert(c, s.eq[i], s.hash[i])
				continue
			}
			y, yok := mul(-sign, c[v])
			if !aok || !yok || !combine(tmp, a, c, y, eq, v) {
				overflow = true
				continue
			}
			out.add(tmp, s.eq[i])
		}
		return unit && !overflow, overflow
	}

	// Fourier-Motzkin on inequalities: the rows without v in order, then
	// every lower (coefficient > 0) x upper (< 0) pair's real shadow.
	exact = true
	for i := 0; i < nr; i++ {
		if s.row(i)[v] == 0 {
			out.insert(s.row(i), s.eq[i], s.hash[i])
		}
	}
	for i := 0; i < nr; i++ {
		lo := s.row(i)
		cl := lo[v]
		if cl <= 0 {
			continue
		}
		for j := 0; j < nr; j++ {
			up := s.row(j)
			cu := -up[v]
			if cu <= 0 {
				continue
			}
			// From cl*v + rl >= 0 and -cu*v + ru >= 0: cu*rl + cl*ru >= 0.
			if cl != 1 && cu != 1 {
				exact = false
			}
			if !combine(tmp, cu, lo, cl, up, v) {
				overflow = true
				continue
			}
			out.add(tmp, false)
		}
	}
	return exact && !overflow, overflow
}

// elimCost returns the number of lower*upper combinations eliminating column
// v would make, or hasUnitEq when an equality with unit coefficient on v
// allows exact substitution.
func (s *rows) elimCost(v int) (cost int, hasUnitEq bool) {
	lo, hi := 0, 0
	for i := 0; i < s.len(); i++ {
		a := s.row(i)[v]
		if a == 0 {
			continue
		}
		if s.eq[i] && (a == 1 || a == -1) {
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

// projectRows eliminates the columns in ws.order (the caller's order; a
// column may repeat or already be all zero) from ws.a. The cheapest column
// goes first: the first with a unit equality, else the first with the
// fewest lower*upper combinations. The exact flag is the conjunction of
// per-step exactness.
func (ws *workspace) projectRows() (res *rows, exact, infeasible, overflow bool) {
	exact = true
	s, spare := &ws.a, &ws.b
	remaining := ws.order
	for len(remaining) > 0 {
		best, bestCost := -1, int(^uint(0)>>1)
		for i, v := range remaining {
			cost, hasEq := s.elimCost(v)
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
		ex, ov := s.eliminate(v, spare, ws.tmp)
		s, spare = spare, s
		exact = exact && ex
		overflow = overflow || ov
		if s.infeasible {
			return s, exact, true, overflow
		}
	}
	return s, exact, false, overflow
}

// simplify returns cons normalized and with duplicates removed, in
// first-seen order, or infeasible when a constraint is trivially false.
func simplify(cons []Constraint) (out []Constraint, infeasible bool) {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	s := ws.dense(cons)
	if s.infeasible {
		return nil, true
	}
	return s.constraints(ws.names), false
}

// project eliminates every variable in vars from cons. The exact flag is the
// conjunction of per-step exactness.
func project(cons []Constraint, vars []string) (out []Constraint, exact bool, infeasible bool) {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	s := ws.dense(cons)
	if s.infeasible {
		return nil, true, true
	}
	ws.order = ws.order[:0]
	for _, v := range vars {
		// A variable absent from the system eliminates as a no-op.
		if j := sort.SearchStrings(ws.names, v); j < len(ws.names) && ws.names[j] == v {
			ws.order = append(ws.order, j)
		}
	}
	s, exact, infeasible, _ = ws.projectRows()
	return s.constraints(ws.names), exact, infeasible
}

// emptiness decides whether the integer constraint system is empty.
// When exact is true the answer is definitive; when exact is false and empty
// is false, the system might still be integer-empty (rational relaxation was
// non-empty, or arithmetic overflowed and the answer is the conservative
// one).
func emptiness(cons []Constraint) (empty, exact bool) {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	if ws.dense(cons).infeasible {
		return true, true
	}
	ws.order = ws.order[:0]
	for i := range ws.names {
		ws.order = append(ws.order, i)
	}
	_, ex, inf, overflow := ws.projectRows()
	switch {
	case overflow:
		return false, false
	case inf:
		return true, true
	}
	// All variables eliminated: the remaining constraints were constants and
	// normalization resolved every one of them.
	return false, ex
}
