package poly

import (
	"fmt"
	"sort"
	"strings"
)

// BasicSet is a conjunction of affine constraints over a named tuple of
// dimensions (the statement's iteration vector in the paper's usage). Any
// variable appearing in the constraints that is not a dimension is a
// parameter (n, jp, ...).
type BasicSet struct {
	Tuple string   // tuple name, e.g. "S1"
	Dims  []string // dimension names in order, e.g. ["j", "i"]
	Cons  []Constraint
}

// NewBasicSet returns a basic set with the given tuple name and dimensions
// and no constraints (the universe).
func NewBasicSet(tuple string, dims ...string) BasicSet {
	return BasicSet{Tuple: tuple, Dims: append([]string(nil), dims...)}
}

// Copy returns a deep copy.
func (b BasicSet) Copy() BasicSet {
	return BasicSet{
		Tuple: b.Tuple,
		Dims:  append([]string(nil), b.Dims...),
		Cons:  append([]Constraint(nil), b.Cons...),
	}
}

// With returns b extended with additional constraints.
func (b BasicSet) With(cs ...Constraint) BasicSet {
	cons := make([]Constraint, 0, len(b.Cons)+len(cs))
	return BasicSet{
		Tuple: b.Tuple,
		Dims:  append([]string(nil), b.Dims...),
		Cons:  append(append(cons, b.Cons...), cs...),
	}
}

// IsDim reports whether v is one of the set's dimensions.
func (b BasicSet) IsDim(v string) bool {
	for _, d := range b.Dims {
		if d == v {
			return true
		}
	}
	return false
}

// Params returns the parameters (non-dimension variables), sorted.
func (b BasicSet) Params() []string {
	var ps []string
	for _, v := range varsOf(b.Cons) {
		if !b.IsDim(v) {
			ps = append(ps, v)
		}
	}
	return ps
}

// Rename returns b with dimensions (and any constraint variables) renamed
// through m.
func (b BasicSet) Rename(m map[string]string) BasicSet {
	nb := BasicSet{Tuple: b.Tuple, Dims: make([]string, len(b.Dims))}
	for i, d := range b.Dims {
		if nd, ok := m[d]; ok {
			nb.Dims[i] = nd
		} else {
			nb.Dims[i] = d
		}
	}
	nb.Cons = make([]Constraint, len(b.Cons))
	for i, c := range b.Cons {
		nb.Cons[i] = c.Rename(m)
	}
	return nb
}

// Intersect returns the conjunction of b and o, which must have the same
// dimensionality; o's dimensions are renamed to b's positionally.
func (b BasicSet) Intersect(o BasicSet) BasicSet {
	if len(b.Dims) != len(o.Dims) {
		panic(fmt.Sprintf("poly: Intersect dimension mismatch %v vs %v", b.Dims, o.Dims))
	}
	m := map[string]string{}
	for i, d := range o.Dims {
		m[d] = b.Dims[i]
	}
	ro := o.Rename(m)
	return b.With(ro.Cons...)
}

// Contains reports whether the integer point given by env (mapping both
// dimensions and parameters to values) satisfies all constraints.
func (b BasicSet) Contains(env map[string]int64) bool {
	for _, c := range b.Cons {
		ok, complete := c.Holds(env)
		if !ok || !complete {
			return false
		}
	}
	return true
}

// IsEmpty decides integer emptiness. exact is false only when projection had
// to approximate (non-unit coefficients), in which case a false "empty" is
// conservative (the set is treated as possibly non-empty).
func (b BasicSet) IsEmpty() (empty, exact bool) {
	return emptiness(b.Cons)
}

// ProjectOut eliminates the named dimensions, returning a basic set over the
// remaining dimensions.
func (b BasicSet) ProjectOut(dims ...string) (BasicSet, bool) {
	cons, exact, inf := project(b.Cons, dims)
	keep := make([]string, 0, len(b.Dims))
	for _, d := range b.Dims {
		drop := false
		for _, x := range dims {
			if d == x {
				drop = true
				break
			}
		}
		if !drop {
			keep = append(keep, d)
		}
	}
	nb := BasicSet{Tuple: b.Tuple, Dims: keep, Cons: cons}
	if inf {
		// Mark infeasibility explicitly with the canonical false constraint.
		nb.Cons = []Constraint{GeZero(L(-1))}
	}
	return nb, exact
}

// Simplified returns b with duplicate and trivial constraints removed.
func (b BasicSet) Simplified() BasicSet {
	nb := b.Copy()
	cons, infeasible := simplify(b.Cons)
	if infeasible {
		cons = []Constraint{GeZero(L(-1))}
	}
	nb.Cons = cons
	return nb
}

// String renders the basic set ISL-style:
//
//	{ S1[j] : j >= 0 and n - j - 1 >= 0 }
func (b BasicSet) String() string {
	var cs []string
	for _, c := range b.Cons {
		cs = append(cs, c.String())
	}
	head := fmt.Sprintf("%s[%s]", b.Tuple, strings.Join(b.Dims, ","))
	if len(cs) == 0 {
		return "{ " + head + " }"
	}
	return "{ " + head + " : " + strings.Join(cs, " and ") + " }"
}

// Set is a union of basic sets over the same tuple/dimensionality.
type Set struct {
	Pieces []BasicSet
}

// UnionSet builds a set from basic sets.
func UnionSet(bs ...BasicSet) Set {
	return Set{Pieces: append([]BasicSet(nil), bs...)}
}

// IsEmpty decides integer emptiness of the union.
func (s Set) IsEmpty() (empty, exact bool) {
	empty, exact = true, true
	for _, b := range s.Pieces {
		e, ex := b.IsEmpty()
		exact = exact && ex
		if !e {
			empty = false
		}
	}
	return empty, exact
}

// Contains reports whether any piece contains the point.
func (s Set) Contains(env map[string]int64) bool {
	for _, b := range s.Pieces {
		if b.Contains(env) {
			return true
		}
	}
	return false
}

// Intersect intersects every pair of pieces.
func (s Set) Intersect(o Set) Set {
	var out []BasicSet
	for _, a := range s.Pieces {
		for _, b := range o.Pieces {
			p := a.Intersect(b)
			if e, _ := p.IsEmpty(); !e {
				out = append(out, p.Simplified())
			}
		}
	}
	return Set{Pieces: out}
}

// subtractBasic computes a \ b as a union: a itself when the two are
// provably disjoint, else for each constraint of b, the part of a violating
// it.
func subtractBasic(a, b BasicSet) []BasicSet {
	if len(a.Dims) != len(b.Dims) {
		panic("poly: subtract dimension mismatch")
	}
	m := map[string]string{}
	for i, d := range b.Dims {
		m[d] = a.Dims[i]
	}
	rb := b.Rename(m)
	// a ∩ b = ∅ gives a \ b = a: keep the piece whole rather than split it
	// into pieces that all repeat it. Only an exact emptiness answer counts.
	if empty, exact := a.With(rb.Cons...).IsEmpty(); empty && exact {
		return []BasicSet{a}
	}
	var out []BasicSet
	// Build pieces incrementally: piece_i = a ∧ c_1 ∧ ... ∧ c_{i-1} ∧ ¬c_i,
	// which makes the result pieces pairwise disjoint.
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

// subtractPiece is the piece difference Subtract applies. It is a variable
// only so the package tests can rerun whole analyses with the reference
// always-split algorithm in its place.
var subtractPiece = subtractBasic

// Subtract returns s \ o. Every output piece lies inside exactly one piece
// of s, so pairwise disjoint pieces in s stay pairwise disjoint.
func (s Set) Subtract(o Set) Set {
	cur := append([]BasicSet(nil), s.Pieces...)
	for _, b := range o.Pieces {
		var next []BasicSet
		for _, a := range cur {
			next = append(next, subtractPiece(a, b)...)
		}
		cur = next
	}
	return Set{Pieces: cur}
}

// SubsetOf reports whether s ⊆ o (exactly when s \ o is empty).
func (s Set) SubsetOf(o Set) (sub, exact bool) {
	d := s.Subtract(o)
	e, ex := d.IsEmpty()
	return e, ex
}

// EqualSet reports whether the two sets contain the same integer points.
func (s Set) EqualSet(o Set) (eq, exact bool) {
	a, ex1 := s.SubsetOf(o)
	b, ex2 := o.SubsetOf(s)
	return a && b, ex1 && ex2
}

// String renders the union ISL-style with ';' separating pieces.
func (s Set) String() string {
	if len(s.Pieces) == 0 {
		return "{ }"
	}
	parts := make([]string, len(s.Pieces))
	for i, b := range s.Pieces {
		str := b.String()
		parts[i] = strings.TrimSuffix(strings.TrimPrefix(str, "{ "), " }")
	}
	return "{ " + strings.Join(parts, "; ") + " }"
}

// Sample searches for an integer point in the basic set by bounded
// enumeration of the dimensions within [-bound, bound] given parameter
// values. It is a testing aid, not part of the analysis pipeline.
func (b BasicSet) Sample(params map[string]int64, bound int64) (map[string]int64, bool) {
	var out map[string]int64
	b.walk(params, bound, func(pt map[string]int64) bool {
		out = pt
		return false
	})
	return out, out != nil
}

// EnumeratePoints lists all integer points of the basic set with dimensions
// restricted to [-bound, bound], given parameter values. Testing aid.
func (b BasicSet) EnumeratePoints(params map[string]int64, bound int64) []map[string]int64 {
	var out []map[string]int64
	b.walk(params, bound, func(pt map[string]int64) bool {
		out = append(out, pt)
		return true
	})
	return out
}

// walk calls visit with each integer point of b (its dimensions only) whose
// dimensions lie in [-bound, bound], in lexicographic order, until visit
// returns false. A constraint is checked as soon as its last dimension is
// bound, so a violated one prunes the whole subtree below it rather than
// being tested at every point of the box.
func (b BasicSet) walk(params map[string]int64, bound int64, visit func(map[string]int64) bool) {
	env := map[string]int64{}
	for k, v := range params {
		env[k] = v
	}
	// stage[i] holds the constraints whose last dimension is b.Dims[i-1];
	// stage[0] those on parameters alone.
	stage := make([][]Constraint, len(b.Dims)+1)
	for _, c := range b.Cons {
		last := 0
		for i, d := range b.Dims {
			if c.E.Uses(d) {
				last = i + 1
			}
		}
		stage[last] = append(stage[last], c)
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		for _, c := range stage[i] {
			if ok, complete := c.Holds(env); !ok || !complete {
				return true
			}
		}
		if i == len(b.Dims) {
			pt := map[string]int64{}
			for _, d := range b.Dims {
				pt[d] = env[d]
			}
			return visit(pt)
		}
		defer delete(env, b.Dims[i])
		for v := -bound; v <= bound; v++ {
			env[b.Dims[i]] = v
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// sortedVars is a helper exposing deterministic variable order for callers.
func sortedVars(set map[string]bool) []string {
	vs := make([]string, 0, len(set))
	for v := range set {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	return vs
}
