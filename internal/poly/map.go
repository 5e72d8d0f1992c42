package poly

import (
	"fmt"
	"strings"
)

// BasicMap is a conjunction of affine constraints relating an input tuple to
// an output tuple (the paper's dependence relations, e.g.
// { S1[j] -> S2[j,i] : 0 <= j <= n-1 and j+1 <= i <= n-1 }).
// Input and output dimension names must be distinct from each other; any
// other variable in the constraints is a parameter.
type BasicMap struct {
	InTuple  string
	OutTuple string
	In       []string
	Out      []string
	Cons     []Constraint
}

// NewBasicMap returns an unconstrained basic map between the given tuples.
func NewBasicMap(inTuple string, in []string, outTuple string, out []string) BasicMap {
	for _, i := range in {
		for _, o := range out {
			if i == o {
				panic(fmt.Sprintf("poly: input dim %q collides with output dim", i))
			}
		}
	}
	return BasicMap{
		InTuple: inTuple, OutTuple: outTuple,
		In:  append([]string(nil), in...),
		Out: append([]string(nil), out...),
	}
}

// Copy returns a deep copy.
func (m BasicMap) Copy() BasicMap {
	return BasicMap{
		InTuple: m.InTuple, OutTuple: m.OutTuple,
		In:   append([]string(nil), m.In...),
		Out:  append([]string(nil), m.Out...),
		Cons: append([]Constraint(nil), m.Cons...),
	}
}

// With returns m extended with additional constraints.
func (m BasicMap) With(cs ...Constraint) BasicMap {
	cons := make([]Constraint, 0, len(m.Cons)+len(cs))
	return BasicMap{
		InTuple: m.InTuple, OutTuple: m.OutTuple,
		In:   append([]string(nil), m.In...),
		Out:  append([]string(nil), m.Out...),
		Cons: append(append(cons, m.Cons...), cs...),
	}
}

// Rename returns m with all dimension variables renamed through r.
func (m BasicMap) Rename(r map[string]string) BasicMap {
	nm := m.Copy()
	for i, d := range nm.In {
		if nd, ok := r[d]; ok {
			nm.In[i] = nd
		}
	}
	for i, d := range nm.Out {
		if nd, ok := r[d]; ok {
			nm.Out[i] = nd
		}
	}
	for i, c := range nm.Cons {
		nm.Cons[i] = c.Rename(r)
	}
	return nm
}

// freshCounter generates collision-free internal variable names.
var freshCounter int

func fresh(prefix string) string {
	freshCounter++
	return fmt.Sprintf("%s$%d", prefix, freshCounter)
}

// Apply computes the image of the basic set under the map: the set of output
// points related to some input point of s. s must have the same
// dimensionality as the map's input tuple. The exact flag reports whether the
// required projection was exact over the integers.
func (m BasicMap) Apply(s BasicSet) (BasicSet, bool) {
	if len(s.Dims) != len(m.In) {
		panic(fmt.Sprintf("poly: Apply arity mismatch: set %v vs map input %v", s.Dims, m.In))
	}
	// Rename the map's input dims to fresh names to avoid any collision with
	// set parameter names, then rename the set's dims to those fresh names.
	rm := map[string]string{}
	freshIn := make([]string, len(m.In))
	for i, d := range m.In {
		freshIn[i] = fresh(d)
		rm[d] = freshIn[i]
	}
	mm := m.Rename(rm)
	rs := map[string]string{}
	for i, d := range s.Dims {
		rs[d] = freshIn[i]
	}
	ss := s.Rename(rs)

	cons := append(append([]Constraint(nil), mm.Cons...), ss.Cons...)
	projected, exact, inf := project(cons, freshIn)
	out := BasicSet{Tuple: m.OutTuple, Dims: append([]string(nil), mm.Out...), Cons: projected}
	if inf {
		out.Cons = []Constraint{GeZero(L(-1))}
	}
	return out, exact
}

// Reverse swaps the input and output tuples.
func (m BasicMap) Reverse() BasicMap {
	return BasicMap{
		InTuple: m.OutTuple, OutTuple: m.InTuple,
		In:   append([]string(nil), m.Out...),
		Out:  append([]string(nil), m.In...),
		Cons: append([]Constraint(nil), m.Cons...),
	}
}

// Domain projects the map onto its input tuple.
func (m BasicMap) Domain() (BasicSet, bool) {
	cons, exact, inf := project(m.Cons, m.Out)
	b := BasicSet{Tuple: m.InTuple, Dims: append([]string(nil), m.In...), Cons: cons}
	if inf {
		b.Cons = []Constraint{GeZero(L(-1))}
	}
	return b, exact
}

// Range projects the map onto its output tuple.
func (m BasicMap) Range() (BasicSet, bool) {
	cons, exact, inf := project(m.Cons, m.In)
	b := BasicSet{Tuple: m.OutTuple, Dims: append([]string(nil), m.Out...), Cons: cons}
	if inf {
		b.Cons = []Constraint{GeZero(L(-1))}
	}
	return b, exact
}

// Wrap flattens the map into a basic set over the concatenated in+out dims,
// tagged with "InTuple->OutTuple". Subtraction and emptiness on relations go
// through their wrapped form.
func (m BasicMap) Wrap() BasicSet {
	return BasicSet{
		Tuple: m.InTuple + "->" + m.OutTuple,
		Dims:  append(append([]string(nil), m.In...), m.Out...),
		Cons:  append([]Constraint(nil), m.Cons...),
	}
}

// UnwrapInto reinterprets a wrapped basic set as a basic map with the given
// tuple structure (lengths must add up).
func UnwrapInto(b BasicSet, m BasicMap) BasicMap {
	if len(b.Dims) != len(m.In)+len(m.Out) {
		panic("poly: UnwrapInto arity mismatch")
	}
	r := map[string]string{}
	for i, d := range b.Dims {
		if i < len(m.In) {
			r[d] = m.In[i]
		} else {
			r[d] = m.Out[i-len(m.In)]
		}
	}
	rb := b.Rename(r)
	nm := m.Copy()
	nm.Cons = rb.Cons
	return nm
}

// IsEmpty decides integer emptiness of the relation.
func (m BasicMap) IsEmpty() (empty, exact bool) { return emptiness(m.Cons) }

// ContainsPair reports whether the relation holds for the given assignment of
// input/output dims and parameters.
func (m BasicMap) ContainsPair(env map[string]int64) bool {
	for _, c := range m.Cons {
		ok, complete := c.Holds(env)
		if !ok || !complete {
			return false
		}
	}
	return true
}

// String renders the basic map ISL-style.
func (m BasicMap) String() string {
	var cs []string
	for _, c := range m.Cons {
		cs = append(cs, c.String())
	}
	head := fmt.Sprintf("%s[%s] -> %s[%s]",
		m.InTuple, strings.Join(m.In, ","), m.OutTuple, strings.Join(m.Out, ","))
	if len(cs) == 0 {
		return "{ " + head + " }"
	}
	return "{ " + head + " : " + strings.Join(cs, " and ") + " }"
}

// Map is a union of basic maps (possibly relating different statement pairs,
// as a program's full flow-dependence relation does).
type Map struct {
	Pieces []BasicMap
}

// UnionMap builds a map from basic maps.
func UnionMap(ms ...BasicMap) Map {
	return Map{Pieces: append([]BasicMap(nil), ms...)}
}

// Apply computes the image of a set under every piece whose input tuple
// matches the set's tuple name and arity.
func (m Map) Apply(s Set) (Set, bool) {
	var out []BasicSet
	exact := true
	for _, bm := range m.Pieces {
		for _, bs := range s.Pieces {
			if bm.InTuple != bs.Tuple || len(bm.In) != len(bs.Dims) {
				continue
			}
			img, ex := bm.Apply(bs)
			exact = exact && ex
			if e, _ := img.IsEmpty(); !e {
				out = append(out, img.Simplified())
			}
		}
	}
	return Set{Pieces: out}, exact
}

// IsEmpty reports whether every piece is empty.
func (m Map) IsEmpty() (empty, exact bool) {
	empty, exact = true, true
	for _, p := range m.Pieces {
		e, ex := p.IsEmpty()
		exact = exact && ex
		if !e {
			empty = false
		}
	}
	return empty, exact
}

// String renders the union.
func (m Map) String() string {
	if len(m.Pieces) == 0 {
		return "{ }"
	}
	parts := make([]string, len(m.Pieces))
	for i, b := range m.Pieces {
		str := b.String()
		parts[i] = strings.TrimSuffix(strings.TrimPrefix(str, "{ "), " }")
	}
	return "{ " + strings.Join(parts, "; ") + " }"
}
