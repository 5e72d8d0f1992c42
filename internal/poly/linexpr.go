// Package poly is a small Presburger-style library for the affine sets,
// relations, and parametric counts needed by the paper's compile-time
// use-count analysis (Sections 3.1-3.2). It plays the role ISL plays for the
// authors: iteration spaces and access relations are affine constraint
// systems; dependences are relations; Algorithm 1's use counts are parametric
// cardinalities returned as piecewise polynomials.
//
// The library is exact for the fragment the paper exercises — constraint
// systems whose eliminated variables carry unit coefficients — and tracks
// exactness explicitly everywhere Fourier-Motzkin projection is used, so
// callers can fall back to the paper's dynamic (inspector) scheme instead of
// silently approximating: instrument gives an array the dynamic plan when
// one of its flow dependences is inexact.
//
// Normalization, projection and emptiness run on a dense row kernel
// (fm.go): the variables of a system are indexed once, in sorted order, and
// each constraint becomes one []int64 row of coefficients followed by the
// constant. The kernel must make exactly the decisions of the
// constraint-level reference algorithm kept as the test oracle in
// reference_test.go — the same elimination order (a unit equality first,
// else the fewest lower*upper pairs, ties to the earlier variable), the
// same gcd/floor normalization, the same first-seen deduplication, and the
// same exactness rule — so every (empty, exact) answer and every returned
// constraint list is identical. Elimination arithmetic is overflow-checked:
// an overflowing combination is dropped and the step reported inexact, and
// emptiness then answers "not empty, inexact".
package poly

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// LinExpr is an affine expression: a sum of integer-coefficient terms over
// named variables plus an integer constant. The zero value is the constant 0.
// LinExpr values are immutable; all methods return new expressions. Terms
// are held sorted by variable name with no zero coefficients, so the
// variable list, equality, and the coefficient gcd need no sorting.
type LinExpr struct {
	vars   []string // sorted, distinct
	coeffs []int64  // coeffs[i] is the nonzero coefficient of vars[i]
	k      int64
}

// L returns the constant expression k.
func L(k int64) LinExpr { return LinExpr{k: k} }

// V returns the expression consisting of the single variable name.
func V(name string) LinExpr { return Term(1, name) }

// Term returns c*name.
func Term(c int64, name string) LinExpr {
	if c == 0 {
		return LinExpr{}
	}
	return LinExpr{vars: []string{name}, coeffs: []int64{c}}
}

// Const returns the constant term.
func (e LinExpr) Const() int64 { return e.k }

// index returns the position of v in e.vars, or -1.
func (e LinExpr) index(v string) int {
	for i, x := range e.vars {
		if x == v {
			return i
		}
		if x > v {
			break
		}
	}
	return -1
}

// Coeff returns the coefficient of variable v (0 if absent).
func (e LinExpr) Coeff(v string) int64 {
	if i := e.index(v); i >= 0 {
		return e.coeffs[i]
	}
	return 0
}

// IsConst reports whether the expression has no variable terms.
func (e LinExpr) IsConst() bool { return len(e.vars) == 0 }

// Vars returns the variables with nonzero coefficients, sorted. The slice is
// shared with e and must not be modified.
func (e LinExpr) Vars() []string { return e.vars[:len(e.vars):len(e.vars)] }

// Uses reports whether variable v occurs with nonzero coefficient.
func (e LinExpr) Uses(v string) bool { return e.index(v) >= 0 }

// lin returns a*e + b*f, merging the two sorted term lists.
func lin(a int64, e LinExpr, b int64, f LinExpr) LinExpr {
	n := len(e.vars) + len(f.vars)
	r := LinExpr{vars: make([]string, 0, n), coeffs: make([]int64, 0, n), k: a*e.k + b*f.k}
	push := func(v string, c int64) {
		if c != 0 {
			r.vars = append(r.vars, v)
			r.coeffs = append(r.coeffs, c)
		}
	}
	i, j := 0, 0
	for i < len(e.vars) && j < len(f.vars) {
		switch {
		case e.vars[i] == f.vars[j]:
			push(e.vars[i], a*e.coeffs[i]+b*f.coeffs[j])
			i++
			j++
		case e.vars[i] < f.vars[j]:
			push(e.vars[i], a*e.coeffs[i])
			i++
		default:
			push(f.vars[j], b*f.coeffs[j])
			j++
		}
	}
	for ; i < len(e.vars); i++ {
		push(e.vars[i], a*e.coeffs[i])
	}
	for ; j < len(f.vars); j++ {
		push(f.vars[j], b*f.coeffs[j])
	}
	return r
}

// Add returns e + f.
func (e LinExpr) Add(f LinExpr) LinExpr { return lin(1, e, 1, f) }

// Sub returns e - f.
func (e LinExpr) Sub(f LinExpr) LinExpr { return lin(1, e, -1, f) }

// AddConst returns e + k.
func (e LinExpr) AddConst(k int64) LinExpr {
	return LinExpr{vars: e.vars, coeffs: e.coeffs, k: e.k + k}
}

// Scale returns c*e.
func (e LinExpr) Scale(c int64) LinExpr {
	if c == 0 {
		return LinExpr{}
	}
	return lin(c, e, 0, LinExpr{})
}

// Neg returns -e.
func (e LinExpr) Neg() LinExpr { return e.Scale(-1) }

// without returns e with the term on vars[i] removed.
func (e LinExpr) without(i int) LinExpr {
	r := LinExpr{
		vars:   make([]string, 0, len(e.vars)-1),
		coeffs: make([]int64, 0, len(e.vars)-1),
		k:      e.k,
	}
	r.vars = append(append(r.vars, e.vars[:i]...), e.vars[i+1:]...)
	r.coeffs = append(append(r.coeffs, e.coeffs[:i]...), e.coeffs[i+1:]...)
	return r
}

// Subst returns e with variable v replaced by expression f.
func (e LinExpr) Subst(v string, f LinExpr) LinExpr {
	i := e.index(v)
	if i < 0 {
		return e
	}
	return lin(1, e.without(i), e.coeffs[i], f)
}

// Rename returns e with every variable renamed through m; variables absent
// from m are kept.
func (e LinExpr) Rename(m map[string]string) LinExpr {
	type term struct {
		v string
		c int64
	}
	ts := make([]term, len(e.vars))
	renamed, sorted := false, true
	for i, v := range e.vars {
		if nv, ok := m[v]; ok {
			v, renamed = nv, true
		}
		ts[i] = term{v, e.coeffs[i]}
		if i > 0 && ts[i-1].v > v {
			sorted = false
		}
	}
	if !renamed {
		return e
	}
	if !sorted {
		sort.Slice(ts, func(i, j int) bool { return ts[i].v < ts[j].v })
	}
	r := LinExpr{vars: make([]string, 0, len(ts)), coeffs: make([]int64, 0, len(ts)), k: e.k}
	for i := 0; i < len(ts); {
		v, c := ts[i].v, int64(0)
		for ; i < len(ts) && ts[i].v == v; i++ {
			c += ts[i].c
		}
		if c != 0 {
			r.vars = append(r.vars, v)
			r.coeffs = append(r.coeffs, c)
		}
	}
	return r
}

// Eval evaluates e under the assignment env. Missing variables evaluate as 0
// and are reported through the second result.
func (e LinExpr) Eval(env map[string]int64) (int64, bool) {
	total := e.k
	complete := true
	for i, v := range e.vars {
		val, ok := env[v]
		if !ok {
			complete = false
		}
		total += e.coeffs[i] * val
	}
	return total, complete
}

// Equal reports structural equality of the two expressions.
func (e LinExpr) Equal(f LinExpr) bool {
	if e.k != f.k || len(e.vars) != len(f.vars) {
		return false
	}
	for i, v := range e.vars {
		if f.vars[i] != v || f.coeffs[i] != e.coeffs[i] {
			return false
		}
	}
	return true
}

// String renders the expression in human-readable form, e.g. "n - j - 1".
func (e LinExpr) String() string {
	if e.IsConst() {
		return strconv.FormatInt(e.k, 10)
	}
	var b strings.Builder
	for i, v := range e.vars {
		c := e.coeffs[i]
		switch {
		case i == 0 && c == 1:
			b.WriteString(v)
		case i == 0 && c == -1:
			b.WriteString("-" + v)
		case i == 0:
			fmt.Fprintf(&b, "%d*%s", c, v)
		case c == 1:
			b.WriteString(" + " + v)
		case c == -1:
			b.WriteString(" - " + v)
		case c > 0:
			fmt.Fprintf(&b, " + %d*%s", c, v)
		default:
			fmt.Fprintf(&b, " - %d*%s", -c, v)
		}
	}
	switch {
	case e.k > 0:
		fmt.Fprintf(&b, " + %d", e.k)
	case e.k < 0:
		fmt.Fprintf(&b, " - %d", -e.k)
	}
	return b.String()
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// contentGCD returns the gcd of the variable coefficients (0 if none).
func (e LinExpr) contentGCD() int64 {
	var g int64
	for _, c := range e.coeffs {
		g = gcd64(g, c)
	}
	return g
}

// floorDiv returns floor(a/b) for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
