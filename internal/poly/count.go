package poly

import (
	"fmt"
	"strings"
)

// This file implements parametric cardinality: |{ dims : constraints }| as a
// piecewise polynomial in the parameters. It is the |Targets^param| step of
// Algorithm 1 (compile-time use counts).
//
// Strategy: substitute away dimensions pinned by unit equalities, then
// process dimensions innermost-first. A dimension with a single affine lower
// bound L and upper bound U contributes extent U-L+1; the domain splits into
// the piece where the extent is positive (count multiplied, or summed via
// Faulhaber when the running weight mentions the dimension) and the piece
// where it is empty (count 0). Multiple lower/upper bounds split the domain
// on which bound is binding. The result is a set of disjoint pieces whose
// domains constrain only parameters.

// Piece is one branch of a piecewise count: Count holds on the parameter
// domain described by Domain.
type Piece struct {
	Domain []Constraint // constraints over parameters only
	Count  Polynomial
}

// DomainContains reports whether the parameter assignment satisfies the
// piece's domain.
func (p Piece) DomainContains(env map[string]int64) bool {
	for _, c := range p.Domain {
		ok, complete := c.Holds(env)
		if !ok || !complete {
			return false
		}
	}
	return true
}

// String renders the piece, e.g. "[n - jp - 1] on { jp >= 0 and ... }".
func (p Piece) String() string {
	var cs []string
	for _, c := range p.Domain {
		cs = append(cs, c.String())
	}
	return fmt.Sprintf("[%s] on { %s }", p.Count, strings.Join(cs, " and "))
}

// Piecewise is a disjoint-piece parametric count.
type Piecewise struct {
	Pieces []Piece
}

// Eval returns the count at the given parameter assignment. Pieces are
// disjoint by construction; a point outside every domain has count 0 with
// ok=false.
func (pw Piecewise) Eval(env map[string]int64) (int64, bool, error) {
	for _, p := range pw.Pieces {
		if p.DomainContains(env) {
			v, err := p.Count.EvalInt(env)
			return v, true, err
		}
	}
	return 0, false, nil
}

// NonZeroPieces returns the pieces with a count not identically zero.
func (pw Piecewise) NonZeroPieces() []Piece {
	var out []Piece
	for _, p := range pw.Pieces {
		if !p.Count.IsZero() {
			out = append(out, p)
		}
	}
	return out
}

// IsSinglePolynomial reports whether all non-zero pieces share one
// polynomial, returning it if so (with zero pieces allowed alongside).
func (pw Piecewise) IsSinglePolynomial() (Polynomial, bool) {
	nz := pw.NonZeroPieces()
	if len(nz) == 0 {
		return PolyZero(), true
	}
	first := nz[0].Count
	for _, p := range nz[1:] {
		if !p.Count.Equal(first) {
			return Polynomial{}, false
		}
	}
	return first, true
}

// String renders all pieces separated by "; ".
func (pw Piecewise) String() string {
	parts := make([]string, len(pw.Pieces))
	for i, p := range pw.Pieces {
		parts[i] = p.String()
	}
	return strings.Join(parts, "; ")
}

// CountError reports why a set could not be counted at compile time; callers
// fall back to the paper's dynamic (inspector/counter) scheme.
type CountError struct{ Reason string }

func (e *CountError) Error() string { return "poly: cannot count: " + e.Reason }

const maxCountDepth = 64

// Card computes the parametric cardinality of the basic set.
func Card(b BasicSet) (Piecewise, error) {
	var pw Piecewise
	err := countRec(b.Cons, append([]string(nil), b.Dims...), PolyInt(1), &pw, maxCountDepth)
	if err != nil {
		return Piecewise{}, err
	}
	return pw, nil
}

// CardSum computes the cardinality of a union assuming its pieces are
// disjoint (true for the dependence target sets built by this repo, whose
// pieces come from disjoint case splits).
func CardSum(s Set) (Piecewise, error) {
	var all Piecewise
	for _, b := range s.Pieces {
		pw, err := Card(b)
		if err != nil {
			return Piecewise{}, err
		}
		all.Pieces = append(all.Pieces, pw.Pieces...)
	}
	return mergePieces(all), nil
}

// mergePieces sums counts of pieces with identical domains.
func mergePieces(pw Piecewise) Piecewise {
	var out Piecewise
	for _, p := range pw.Pieces {
		merged := false
		for i, q := range out.Pieces {
			if sameDomain(p.Domain, q.Domain) {
				out.Pieces[i].Count = q.Count.Add(p.Count)
				merged = true
				break
			}
		}
		if !merged {
			out.Pieces = append(out.Pieces, p)
		}
	}
	return out
}

// sameDomain reports whether a and b hold the same constraints with the same
// multiplicities, in any order.
func sameDomain(a, b []Constraint) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
next:
	for _, c := range a {
		for j, o := range b {
			if !used[j] && c.equal(o) {
				used[j] = true
				continue next
			}
		}
		return false
	}
	return true
}

func countRec(cons []Constraint, dims []string, weight Polynomial, out *Piecewise, depth int) error {
	if depth <= 0 {
		return &CountError{Reason: "case-split recursion limit exceeded"}
	}
	cons, infeasible := simplify(cons)
	if infeasible {
		return nil // empty domain contributes nothing
	}

	// Substitute dimensions pinned by unit-coefficient equalities.
	for {
		substituted := false
		for di, d := range dims {
			for _, c := range cons {
				if !c.Equality || !c.E.Uses(d) {
					continue
				}
				a := c.E.Coeff(d)
				if a != 1 && a != -1 {
					continue
				}
				rest := c.E.Subst(d, L(0)).Scale(-a)
				subst := make([]Constraint, len(cons))
				for i, cc := range cons {
					subst[i] = cc.Subst(d, rest)
				}
				if cons, infeasible = simplify(subst); infeasible {
					return nil
				}
				weight = weight.SubstLin(d, rest)
				dims = append(append([]string(nil), dims[:di]...), dims[di+1:]...)
				substituted = true
				break
			}
			if substituted {
				break
			}
		}
		if !substituted {
			break
		}
	}

	if len(dims) == 0 {
		// Remaining constraints involve parameters only: a finished piece.
		out.Pieces = append(out.Pieces, Piece{Domain: cons, Count: weight})
		return nil
	}

	x := dims[len(dims)-1]
	rest := dims[:len(dims)-1]

	// Classify constraints on x.
	var lowers, uppers []LinExpr // x >= L, x <= U
	var others []Constraint
	for _, c := range cons {
		a := c.E.Coeff(x)
		switch {
		case a == 0:
			others = append(others, c)
		case c.Equality:
			return &CountError{Reason: fmt.Sprintf("non-unit equality on %q: %s", x, c)}
		case a == 1:
			lowers = append(lowers, c.E.Subst(x, L(0)).Neg()) // x + r >= 0 → x >= -r
		case a == -1:
			uppers = append(uppers, c.E.Subst(x, L(0))) // -x + s >= 0 → x <= s
		default:
			return &CountError{Reason: fmt.Sprintf("non-unit coefficient on %q: %s", x, c)}
		}
	}
	if len(lowers) == 0 || len(uppers) == 0 {
		return &CountError{Reason: fmt.Sprintf("dimension %q is unbounded", x)}
	}

	// Multiple bounds: split on which is binding.
	if len(lowers) > 1 {
		l1, l2 := lowers[0], lowers[1]
		// Piece A: l1 >= l2, so l2 is redundant.
		consA := dropBound(cons, x, 1, l2)
		consA = append(consA, GeZero(l1.Sub(l2)))
		if err := countRec(consA, dims, weight, out, depth-1); err != nil {
			return err
		}
		// Piece B: l2 >= l1 + 1, so l1 is redundant.
		consB := dropBound(cons, x, 1, l1)
		consB = append(consB, GeZero(l2.Sub(l1).AddConst(-1)))
		return countRec(consB, dims, weight, out, depth-1)
	}
	if len(uppers) > 1 {
		u1, u2 := uppers[0], uppers[1]
		// Piece A: u1 <= u2, so u2 is redundant.
		consA := dropBound(cons, x, -1, u2)
		consA = append(consA, GeZero(u2.Sub(u1)))
		if err := countRec(consA, dims, weight, out, depth-1); err != nil {
			return err
		}
		// Piece B: u2 <= u1 - 1, so u1 is redundant.
		consB := dropBound(cons, x, -1, u1)
		consB = append(consB, GeZero(u1.Sub(u2).AddConst(-1)))
		return countRec(consB, dims, weight, out, depth-1)
	}

	lo, hi := lowers[0], uppers[0]
	extent := hi.Sub(lo).AddConst(1)

	// Positive piece: extent >= 1.
	var newWeight Polynomial
	if weight.Uses(x) {
		summed, err := SumOverVar(weight, x, lo, hi)
		if err != nil {
			return &CountError{Reason: err.Error()}
		}
		newWeight = summed
	} else {
		newWeight = weight.MulLin(extent)
	}
	consPos := append(append([]Constraint(nil), others...), GeZero(extent.AddConst(-1)))
	if err := countRec(consPos, append([]string(nil), rest...), newWeight, out, depth-1); err != nil {
		return err
	}

	// Empty piece: extent <= 0 → count 0 on that region.
	consZero := append(append([]Constraint(nil), others...), GeZero(extent.Neg()))
	return countRec(consZero, append([]string(nil), rest...), PolyZero(), out, depth-1)
}

// dropBound removes the single bound constraint on x (sign +1 for the lower
// bound x >= b, -1 for the upper bound x <= b) matching expression b.
func dropBound(cons []Constraint, x string, sign int64, b LinExpr) []Constraint {
	var out []Constraint
	dropped := false
	for _, c := range cons {
		a := c.E.Coeff(x)
		if !dropped && !c.Equality && a == sign {
			var bound LinExpr
			if sign == 1 {
				bound = c.E.Subst(x, L(0)).Neg()
			} else {
				bound = c.E.Subst(x, L(0))
			}
			if bound.Equal(b) {
				dropped = true
				continue
			}
		}
		out = append(out, c)
	}
	return out
}
