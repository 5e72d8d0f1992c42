package poly

import "fmt"

// Constraint is a single affine constraint: E == 0 (when Equality is true) or
// E >= 0 (otherwise).
type Constraint struct {
	E        LinExpr
	Equality bool
}

// EqZero returns the constraint e == 0.
func EqZero(e LinExpr) Constraint { return Constraint{E: e, Equality: true} }

// GeZero returns the constraint e >= 0.
func GeZero(e LinExpr) Constraint { return Constraint{E: e} }

// Eq returns the constraint a == b.
func Eq(a, b LinExpr) Constraint { return EqZero(a.Sub(b)) }

// Ge returns the constraint a >= b.
func Ge(a, b LinExpr) Constraint { return GeZero(a.Sub(b)) }

// Le returns the constraint a <= b.
func Le(a, b LinExpr) Constraint { return GeZero(b.Sub(a)) }

// Lt returns the integer constraint a < b, i.e. a <= b-1.
func Lt(a, b LinExpr) Constraint { return GeZero(b.Sub(a).AddConst(-1)) }

// Gt returns the integer constraint a > b.
func Gt(a, b LinExpr) Constraint { return GeZero(a.Sub(b).AddConst(-1)) }

// String renders the constraint, e.g. "n - j - 1 >= 0".
func (c Constraint) String() string {
	op := ">="
	if c.Equality {
		op = "="
	}
	return fmt.Sprintf("%s %s 0", c.E.String(), op)
}

// Rename returns the constraint with variables renamed through m.
func (c Constraint) Rename(m map[string]string) Constraint {
	return Constraint{E: c.E.Rename(m), Equality: c.Equality}
}

// Subst returns the constraint with v replaced by f.
func (c Constraint) Subst(v string, f LinExpr) Constraint {
	return Constraint{E: c.E.Subst(v, f), Equality: c.Equality}
}

// Holds evaluates the constraint under env. The second result is false if a
// variable was missing from env.
func (c Constraint) Holds(env map[string]int64) (bool, bool) {
	val, complete := c.E.Eval(env)
	if c.Equality {
		return val == 0, complete
	}
	return val >= 0, complete
}

// Negate returns the constraints describing the integer complement of c.
// For an inequality e >= 0 the complement is the single constraint
// -e - 1 >= 0; for an equality e == 0 it is the disjunction
// {e - 1 >= 0} or {-e - 1 >= 0}, hence a slice.
func (c Constraint) Negate() []Constraint {
	if c.Equality {
		return []Constraint{
			GeZero(c.E.AddConst(-1)),
			GeZero(c.E.Neg().AddConst(-1)),
		}
	}
	return []Constraint{GeZero(c.E.Neg().AddConst(-1))}
}

// equal reports whether two constraints are structurally identical.
func (c Constraint) equal(o Constraint) bool {
	return c.Equality == o.Equality && c.E.Equal(o.E)
}
