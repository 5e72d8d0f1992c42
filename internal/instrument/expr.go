// Package instrument implements Algorithm 3 of the paper: inserting checksum
// computation code into a program so that every memory value is verified
// between its definition and its uses. Statically analyzable (affine)
// references receive compile-time use counts from Algorithm 1; everything
// else is protected by the dynamic scheme of Section 4.1 (shadow use
// counters plus auxiliary e_def/e_use checksums), with the Section 4.2
// inspector optimization for iterative codes.
package instrument

import (
	"fmt"
	"math/big"

	"defuse/internal/lang"
	"defuse/internal/pdg"
	"defuse/internal/poly"
)

// polyToExpr converts a parametric count polynomial into an integer-valued
// lang expression. Rational coefficients are cleared by the least common
// denominator D, producing (<integer polynomial>) / D — exact under integer
// division because counts are integer-valued on their domains.
func polyToExpr(p poly.Polynomial, rename map[string]string) (lang.Expr, error) {
	if c, ok := p.IsConst(); ok && c.IsInt() {
		return &lang.IntLit{Val: c.Num().Int64()}, nil
	}
	// Affine counts (the common case, e.g. n-1-j) render directly.
	if lin, ok := p.AsLin(); ok {
		if rename != nil {
			lin = lin.Rename(rename)
		}
		return pdg.LinToExpr(lin), nil
	}
	// Find the least common denominator of all coefficients.
	den := big.NewInt(1)
	for _, v := range p.Vars() {
		_ = v // vars enumerated below through CoeffsByVar decomposition
	}
	den = denominatorLCM(p)
	scaled := p.ScaleRat(new(big.Rat).SetInt(den))
	numExpr, err := intPolyExpr(scaled, rename)
	if err != nil {
		return nil, err
	}
	if den.Cmp(big.NewInt(1)) == 0 {
		return numExpr, nil
	}
	return &lang.Bin{Op: lang.BinDiv, L: numExpr, R: &lang.IntLit{Val: den.Int64()}}, nil
}

func denominatorLCM(p poly.Polynomial) *big.Int {
	den := big.NewInt(1)
	// Walk coefficients through single-variable decompositions until only
	// the constant remains; simpler: use the polynomial's string-independent
	// structure via CoeffsByVar recursion. To keep it simple we scale
	// iteratively: multiply by each coefficient's denominator via trial.
	for {
		d := firstNonIntDen(p, den)
		if d == nil {
			return den
		}
		den.Mul(den, d)
	}
}

// firstNonIntDen returns a denominator that still fails to clear p when
// scaled by cur, or nil if cur clears all coefficients.
func firstNonIntDen(p poly.Polynomial, cur *big.Int) *big.Int {
	scaled := p.ScaleRat(new(big.Rat).SetInt(cur))
	vars := scaled.Vars()
	var walk func(q poly.Polynomial, vs []string) *big.Int
	walk = func(q poly.Polynomial, vs []string) *big.Int {
		if len(vs) == 0 {
			c, ok := q.IsConst()
			if !ok {
				return nil
			}
			if !c.IsInt() {
				return new(big.Int).Set(c.Denom())
			}
			return nil
		}
		for _, ck := range q.CoeffsByVar(vs[0]) {
			if d := walk(ck, vs[1:]); d != nil {
				return d
			}
		}
		return nil
	}
	return walk(scaled, vars)
}

// intPolyExpr renders a polynomial with integer coefficients as a lang
// expression, renaming variables through rename (nil keeps names).
func intPolyExpr(p poly.Polynomial, rename map[string]string) (lang.Expr, error) {
	if c, ok := p.IsConst(); ok {
		if !c.IsInt() {
			return nil, fmt.Errorf("instrument: non-integer coefficient %s", c)
		}
		return &lang.IntLit{Val: c.Num().Int64()}, nil
	}
	vars := p.Vars()
	v := vars[0]
	name := v
	if rename != nil {
		if nn, ok := rename[v]; ok {
			name = nn
		}
	}
	// Horner in v: p = c0 + v*(c1 + v*(c2 + ...)).
	coeffs := p.CoeffsByVar(v)
	var out lang.Expr
	for k := len(coeffs) - 1; k >= 0; k-- {
		ce, err := intPolyExpr(coeffs[k], rename)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = ce
			continue
		}
		out = &lang.Bin{Op: lang.BinMul, L: &lang.Ref{Name: name}, R: out}
		if lit, ok := ce.(*lang.IntLit); !ok || lit.Val != 0 {
			out = &lang.Bin{Op: lang.BinAdd, L: out, R: ce}
		}
	}
	return out, nil
}

// consToCond renders constraints as a lang boolean condition (conjunction),
// renaming variables through rename. nil means "no constraints" (true).
func consToCond(cons []poly.Constraint, rename map[string]string) lang.Expr {
	var out lang.Expr
	for _, c := range cons {
		e := c.E
		if rename != nil {
			e = e.Rename(rename)
		}
		lhs := pdg.LinToExpr(e)
		op := lang.BinGe
		if c.Equality {
			op = lang.BinEq
		}
		cmp := &lang.Bin{Op: op, L: lhs, R: &lang.IntLit{Val: 0}}
		if out == nil {
			out = cmp
		} else {
			out = &lang.Bin{Op: lang.BinAnd, L: out, R: cmp}
		}
	}
	return out
}

// names tracks identifiers in use so generated helpers stay collision-free.
type names struct {
	used map[string]bool
}

func newNames(prog *lang.Program) *names {
	n := &names{used: map[string]bool{}}
	for _, p := range prog.Params {
		n.used[p] = true
	}
	for _, d := range prog.Decls {
		n.used[d.Name] = true
	}
	lang.WalkStmts(prog.Body, func(s lang.Stmt) bool {
		switch x := s.(type) {
		case *lang.For:
			n.used[x.Iter] = true
		case *lang.Let:
			n.used[x.Name] = true
		}
		return true
	})
	return n
}

// fresh returns base if free, else base2, base3, ...
func (n *names) fresh(base string) string {
	if !n.used[base] {
		n.used[base] = true
		return base
	}
	for i := 2; ; i++ {
		cand := fmt.Sprintf("%s%d", base, i)
		if !n.used[cand] {
			n.used[cand] = true
			return cand
		}
	}
}

// addChk builds an add_to_chksm statement.
func addChk(cs lang.CSName, value lang.Expr, count lang.Expr) *lang.AddToChecksum {
	return &lang.AddToChecksum{CS: cs, Value: value, Count: count}
}

func one() lang.Expr           { return &lang.IntLit{Val: 1} }
func intLit(v int64) lang.Expr { return &lang.IntLit{Val: v} }

// refTo builds a Ref with cloned index expressions.
func refClone(r *lang.Ref) *lang.Ref {
	return lang.CloneExpr(r).(*lang.Ref)
}

// incr builds "ref = ref + by;".
func incr(r *lang.Ref, by int64) lang.Stmt {
	return &lang.Assign{LHS: refClone(r), Op: lang.OpSet,
		RHS: &lang.Bin{Op: lang.BinAdd, L: refClone(r), R: intLit(by)}}
}

// loopNestOver builds nested for loops over the given iterator names with
// bounds [0, dim-1], wrapping body.
func loopNestOver(iters []string, dims []lang.Expr, body []lang.Stmt) []lang.Stmt {
	out := body
	for k := len(iters) - 1; k >= 0; k-- {
		out = []lang.Stmt{&lang.For{
			Iter: iters[k],
			Lo:   intLit(0),
			Hi:   &lang.Bin{Op: lang.BinSub, L: lang.CloneExpr(dims[k]), R: one()},
			Body: out,
		}}
	}
	return out
}
