package instrument

import (
	"defuse/internal/lang"
	"defuse/internal/pdg"
	"defuse/internal/poly"
)

// This file implements Algorithm 2 (index-set splitting, Section 3.3): loops
// containing affine guards are partitioned so that within each partition the
// guard is statically true or false — the guard conditional disappears, and
// each split loop carries a single closed-form use count (the paper's
// Figure 6 peeling of cholesky's last iteration).

// maxSplitsPerLoop bounds the 2^k copy growth when a loop has many guards.
// An equality costs none of it: a split on one leaves it in no segment (it
// holds in the point segment and fails in the other two), so equality
// splits end on their own.
const maxSplitsPerLoop = 6

// SplitLoops rewrites prog's body, splitting every for loop whose body
// contains affine guards on that loop's iterator, then merges the folds the
// split leaves repeated in a segment (mergeFolds). It emits only code that can
// run in its loop nest: every loop and guard is resolved against its domain,
// the affine bounds of the enclosing loops (min/max split into conjuncts)
// plus the guards already taken, over fixed integer names: parameters, loop
// iterators and int scalars no statement assigns. A float scalar is never
// fixed, since integer reasoning (x > 0 implies x >= 1) does not hold for it.
func SplitLoops(prog *lang.Program) []lang.Stmt {
	sp := newSplitter(prog)
	return sp.mergeFolds(sp.resolve(prog.Body, nil, true))
}

// newSplitter returns a splitter over prog's body as it stands.
func newSplitter(prog *lang.Program) splitter {
	assigned := map[string]bool{}
	lang.WalkStmts(prog.Body, func(s lang.Stmt) bool {
		switch x := s.(type) {
		case *lang.Assign:
			assigned[x.LHS.Name] = true
		case *lang.Let:
			assigned[x.Name] = true
		}
		return true
	})
	return splitter{prog: prog, names: newNames(prog), fixed: func(name string) bool {
		d := prog.Decl(name)
		return !assigned[name] && (d == nil || d.Type == lang.TypeInt)
	}}
}

// splitter carries which names are fixed through a run: a bound or guard over
// any other name is not affine and is left as it is. names hands out the
// registers mergeFolds and the counter promotion bind.
type splitter struct {
	prog  *lang.Program
	names *names
	fixed func(string) bool
}

// resolve rebuilds ss under dom. It drops a loop that is empty in dom and a
// guard that is never true, strips the guard conjuncts dom implies
// (unwrapping a guard left with none), and drops a loop whose body ends up
// empty. With split set, every for loop is also split (Algorithm 2).
func (sp splitter) resolve(ss []lang.Stmt, dom []poly.Constraint, split bool) []lang.Stmt {
	var out []lang.Stmt
	for _, s := range ss {
		switch x := s.(type) {
		case *lang.For:
			if split {
				out = append(out, sp.splitFor(x, dom, maxSplitsPerLoop)...)
			} else if inner, ok := sp.enter(dom, x); ok {
				if body := sp.resolve(x.Body, inner, false); len(body) > 0 {
					out = append(out, &lang.For{Pos: x.Pos, Iter: x.Iter, Lo: x.Lo, Hi: x.Hi, Body: body})
				}
			}
		case *lang.While:
			out = append(out, &lang.While{Pos: x.Pos, Cond: lang.CloneExpr(x.Cond), Body: sp.resolve(x.Body, dom, split)})
		case *lang.If:
			cons, affine := sp.condToCons(x.Cond)
			if !affine || len(x.Else) != 0 {
				out = append(out, &lang.If{Pos: x.Pos, Cond: lang.CloneExpr(x.Cond),
					Then: sp.resolve(x.Then, dom, split), Else: sp.resolve(x.Else, dom, split)})
				continue
			}
			inner := append(dom[:len(dom):len(dom)], cons...)
			if infeasible(inner) {
				continue // never true
			}
			then := sp.resolve(x.Then, inner, split)
			if rest := gist(cons, dom); len(rest) == 0 || len(then) == 0 {
				out = append(out, then...)
			} else {
				out = append(out, &lang.If{Pos: x.Pos, Cond: consToCond(rest, nil), Then: then})
			}
		default:
			out = append(out, lang.CloneStmt(s))
		}
	}
	return out
}

// enter returns dom extended with the affine bounds of loop f, and false when
// f cannot run in dom.
func (sp splitter) enter(dom []poly.Constraint, f *lang.For) ([]poly.Constraint, bool) {
	inner := dom[:len(dom):len(dom)]
	iv := poly.V(f.Iter)
	for _, lo := range extremeArgs("max", f.Lo) {
		if l, ok := pdg.ExprToLin(lo, sp.fixed); ok {
			inner = append(inner, poly.Ge(iv, l))
		}
	}
	for _, hi := range extremeArgs("min", f.Hi) {
		if h, ok := pdg.ExprToLin(hi, sp.fixed); ok {
			inner = append(inner, poly.Le(iv, h))
		}
	}
	return inner, !infeasible(inner)
}

// splitFor resolves one loop's body against the loop's domain, splits the
// loop on the first guard constraint left undecided there (only on an
// equality once budget is spent), and recurses on the parts; a part that
// cannot run is dropped.
func (sp splitter) splitFor(f *lang.For, dom []poly.Constraint, budget int) []lang.Stmt {
	inner, ok := sp.enter(dom, f)
	if !ok {
		return nil
	}
	body := sp.resolve(f.Body, inner, false)
	if len(body) == 0 {
		return nil
	}
	if c, found := sp.findSplitConstraint(body, f.Iter, budget == 0); found {
		rest := c.E.Subst(f.Iter, poly.L(0))
		if c.Equality {
			// c holds at the single point v = -rest (unit coefficient)
			// or v = rest (-1): the loop runs before, at and after it.
			at := rest
			if c.E.Coeff(f.Iter) == 1 {
				at = rest.Neg()
			}
			var out []lang.Stmt
			for _, seg := range [][2]lang.Expr{
				{lang.CloneExpr(f.Lo), minExpr(lang.CloneExpr(f.Hi), pdg.LinToExpr(at.AddConst(-1)))},
				{maxExpr(lang.CloneExpr(f.Lo), pdg.LinToExpr(at)), minExpr(lang.CloneExpr(f.Hi), pdg.LinToExpr(at))},
				{maxExpr(lang.CloneExpr(f.Lo), pdg.LinToExpr(at.AddConst(1))), lang.CloneExpr(f.Hi)},
			} {
				out = append(out, sp.splitFor(&lang.For{Iter: f.Iter, Lo: seg[0], Hi: seg[1], Body: body}, dom, budget)...)
			}
			return out
		}
		// c flips between cut and cut+1: with unit coefficient it holds
		// iff v >= -rest, with -1 iff v <= rest.
		cut := rest
		if c.E.Coeff(f.Iter) == 1 {
			cut = cut.Neg().AddConst(-1)
		}
		first := &lang.For{Iter: f.Iter, Lo: lang.CloneExpr(f.Lo),
			Hi: minExpr(lang.CloneExpr(f.Hi), pdg.LinToExpr(cut)), Body: body}
		second := &lang.For{Iter: f.Iter, Lo: maxExpr(lang.CloneExpr(f.Lo), pdg.LinToExpr(cut.AddConst(1))),
			Hi: lang.CloneExpr(f.Hi), Body: body}
		return append(sp.splitFor(first, dom, budget-1), sp.splitFor(second, dom, budget-1)...)
	}
	return []lang.Stmt{&lang.For{Pos: f.Pos, Iter: f.Iter, Lo: lang.CloneExpr(f.Lo), Hi: lang.CloneExpr(f.Hi),
		Body: sp.resolve(body, inner, true)}}
}

func minExpr(a, b lang.Expr) lang.Expr { return extremeExpr("min", a, b) }
func maxExpr(a, b lang.Expr) lang.Expr { return extremeExpr("max", a, b) }

// extremeExpr builds min/max of two bound expressions, flattening nested
// calls, deduplicating syntactically equal arguments, and resolving pairs
// whose difference is a known constant (min(i-1, i-2) folds to i-2).
func extremeExpr(kind string, a, b lang.Expr) lang.Expr {
	args := append(extremeArgs(kind, a), extremeArgs(kind, b)...)
	// Deduplicate and resolve comparable pairs.
	var kept []lang.Expr
	for _, arg := range args {
		replaced := false
		for i, k := range kept {
			r, ok := resolvePair(kind, k, arg)
			if ok {
				kept[i] = r
				replaced = true
				break
			}
		}
		if !replaced {
			kept = append(kept, arg)
		}
	}
	out := kept[0]
	for _, k := range kept[1:] {
		out = &lang.Call{Name: kind, Args: []lang.Expr{out, k}}
	}
	return out
}

// extremeArgs flattens nested min/min (or max/max) calls into their leaves.
func extremeArgs(kind string, e lang.Expr) []lang.Expr {
	if c, ok := e.(*lang.Call); ok && c.Name == kind {
		return append(extremeArgs(kind, c.Args[0]), extremeArgs(kind, c.Args[1])...)
	}
	return []lang.Expr{e}
}

// resolvePair returns the dominating expression when a and b differ by a
// known constant (or are equal), under min/max semantics.
func resolvePair(kind string, a, b lang.Expr) (lang.Expr, bool) {
	if lang.ExprString(a) == lang.ExprString(b) {
		return a, true
	}
	anyVar := func(string) bool { return true }
	la, aok := pdg.ExprToLin(a, anyVar)
	lb, bok := pdg.ExprToLin(b, anyVar)
	if !aok || !bok {
		return nil, false
	}
	d := la.Sub(lb)
	if !d.IsConst() {
		return nil, false
	}
	aSmaller := d.Const() <= 0
	if (kind == "min") == aSmaller {
		return a, true
	}
	return b, true
}

// findSplitConstraint locates, in the subtree, an If guard conjunct that
// references iter with unit coefficient and no inner-loop iterators. In a
// body already resolved against the loop's domain every such conjunct is
// undecided there, so both halves of a split on it can run and decide it (an
// equality splits into the point where it holds and the ranges either side).
func (sp splitter) findSplitConstraint(ss []lang.Stmt, iter string, equalityOnly bool) (poly.Constraint, bool) {
	inner := map[string]bool{}
	lang.WalkStmts(ss, func(s lang.Stmt) bool {
		if lf, ok := s.(*lang.For); ok {
			inner[lf.Iter] = true
		}
		return true
	})
	var found poly.Constraint
	ok := false
	lang.WalkStmts(ss, func(s lang.Stmt) bool {
		if ok {
			return false
		}
		ifs, isIf := s.(*lang.If)
		if !isIf || len(ifs.Else) != 0 {
			return true
		}
		cons, parsed := sp.condToCons(ifs.Cond)
		if !parsed {
			return true
		}
		for _, c := range cons {
			a := c.E.Coeff(iter)
			if (a != 1 && a != -1) || (equalityOnly && !c.Equality) {
				continue
			}
			eligible := true
			for _, v := range c.E.Vars() {
				if inner[v] {
					eligible = false
					break
				}
			}
			if eligible {
				found, ok = c, true
				return false
			}
		}
		return true
	})
	return found, ok
}

// condToCons parses a guard condition (a conjunction of affine comparisons
// over fixed names) back into constraints.
func (sp splitter) condToCons(e lang.Expr) ([]poly.Constraint, bool) {
	switch x := e.(type) {
	case *lang.Bin:
		switch x.Op {
		case lang.BinAnd:
			l, lok := sp.condToCons(x.L)
			r, rok := sp.condToCons(x.R)
			if !lok || !rok {
				return nil, false
			}
			return append(l, r...), true
		case lang.BinGe, lang.BinLe, lang.BinGt, lang.BinLt, lang.BinEq:
			l, lok := pdg.ExprToLin(x.L, sp.fixed)
			r, rok := pdg.ExprToLin(x.R, sp.fixed)
			if !lok || !rok {
				return nil, false
			}
			switch x.Op {
			case lang.BinGe:
				return []poly.Constraint{poly.Ge(l, r)}, true
			case lang.BinLe:
				return []poly.Constraint{poly.Le(l, r)}, true
			case lang.BinGt:
				return []poly.Constraint{poly.Gt(l, r)}, true
			case lang.BinLt:
				return []poly.Constraint{poly.Lt(l, r)}, true
			default:
				return []poly.Constraint{poly.Eq(l, r)}, true
			}
		}
	}
	return nil, false
}
