package instrument

import (
	"slices"

	"defuse/internal/lang"
	"defuse/internal/pdg"
	"defuse/internal/poly"
)

// This file keeps loop-invariant use counters in registers (scalar
// replacement, Carr and Kennedy, TOPLAS 1994). A dynamic plan's counter cell
// that an inner loop increments, reads in a kill fold and resets at one
// subscript the loop does not change is otherwise loaded and stored through
// memory on every iteration. The pass runs last, on the finished program,
// and changes no fold, count or accumulator: every counter value a fold
// reads, and every counter value left in memory after the loop, is the one
// the unpromoted program has there.
//
// A promotion spans one for loop nested in another loop, never a top-level
// loop (epoch boundaries, checkpoints and WAL seals fall between its
// iterations, and counters must be in memory there) and never a while loop
// or a for loop with a while inside. It takes one of two forms:
//
//   - full: the loop touches counter array C only at one cell C[s], s
//     invariant in the loop. C[s] is loaded into an int register before the
//     loop; the loop's increments, reads and resets use the register; the
//     register is stored back after the loop.
//   - delta: the loop only increments C's cells, and some of them at an
//     invariant subscript s. Those increments sum into a register that
//     starts at 0, and C[s] = C[s] + d follows the loop. Increments at other
//     subscripts stay in memory; they may alias s, and the sums commute.
//
// A full register whose cell the statement just before the loop sets to an
// integer literal starts from that literal: the cell holds it, so loading it
// back is wasted work. The register's Let and store sit under
// "if (lo <= hi)" unless the enclosing loops and guards imply the loop
// runs, so an empty loop makes no counter access. C[s] is loaded only where the loop's body touches it on
// every iteration (an access directly in the body) or where C is a scalar,
// so the load never fails where the unpromoted program would not. Adjacent
// loops that promote the same cells in the same forms (the segments index-set
// splitting cuts one loop into) share one register, loaded before the first
// and stored after the last, under the disjunction of their guards.

// promoter rewrites a program body with its counter cells promoted.
type promoter struct {
	sp          splitter        // domains: fixed names, loop bounds, guards
	cnts        map[string]bool // the dynamic plans' counter arrays
	full, delta int             // cells promoted in each form
}

// promoteCounters returns prog's body with its loop-invariant counter cells
// kept in registers across inner loops, and counts the cells promoted.
func (ins *instrumenter) promoteCounters(prog *lang.Program, rep *Report) []lang.Stmt {
	p := &promoter{sp: newSplitter(prog), cnts: map[string]bool{}}
	for _, c := range ins.cnts {
		p.cnts[c] = true
	}
	if len(p.cnts) == 0 {
		return prog.Body
	}
	body := p.list(prog.Body, nil, false)
	rep.PromotedFull, rep.PromotedDelta = p.full, p.delta
	return body
}

// list rewrites a statement list under dom; inLoop reports whether the list
// is inside a loop, where a for loop can carry a promotion.
func (p *promoter) list(ss []lang.Stmt, dom []poly.Constraint, inLoop bool) []lang.Stmt {
	var out []lang.Stmt
	for i := 0; i < len(ss); i++ {
		switch x := ss[i].(type) {
		case *lang.For:
			var cells []promotion
			if inLoop {
				cells = p.plan(x, dom)
			}
			if len(cells) == 0 {
				inner, _ := p.sp.enter(dom, x)
				out = append(out, &lang.For{Pos: x.Pos, Iter: x.Iter, Lo: x.Lo, Hi: x.Hi, Body: p.list(x.Body, inner, true)})
				continue
			}
			loops := []*lang.For{x}
			for ; i+1 < len(ss); i++ {
				next, ok := ss[i+1].(*lang.For)
				if !ok || !slices.EqualFunc(p.plan(next, dom), cells, sameCell) {
					break
				}
				loops = append(loops, next)
			}
			var prev lang.Stmt
			if len(out) > 0 {
				prev = out[len(out)-1]
			}
			out = append(out, p.promote(loops, cells, dom, prev)...)
		case *lang.While:
			out = append(out, &lang.While{Pos: x.Pos, Cond: x.Cond, Body: p.list(x.Body, dom, true)})
		case *lang.If:
			then := dom
			if cons, affine := p.sp.condToCons(x.Cond); affine {
				then = append(dom[:len(dom):len(dom)], cons...)
			}
			out = append(out, &lang.If{Pos: x.Pos, Cond: x.Cond, Then: p.list(x.Then, then, inLoop), Else: p.list(x.Else, dom, inLoop)})
		default:
			out = append(out, x)
		}
	}
	return out
}

// promotion is one counter cell kept in register reg across a loop.
type promotion struct {
	cell string    // the cell's key (see cellKey)
	ref  *lang.Ref // the cell
	reg  string
	full bool
}

// sameCell reports whether a and b promote one cell in one form.
func sameCell(a, b promotion) bool { return a.cell == b.cell && a.full == b.full }

// promote rewrites adjacent for loops, nested in another loop, that promote
// the same cells, under dom: it keeps the cells in registers across all of
// them, then recurses into their bodies for the counters left in memory.
// prev is the statement just before the loops, or nil: when it stores an
// integer literal into a full cell, the register starts from that literal
// instead of loading the cell back.
func (p *promoter) promote(loops []*lang.For, cells []promotion, dom []poly.Constraint, prev lang.Stmt) []lang.Stmt {
	for i := range cells {
		suffix := "_d"
		if cells[i].full {
			suffix = "_c"
		}
		cells[i].reg = p.sp.names.fresh(cells[i].ref.Name + suffix)
	}
	var group []lang.Stmt
	var conds []lang.Expr
	always := false
	for _, f := range loops {
		inner, _ := p.sp.enter(dom, f)
		body := p.list(p.replaceStmts(f.Body, cells), inner, true)
		group = append(group, &lang.For{Pos: f.Pos, Iter: f.Iter, Lo: f.Lo, Hi: f.Hi, Body: body})
		if cond := p.runs(f, dom); cond != nil {
			conds = append(conds, cond)
		} else {
			always = true
		}
	}
	f := loops[0]
	var pre, post []lang.Stmt
	for _, c := range cells {
		if c.full {
			p.full++
			var start lang.Expr = refClone(c.ref)
			if a, ok := prev.(*lang.Assign); ok && a.Op == lang.OpSet && p.cellKey(a.LHS, nil) == c.cell {
				if lit, ok := a.RHS.(*lang.IntLit); ok {
					start = intLit(lit.Val)
				}
			}
			pre = append(pre, &lang.Let{Pos: f.Pos, Name: c.reg, Type: lang.TypeInt, Value: start})
			post = append(post, &lang.Assign{LHS: refClone(c.ref), Op: lang.OpSet, RHS: &lang.Ref{Name: c.reg}})
		} else {
			p.delta++
			pre = append(pre, &lang.Let{Pos: f.Pos, Name: c.reg, Type: lang.TypeInt, Value: intLit(0)})
			post = append(post, &lang.Assign{LHS: refClone(c.ref), Op: lang.OpSet,
				RHS: &lang.Bin{Op: lang.BinAdd, L: refClone(c.ref), R: &lang.Ref{Name: c.reg}}})
		}
	}
	group = append(append(pre, group...), post...)
	if always {
		return group
	}
	cond := conds[0]
	for _, c := range conds[1:] {
		cond = &lang.Bin{Op: lang.BinOr, L: cond, R: c}
	}
	return []lang.Stmt{&lang.If{Pos: f.Pos, Cond: cond, Then: group}}
}

// runs returns the condition under which f runs at least once, less the
// conjuncts dom implies: nil when dom implies that f runs.
func (p *promoter) runs(f *lang.For, dom []poly.Constraint) lang.Expr {
	var cons []poly.Constraint
	for _, lo := range extremeArgs("max", f.Lo) {
		for _, hi := range extremeArgs("min", f.Hi) {
			l, lok := pdg.ExprToLin(lo, p.sp.fixed)
			h, hok := pdg.ExprToLin(hi, p.sp.fixed)
			if !lok || !hok {
				return &lang.Bin{Op: lang.BinLe, L: lang.CloneExpr(f.Lo), R: lang.CloneExpr(f.Hi)}
			}
			cons = append(cons, poly.Le(l, h))
		}
	}
	return consToCond(gist(cons, dom), nil)
}

// access is one reference to a counter array in a loop.
type access struct {
	ref    *lang.Ref
	cell   string
	incr   bool // the target of "C[s] = C[s] + k;"
	direct bool // reached on every iteration of the loop (see plan)
}

// plan picks the counter cells loop f, under dom, keeps in registers. An
// access is direct when every iteration of f reaches it: it sits in a
// statement of f's body, or of the body of a loop that is itself direct and
// that the enclosing loops imply runs.
func (p *promoter) plan(f *lang.For, dom []poly.Constraint) []promotion {
	if p.readsMemory(f.Lo) || p.readsMemory(f.Hi) {
		return nil
	}
	// Names f binds, and the registers it assigns: a subscript over any of
	// them is not invariant in f.
	bound := map[string]bool{f.Iter: true}
	hasWhile := false
	lang.WalkStmts(f.Body, func(s lang.Stmt) bool {
		switch x := s.(type) {
		case *lang.For:
			bound[x.Iter] = true
		case *lang.Let:
			bound[x.Name] = true
		case *lang.Assign:
			if p.sp.prog.Decl(x.LHS.Name) == nil {
				bound[x.LHS.Name] = true
			}
		case *lang.While:
			hasWhile = true
		}
		return true
	})
	if hasWhile {
		return nil
	}
	byArray := map[string][]access{}
	var arrays []string
	note := func(r *lang.Ref, incr, direct bool) {
		if !p.cnts[r.Name] {
			return
		}
		if byArray[r.Name] == nil {
			arrays = append(arrays, r.Name)
		}
		byArray[r.Name] = append(byArray[r.Name], access{ref: r, cell: p.cellKey(r, bound), incr: incr, direct: direct})
	}
	reads := func(direct bool, es ...lang.Expr) {
		for _, e := range es {
			for _, r := range lang.ExprRefs(e) {
				note(r, false, direct)
			}
		}
	}
	var scan func(ss []lang.Stmt, dom []poly.Constraint, direct bool)
	scan = func(ss []lang.Stmt, dom []poly.Constraint, direct bool) {
		for _, s := range ss {
			switch x := s.(type) {
			case *lang.Assign:
				if isIncr(x) {
					note(x.LHS, true, direct)
					reads(direct, x.LHS.Indices...)
					continue
				}
				note(x.LHS, false, direct)
				reads(direct, x.RHS)
				reads(direct, x.LHS.Indices...)
			case *lang.Let:
				reads(direct, x.Value)
			case *lang.AddToChecksum:
				reads(direct, x.Value, x.Count)
			case *lang.For:
				reads(direct, x.Lo, x.Hi)
				inner, _ := p.sp.enter(dom, x)
				scan(x.Body, inner, direct && p.runs(x, dom) == nil)
			case *lang.If:
				reads(false, x.Cond) // && and || may skip a conjunct
				scan(x.Then, nil, false)
				scan(x.Else, nil, false)
			}
		}
	}
	body, _ := p.sp.enter(dom, f)
	scan(f.Body, body, true)

	var out []promotion
	for _, c := range arrays {
		acc := byArray[c]
		if cell := acc[0].cell; cell != "" && p.safe(acc, cell) &&
			!slices.ContainsFunc(acc, func(a access) bool { return a.cell != cell }) {
			out = append(out, promotion{cell: cell, ref: acc[0].ref, full: true})
			continue
		}
		if slices.ContainsFunc(acc, func(a access) bool { return !a.incr }) {
			continue
		}
		seen := map[string]bool{}
		for _, a := range acc {
			if a.cell != "" && !seen[a.cell] && p.safe(acc, a.cell) {
				seen[a.cell] = true
				out = append(out, promotion{cell: a.cell, ref: a.ref})
			}
		}
	}
	return out
}

// safe reports whether loading and storing cell before and after the loop
// cannot fail where the loop itself does not: the cell is a scalar, or an
// access directly in the loop's body reaches it on every iteration.
func (p *promoter) safe(acc []access, cell string) bool {
	for _, a := range acc {
		if a.cell == cell && (len(a.ref.Indices) == 0 || a.direct) {
			return true
		}
	}
	return false
}

// isIncr reports whether x is "C[s] = C[s] + k;" with k an integer literal.
func isIncr(x *lang.Assign) bool {
	b, ok := x.RHS.(*lang.Bin)
	if !ok || x.Op != lang.OpSet || b.Op != lang.BinAdd {
		return false
	}
	l, ok := b.L.(*lang.Ref)
	_, lit := b.R.(*lang.IntLit)
	return ok && lit && lang.ExprString(l) == lang.ExprString(x.LHS)
}

// readsMemory reports whether e reads a declared variable.
func (p *promoter) readsMemory(e lang.Expr) bool {
	for _, r := range lang.ExprRefs(e) {
		if p.sp.prog.Decl(r.Name) != nil {
			return true
		}
	}
	return false
}

// cellKey names the cell r addresses, its subscripts in affine normal form
// where they have one, or returns "" when a subscript reads memory or a name
// bound in the loop (the cell is not invariant there).
func (p *promoter) cellKey(r *lang.Ref, bound map[string]bool) string {
	key := r.Name
	for _, ix := range r.Indices {
		for _, x := range lang.ExprRefs(ix) {
			if bound[x.Name] || p.sp.prog.Decl(x.Name) != nil {
				return ""
			}
		}
		if lin, ok := pdg.ExprToLin(ix, func(string) bool { return true }); ok {
			key += "[" + lin.String() + "]"
		} else {
			key += "[" + lang.ExprString(ix) + "]"
		}
	}
	return key
}

// replaceStmts rewrites ss with every access to a promoted cell turned into
// its register: in full form every reference to the counter array, in delta
// form each increment of the cell.
func (p *promoter) replaceStmts(ss []lang.Stmt, cells []promotion) []lang.Stmt {
	full := map[string]string{}  // counter array → register
	delta := map[string]string{} // cell → register
	for _, c := range cells {
		if c.full {
			full[c.ref.Name] = c.reg
		} else {
			delta[c.cell] = c.reg
		}
	}
	expr := func(e lang.Expr) lang.Expr {
		return mapRefs(e, func(r *lang.Ref) lang.Expr {
			if reg, ok := full[r.Name]; ok {
				return &lang.Ref{Pos: r.Pos, Name: reg}
			}
			return nil
		})
	}
	var rw func(ss []lang.Stmt) []lang.Stmt
	rw = func(ss []lang.Stmt) []lang.Stmt {
		var out []lang.Stmt
		for _, s := range ss {
			switch x := s.(type) {
			case *lang.Assign:
				if reg, ok := delta[p.cellKey(x.LHS, nil)]; ok && isIncr(x) {
					out = append(out, incr(&lang.Ref{Name: reg}, x.RHS.(*lang.Bin).R.(*lang.IntLit).Val))
					continue
				}
				out = append(out, &lang.Assign{Pos: x.Pos, Label: x.Label, LHS: expr(x.LHS).(*lang.Ref), Op: x.Op, RHS: expr(x.RHS)})
			case *lang.Let:
				out = append(out, &lang.Let{Pos: x.Pos, Name: x.Name, Type: x.Type, Value: expr(x.Value)})
			case *lang.AddToChecksum:
				out = append(out, &lang.AddToChecksum{Pos: x.Pos, CS: x.CS, Value: expr(x.Value), Count: expr(x.Count)})
			case *lang.For:
				out = append(out, &lang.For{Pos: x.Pos, Iter: x.Iter, Lo: expr(x.Lo), Hi: expr(x.Hi), Body: rw(x.Body)})
			case *lang.If:
				out = append(out, &lang.If{Pos: x.Pos, Cond: expr(x.Cond), Then: rw(x.Then), Else: rw(x.Else)})
			default:
				out = append(out, s)
			}
		}
		return out
	}
	return rw(ss)
}

// mapRefs rebuilds e with every Ref for which f returns an expression
// replaced by it; f sees subscripts before the reference holding them.
func mapRefs(e lang.Expr, f func(*lang.Ref) lang.Expr) lang.Expr {
	switch x := e.(type) {
	case *lang.Ref:
		r := &lang.Ref{Pos: x.Pos, Name: x.Name}
		for _, ix := range x.Indices {
			r.Indices = append(r.Indices, mapRefs(ix, f))
		}
		if y := f(r); y != nil {
			return y
		}
		return r
	case *lang.Bin:
		return &lang.Bin{Pos: x.Pos, Op: x.Op, L: mapRefs(x.L, f), R: mapRefs(x.R, f)}
	case *lang.Un:
		return &lang.Un{Pos: x.Pos, Op: x.Op, X: mapRefs(x.X, f)}
	case *lang.Call:
		c := &lang.Call{Pos: x.Pos, Name: x.Name}
		for _, a := range x.Args {
			c.Args = append(c.Args, mapRefs(a, f))
		}
		return c
	}
	return lang.CloneExpr(e)
}
