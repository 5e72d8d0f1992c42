package instrument

import (
	"fmt"
	"sort"

	"defuse/internal/lang"
	"defuse/internal/pdg"
	"defuse/internal/poly"
	"defuse/internal/usecount"
)

// This file implements the Section 4.2 optimization for iterative codes:
// for a while loop whose irregular index structures are loop-invariant, an
// inspector counting per-cell accesses is hoisted above the loop, writes
// inside the loop receive exact per-iteration use counts, and read-only
// (invariant) arrays are balanced in an epilogue scaled by the dynamic
// iteration count — reproducing the structure of the paper's Figure 9.

// inspVar is the plan for one array handled by an inspector.
type inspVar struct {
	decl *lang.VarDecl
	// written reports whether the array is (re)defined inside the loop
	// (p_new in Figure 8) as opposed to invariant (cols).
	written bool
	// cntName is the inspector count array (irregular reads per cell);
	// empty if the variable has no irregular reads.
	cntName string
	// static is the per-while-iteration affine read count of each cell, an
	// additive list of pieces over the cell variables.
	static []poly.Piece
	// cellVars names the parameterized cell coordinates used in static.
	cellVars []string
	// writeStmts are the region statements writing the array.
	writeStmts map[*lang.Assign]bool
}

// inspectorPlan is the full plan for one while loop.
type inspectorPlan struct {
	iterName  string
	iterReg   string // the register the epilogue reads iterName from, once bound
	vars      map[string]*inspVar
	preWhile  []lang.Stmt
	postWhile []lang.Stmt
}

// detectInspectors scans for while loops amenable to inspector hoisting and
// builds their plans, upgrading qualifying variables' plans.
func (ins *instrumenter) detectInspectors() {
	lang.WalkStmts(ins.prog.Body, func(s lang.Stmt) bool {
		w, ok := s.(*lang.While)
		if !ok {
			return true
		}
		if plan := ins.tryInspector(w); plan != nil {
			ins.insp[w] = plan
		}
		return false // do not descend into nested whiles
	})
}

// tryInspector decides applicability per variable of the while body and
// builds the plan; it returns nil if no variable qualifies.
func (ins *instrumenter) tryInspector(w *lang.While) *inspectorPlan {
	rm, err := pdg.ExtractRegion(ins.prog, w.Body)
	if err != nil {
		return nil
	}
	// All region statements must be control-affine (no nested while/if).
	for _, s := range rm.Stmts {
		if !s.ControlAffine || len(s.Whiles) > 0 {
			return nil
		}
	}

	touched := ins.varsTouched(w.Body)
	writtenIn := map[string]bool{}
	for _, s := range rm.Stmts {
		writtenIn[s.Write.Array] = true
	}

	// Candidate variables: arrays accessed in the region (non-control) whose
	// every access outside this while is absent.
	cands := map[string]*inspVar{}
	for name := range touched {
		d := ins.prog.Decl(name)
		if d == nil || ins.plans[name] == PlanControl || ins.plans[name] == PlanStatic {
			continue // static vars already exact; control untracked
		}
		if ins.touchedOutside(w, name) {
			continue
		}
		cands[name] = &inspVar{decl: d, written: writtenIn[name], writeStmts: map[*lang.Assign]bool{}}
	}
	if len(cands) == 0 {
		return nil
	}

	// Validate accesses per candidate.
	type irregRead struct {
		stmt *pdg.Statement
		ref  *lang.Ref
	}
	type readSite struct {
		stmt *pdg.Statement
		acc  *pdg.Access
	}
	irregs := map[string][]irregRead{}
	readsOf := map[string][]readSite{}
	order := map[*lang.Assign]int{}
	seq := 0
	lang.WalkStmts(w.Body, func(s lang.Stmt) bool {
		if a, ok := s.(*lang.Assign); ok {
			order[a] = seq
			seq++
		}
		return true
	})
	writerStmt := map[string]*pdg.Statement{}

	for _, s := range rm.Stmts {
		// Writes.
		wacc := &s.Write
		if iv := cands[wacc.Array]; iv != nil {
			if !wacc.Affine || !writeIsIdentity(wacc, s) {
				delete(cands, wacc.Array)
			} else {
				iv.writeStmts[s.Node] = true
				writerStmt[wacc.Array] = s
			}
		}
		// Reads.
		for ri := range s.Reads {
			r := &s.Reads[ri]
			iv := cands[r.Array]
			if iv == nil {
				continue
			}
			readsOf[r.Array] = append(readsOf[r.Array], readSite{stmt: s, acc: r})
			if r.Affine {
				continue
			}
			// Irregular read: its subscript arrays must be invariant
			// (unwritten in the region) and themselves candidates.
			ok := true
			for _, sub := range lang.ExprRefs(r.Ref)[1:] { // skip the ref itself
				if ins.prog.Decl(sub.Name) == nil {
					continue
				}
				if writtenIn[sub.Name] || ins.touchedOutside(w, sub.Name) {
					ok = false
					break
				}
			}
			if !ok {
				delete(cands, r.Array)
				continue
			}
			irregs[r.Array] = append(irregs[r.Array], irregRead{stmt: s, ref: r.Ref})
		}
	}

	// Written candidates additionally require a single writing statement and
	// every read to occur before the write in statement order (iteration t's
	// reads see iteration t-1's defs). A read inside the writer statement
	// itself is allowed when it reads exactly the written cell (the RHS
	// evaluates before the store, as in "p[i] = r[i] + beta*p[i]").
	for name, iv := range cands {
		if !iv.written {
			continue
		}
		if len(iv.writeStmts) != 1 {
			delete(cands, name)
			continue
		}
		ws := writerStmt[name]
		for _, rs := range readsOf[name] {
			if rs.stmt == ws {
				if rs.acc.Affine && indexEqual(rs.acc.Index, ws.Write.Index) {
					continue
				}
				delete(cands, name)
				break
			}
			if order[rs.stmt.Node] > order[ws.Node] {
				delete(cands, name)
				break
			}
		}
	}
	// Invariant candidates must have only affine reads or be counted
	// irregularly themselves only via the inspector of a written target —
	// disallow irregular reads of invariant arrays for simplicity.
	for name, iv := range cands {
		if !iv.written && len(irregs[name]) > 0 {
			delete(cands, name)
		}
		_ = iv
	}
	if len(cands) == 0 {
		return nil
	}

	// Compute static per-iteration read counts per cell for each candidate.
	for name, iv := range cands {
		iv.cellVars = make([]string, len(iv.decl.Dims))
		for k := range iv.cellVars {
			iv.cellVars[k] = usecount.CellVarName(name, k)
		}
		ok := true
		for _, s := range rm.Stmts {
			for ri := range s.Reads {
				r := &s.Reads[ri]
				if r.Array != name || !r.Affine {
					continue
				}
				cons := append([]poly.Constraint(nil), s.Domain.Cons...)
				for k, lin := range r.Index {
					cons = append(cons, poly.Eq(lin, poly.V(iv.cellVars[k])))
				}
				set := poly.BasicSet{Tuple: s.ID, Dims: append([]string(nil), s.Iters...), Cons: cons}
				pw, err := poly.Card(set)
				if err != nil {
					ok = false
					break
				}
				iv.static = append(iv.static, pw.Pieces...)
			}
			if !ok {
				break
			}
		}
		if !ok {
			delete(cands, name)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	// Drop irregular-read entries whose target got disqualified.
	for name := range irregs {
		if cands[name] == nil {
			delete(irregs, name)
		}
	}

	// Build the plan.
	plan := &inspectorPlan{iterName: ins.names.fresh("defuse_iter"), vars: map[string]*inspVar{}}
	ins.newDecls = append(ins.newDecls, &lang.VarDecl{Name: plan.iterName, Type: lang.TypeInt})
	plan.preWhile = append(plan.preWhile,
		&lang.Assign{LHS: &lang.Ref{Name: plan.iterName}, Op: lang.OpSet, RHS: intLit(0)})

	// Emit per-candidate statements in name order: cands is a map, and the
	// hoisted loops, counter zeroing, and pro/epilogue folds all land in the
	// program text, so iteration order here must not vary run to run (the
	// native backend commits generated source and gates on regeneration
	// producing identical bytes).
	names := make([]string, 0, len(cands))
	for name := range cands {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		iv := cands[name]
		plan.vars[name] = iv
		if ins.plans[name] == PlanDynamic {
			if iv.written {
				ins.plans[name] = PlanInspector
			} else {
				ins.plans[name] = PlanInvariant
			}
		}
		// Inspector counter for irregular reads.
		if reads := irregs[name]; len(reads) > 0 {
			iv.cntName = ins.names.fresh(name + "_icnt")
			cd := &lang.VarDecl{Name: iv.cntName, Type: lang.TypeInt}
			for _, dim := range iv.decl.Dims {
				cd.Dims = append(cd.Dims, lang.CloneExpr(dim))
			}
			ins.newDecls = append(ins.newDecls, cd)
			// Zero the counters, then run the hoisted inspector loops.
			zi := make([]string, len(iv.decl.Dims))
			for k := range zi {
				zi[k] = ins.names.fresh(fmt.Sprintf("iz%d", k))
			}
			zeroRef := &lang.Ref{Name: iv.cntName}
			for _, it := range zi {
				zeroRef.Indices = append(zeroRef.Indices, &lang.Ref{Name: it})
			}
			plan.preWhile = append(plan.preWhile, loopNestOver(zi, iv.decl.Dims,
				[]lang.Stmt{&lang.Assign{LHS: zeroRef, Op: lang.OpSet, RHS: intLit(0)}})...)
			for _, r := range reads {
				plan.preWhile = append(plan.preWhile, ins.inspectorLoops(w.Body, r.ref, iv.cntName)...)
			}
		}
		ins.emitInspectorProEpi(plan, iv)
	}
	return plan
}

// indexEqual reports structural equality of two affine index vectors.
func indexEqual(a, b []poly.LinExpr) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !a[k].Equal(b[k]) {
			return false
		}
	}
	return true
}

// writeIsIdentity reports whether the write's subscripts are exactly the
// surrounding iterators in order (each cell written at most once per
// region execution).
func writeIsIdentity(acc *pdg.Access, s *pdg.Statement) bool {
	if len(acc.Index) != len(s.Iters) {
		return false
	}
	for k, lin := range acc.Index {
		want := poly.V(s.Iters[k])
		if !lin.Equal(want) {
			return false
		}
	}
	return true
}

// varsTouched collects declared variables referenced in a statement list.
func (ins *instrumenter) varsTouched(body []lang.Stmt) map[string]bool {
	out := map[string]bool{}
	lang.WalkStmts(body, func(s lang.Stmt) bool {
		a, ok := s.(*lang.Assign)
		if !ok {
			return true
		}
		for _, r := range append(lang.ExprRefs(a.RHS), lang.ExprRefs(a.LHS)...) {
			if ins.prog.Decl(r.Name) != nil {
				out[r.Name] = true
			}
		}
		return true
	})
	return out
}

// touchedOutside reports whether name is referenced anywhere outside the
// given while statement.
func (ins *instrumenter) touchedOutside(w *lang.While, name string) bool {
	found := false
	var scan func(ss []lang.Stmt)
	scan = func(ss []lang.Stmt) {
		for _, s := range ss {
			if s == lang.Stmt(w) {
				continue
			}
			switch x := s.(type) {
			case *lang.Assign:
				for _, r := range append(lang.ExprRefs(x.RHS), lang.ExprRefs(x.LHS)...) {
					if r.Name == name {
						found = true
					}
				}
			case *lang.For:
				scan(x.Body)
			case *lang.While:
				scan(x.Body)
			case *lang.If:
				scan(x.Then)
				scan(x.Else)
			}
		}
	}
	scan(ins.prog.Body)
	return found
}

// inspectorLoops clones the for-loop chain enclosing ref within body and
// produces the hoisted inspector: the loops with a single counter-increment
// statement at the innermost level.
func (ins *instrumenter) inspectorLoops(body []lang.Stmt, ref *lang.Ref, cntName string) []lang.Stmt {
	var chain []*lang.For
	var find func(ss []lang.Stmt, acc []*lang.For) bool
	find = func(ss []lang.Stmt, acc []*lang.For) bool {
		for _, s := range ss {
			switch x := s.(type) {
			case *lang.Assign:
				hit := false
				lang.WalkExpr(x.RHS, func(e lang.Expr) bool {
					if e == lang.Expr(ref) {
						hit = true
					}
					return true
				})
				lang.WalkExpr(x.LHS, func(e lang.Expr) bool {
					if e == lang.Expr(ref) {
						hit = true
					}
					return true
				})
				if hit {
					chain = append([]*lang.For(nil), acc...)
					return true
				}
			case *lang.For:
				if find(x.Body, append(acc, x)) {
					return true
				}
			}
		}
		return false
	}
	find(body, nil)
	// The subscripts' memory operands are loaded once, into registers.
	ld := ins.newLoader()
	cntRef := &lang.Ref{Name: cntName, Indices: ld.exprs(ref.Indices)}
	out := append(ld.out, incr(cntRef, 1))
	for k := len(chain) - 1; k >= 0; k-- {
		f := chain[k]
		out = []lang.Stmt{&lang.For{Iter: f.Iter, Lo: lang.CloneExpr(f.Lo), Hi: lang.CloneExpr(f.Hi), Body: out}}
	}
	return out
}

// emitInspectorProEpi generates the prologue and epilogue for one inspector
// variable (the Figure 9 prologue/epilogue generalization).
func (ins *instrumenter) emitInspectorProEpi(plan *inspectorPlan, iv *inspVar) {
	iters := make([]string, len(iv.decl.Dims))
	rename := map[string]string{}
	for k := range iters {
		iters[k] = ins.names.fresh(fmt.Sprintf("ie%d", k))
		rename[iv.cellVars[k]] = iters[k]
	}
	mkRef := func(name string) *lang.Ref {
		r := &lang.Ref{Name: name}
		for _, it := range iters {
			r.Indices = append(r.Indices, &lang.Ref{Name: it})
		}
		return r
	}
	// countExpr builds <icnt[c] + static(c)> (reads of cell c per iteration)
	// as statements adding `value` to checksum cs that many times.
	perIterAdds := func(cs lang.CSName, value func() *lang.Ref, extraScale lang.Expr) []lang.Stmt {
		var out []lang.Stmt
		scaled := func(count lang.Expr) lang.Expr {
			switch {
			case extraScale == nil:
				return count
			case lang.ExprString(count) == "1":
				return lang.CloneExpr(extraScale)
			}
			return &lang.Bin{Op: lang.BinMul, L: count, R: lang.CloneExpr(extraScale)}
		}
		if iv.cntName != "" {
			out = append(out, addChk(cs, value(), scaled(mkRef(iv.cntName))))
		}
		for _, piece := range iv.static {
			if piece.Count.IsZero() {
				continue
			}
			ce, err := polyToExpr(piece.Count, rename)
			if err != nil {
				continue
			}
			add := addChk(cs, value(), scaled(ce))
			if cond := consToCond(gistParamOnly(piece.Domain), rename); cond != nil {
				out = append(out, &lang.If{Cond: cond, Then: []lang.Stmt{add}})
			} else {
				out = append(out, add)
			}
		}
		return out
	}

	if iv.written {
		// Prologue: initial values feed iteration 1's reads.
		pro := perIterAdds(lang.DefCS, func() *lang.Ref { return mkRef(iv.decl.Name) }, nil)
		plan.preWhile = append(plan.preWhile, loopNestOver(iters, iv.decl.Dims, pro)...)
		// Epilogue: the last iteration's definitions go unused; balance the
		// use-checksum with the final values (Figure 9's final loop).
		epi := perIterAdds(lang.UseCS, func() *lang.Ref { return mkRef(iv.decl.Name) }, nil)
		plan.postWhile = append(plan.postWhile, loopNestOver(iters, iv.decl.Dims, epi)...)
	} else {
		// Invariant array: def once + e_def in prologue; epilogue scales by
		// the dynamic iteration count (def added U(c)*iter - 1 more times).
		pro := []lang.Stmt{
			addChk(lang.DefCS, mkRef(iv.decl.Name), one()),
			addChk(lang.EDefCS, mkRef(iv.decl.Name), one()),
		}
		plan.preWhile = append(plan.preWhile, loopNestOver(iters, iv.decl.Dims, pro)...)
		// The epilogue folds read the iteration count from one register,
		// bound after the loop, instead of loading it for every fold.
		if plan.iterReg == "" {
			plan.iterReg = ins.names.fresh(plan.iterName + "_r")
			plan.postWhile = append(plan.postWhile,
				&lang.Let{Name: plan.iterReg, Type: lang.TypeInt, Value: &lang.Ref{Name: plan.iterName}})
		}
		iterRef := &lang.Ref{Name: plan.iterReg}
		var epi []lang.Stmt
		epi = append(epi, perIterAdds(lang.DefCS, func() *lang.Ref { return mkRef(iv.decl.Name) }, iterRef)...)
		epi = append(epi,
			addChk(lang.DefCS, mkRef(iv.decl.Name), &lang.Un{Op: lang.UnNeg, X: one()}),
			addChk(lang.EUseCS, mkRef(iv.decl.Name), one()),
		)
		plan.postWhile = append(plan.postWhile, loopNestOver(iters, iv.decl.Dims, epi)...)
	}
}

// gistParamOnly keeps only constraints a generated guard must re-check: cell
// bounds that merely restate the enclosing rectangular loops are dropped.
func gistParamOnly(cons []poly.Constraint) []poly.Constraint {
	return cons
}

// inspectorDefAdds emits the def-checksum additions after a write to an
// inspector-counted array: the defined value, which stored() names, joins the
// def-checksum once per read it will receive in the next while iteration
// (Figure 9's "count_p_new[j3]+1").
func (ins *instrumenter) inspectorDefAdds(x *lang.Assign, stored func() lang.Expr) []lang.Stmt {
	// Find the plan owning this statement.
	for _, plan := range ins.insp {
		iv := plan.vars[x.LHS.Name]
		if iv == nil || !iv.writeStmts[x] {
			continue
		}
		// The write's subscripts are exactly the surrounding iterators;
		// rename cell variables to those iterators.
		rename := map[string]string{}
		for k, ix := range x.LHS.Indices {
			rename[iv.cellVars[k]] = ix.(*lang.Ref).Name
		}
		var out []lang.Stmt
		if iv.cntName != "" {
			cnt := &lang.Ref{Name: iv.cntName}
			for _, ix := range x.LHS.Indices {
				cnt.Indices = append(cnt.Indices, lang.CloneExpr(ix))
			}
			out = append(out, addChk(lang.DefCS, stored(), cnt))
		}
		for _, piece := range iv.static {
			if piece.Count.IsZero() {
				continue
			}
			ce, err := polyToExpr(piece.Count, rename)
			if err != nil {
				continue
			}
			add := addChk(lang.DefCS, stored(), ce)
			if cond := consToCond(piece.Domain, rename); cond != nil {
				out = append(out, &lang.If{Cond: cond, Then: []lang.Stmt{add}})
			} else {
				out = append(out, add)
			}
		}
		return out
	}
	panic("instrument: inspector def without plan for " + x.LHS.Name)
}
