package instrument

import (
	"fmt"

	"defuse/internal/lang"
	"defuse/internal/pdg"
	"defuse/internal/poly"
)

// This file emits each checksum operation of a split program once. Splitting
// resolves guards that differed before into the same residual guard (or
// none), so one segment can fold the same value into the same checksum
// several times: seidel's interior statement folded its stored value nine
// times with count 1. Folding v with counts a and b equals folding it once
// with a + b under every commutative checksum operator, so such folds merge
// into one with the summed count, and the accumulators stay bit-identical.

// mergeFolds rebuilds ss, rewriting every run of adjacent folds with
// mergeRun.
func (sp splitter) mergeFolds(ss []lang.Stmt) []lang.Stmt {
	var out, run []lang.Stmt
	for _, s := range ss {
		if isFoldItem(s) {
			run = append(run, s)
			continue
		}
		out = append(out, sp.mergeRun(run)...)
		run = nil
		switch x := s.(type) {
		case *lang.For:
			s = &lang.For{Pos: x.Pos, Iter: x.Iter, Lo: x.Lo, Hi: x.Hi, Body: sp.mergeFolds(x.Body)}
		case *lang.While:
			s = &lang.While{Pos: x.Pos, Cond: x.Cond, Body: sp.mergeFolds(x.Body)}
		case *lang.If:
			s = &lang.If{Pos: x.Pos, Cond: x.Cond, Then: sp.mergeFolds(x.Then), Else: sp.mergeFolds(x.Else)}
		}
		out = append(out, s)
	}
	return append(out, sp.mergeRun(run)...)
}

// isFoldItem reports whether s is an add_to_chksm or a guard, without an
// else branch, around nothing but add_to_chksm statements.
func isFoldItem(s lang.Stmt) bool {
	switch x := s.(type) {
	case *lang.AddToChecksum:
		return true
	case *lang.If:
		if len(x.Else) != 0 {
			return false
		}
		for _, t := range x.Then {
			if _, ok := t.(*lang.AddToChecksum); !ok {
				return false
			}
		}
		return true
	}
	return false
}

// guardedFold is one fold of a run with the guard it sits under (nil for
// none).
type guardedFold struct {
	guard lang.Expr
	fold  *lang.AddToChecksum
}

func (g guardedFold) guardKey() string {
	if g.guard == nil {
		return ""
	}
	return lang.ExprString(g.guard)
}

// mergeRun rewrites a run of adjacent folds. Nothing in a run stores, so
// every fold in it reads the same memory, and the run's folds can be
// reordered. Folds of the same value into the same checksum under the same
// guard merge into one with the summed count, folds under the same guard
// share one guard, and a memory cell more than one fold still reads is
// loaded once into a register when some fold of it is unguarded, so that
// the load adds none.
func (sp splitter) mergeRun(run []lang.Stmt) []lang.Stmt {
	if len(run) == 0 {
		return nil
	}
	var folds []guardedFold
	index := map[string]int{}
	for _, s := range run {
		var guard lang.Expr
		body := []lang.Stmt{s}
		if x, ok := s.(*lang.If); ok {
			guard, body = x.Cond, x.Then
		}
		for _, t := range body {
			g := guardedFold{guard: guard, fold: t.(*lang.AddToChecksum)}
			k := fmt.Sprint(g.guardKey(), "\x00", g.fold.CS, "\x00", lang.ExprString(g.fold.Value))
			if i, ok := index[k]; ok {
				f := folds[i].fold
				folds[i].fold = addChk(f.CS, f.Value, sp.sumCounts(f.Count, g.fold.Count))
				continue
			}
			index[k] = len(folds)
			folds = append(folds, g)
		}
	}
	out := sp.bindCells(folds)
	emitted := map[string]bool{}
	for _, g := range folds {
		k := g.guardKey()
		if g.guard == nil {
			out = append(out, g.fold)
			continue
		}
		if emitted[k] {
			continue
		}
		emitted[k] = true
		then := []lang.Stmt{}
		for _, h := range folds {
			if h.guardKey() == k {
				then = append(then, h.fold)
			}
		}
		out = append(out, &lang.If{Cond: g.guard, Then: then})
	}
	return out
}

// bindCells loads each memory cell that two or more of folds read, one of
// them unguarded, into a register and points those folds at it. It returns
// the register bindings, in first-read order.
func (sp splitter) bindCells(folds []guardedFold) []lang.Stmt {
	type cell struct {
		ref    *lang.Ref
		folds  []int
		always bool // some fold of the cell is unguarded
	}
	var cells []*cell
	byText := map[string]*cell{}
	for i, g := range folds {
		ref, ok := g.fold.Value.(*lang.Ref)
		if !ok || sp.prog.Decl(ref.Name) == nil {
			continue
		}
		k := lang.ExprString(ref)
		c := byText[k]
		if c == nil {
			c = &cell{ref: ref}
			byText[k] = c
			cells = append(cells, c)
		}
		c.folds = append(c.folds, i)
		c.always = c.always || g.guard == nil
	}
	var lets []lang.Stmt
	for _, c := range cells {
		if len(c.folds) < 2 || !c.always {
			continue
		}
		reg := sp.names.fresh(c.ref.Name + "_v")
		lets = append(lets, &lang.Let{Name: reg, Type: sp.prog.Decl(c.ref.Name).Type, Value: lang.CloneExpr(c.ref)})
		for _, i := range c.folds {
			f := folds[i].fold
			folds[i].fold = addChk(f.CS, &lang.Ref{Name: reg}, f.Count)
		}
	}
	return lets
}

// sumCounts adds two fold counts, folding their affine parts over fixed
// names into one: p_icnt[i] + 1 and 1 sum to p_icnt[i] + 2.
func (sp splitter) sumCounts(a, b lang.Expr) lang.Expr {
	ta, la := sp.affinePart(a)
	tb, lb := sp.affinePart(b)
	var out lang.Expr
	for _, t := range append(ta, tb...) {
		if out == nil {
			out = lang.CloneExpr(t)
		} else {
			out = &lang.Bin{Op: lang.BinAdd, L: out, R: lang.CloneExpr(t)}
		}
	}
	lin := la.Add(lb)
	switch {
	case out == nil:
		return pdg.LinToExpr(lin)
	case lin.IsConst() && lin.Const() < 0:
		return &lang.Bin{Op: lang.BinSub, L: out, R: intLit(-lin.Const())}
	case lin.IsConst() && lin.Const() == 0:
		return out
	}
	return &lang.Bin{Op: lang.BinAdd, L: out, R: pdg.LinToExpr(lin)}
}

// affinePart splits a count into the terms it adds that are not affine over
// fixed names and the affine rest.
func (sp splitter) affinePart(e lang.Expr) ([]lang.Expr, poly.LinExpr) {
	if lin, ok := pdg.ExprToLin(e, sp.fixed); ok {
		return nil, lin
	}
	if b, ok := e.(*lang.Bin); ok && (b.Op == lang.BinAdd || b.Op == lang.BinSub) {
		tl, ll := sp.affinePart(b.L)
		if b.Op == lang.BinAdd {
			tr, lr := sp.affinePart(b.R)
			return append(tl, tr...), ll.Add(lr)
		}
		if lr, ok := pdg.ExprToLin(b.R, sp.fixed); ok {
			return tl, ll.Sub(lr)
		}
	}
	return []lang.Expr{e}, poly.L(0)
}
