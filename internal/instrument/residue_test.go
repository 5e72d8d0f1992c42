package instrument_test

import (
	"fmt"
	"maps"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"defuse/internal/bench"
	"defuse/internal/instrument"
	"defuse/internal/interp"
	"defuse/internal/lang"
	"defuse/internal/pdg"
	"defuse/internal/poly"
	"defuse/internal/progen"
)

// residueOptions are the instrumentation option sets the codegen
// differential harness runs.
var residueOptions = []instrument.Options{{}, {Split: true}, {Split: true, Inspector: true}}

// residueChecker walks an instrumented program with the enclosing domain of
// every statement: the affine bounds of the enclosing loops (each min/max
// argument a conjunct of its own) plus the affine guards already taken. A
// name is affine when it is a parameter or a loop iterator, never a declared
// variable. Only exact emptiness counts, so an approximate answer never
// fails the check. Under Split it also holds the output to emitting each
// checksum operation once: no equality guard left on an enclosing loop's
// iterator (it splits into a point), no two folds of one value into one
// checksum under one guard in a statement list, no memory cell loaded
// twice by one instrumented statement, and no use-counter cell left in
// memory across an inner loop that could keep it in a register.
type residueChecker struct {
	prog     *lang.Program
	src      *lang.Program // the program before instrumentation
	split    bool
	findings []string
}

func exactlyEmpty(cons []poly.Constraint) bool {
	empty, exact := poly.BasicSet{Cons: cons}.IsEmpty()
	return empty && exact
}

func (rc *residueChecker) lin(e lang.Expr) (poly.LinExpr, bool) {
	return pdg.ExprToLin(e, func(name string) bool { return rc.prog.Decl(name) == nil })
}

// boundArgs splits a loop bound into the arguments of its outer min (upper
// bound) or max (lower bound) calls.
func boundArgs(kind string, e lang.Expr) []lang.Expr {
	if c, ok := e.(*lang.Call); ok && c.Name == kind && len(c.Args) == 2 {
		return append(boundArgs(kind, c.Args[0]), boundArgs(kind, c.Args[1])...)
	}
	return []lang.Expr{e}
}

// guard parses an affine conjunction of comparisons; ok is false for any
// other condition.
func (rc *residueChecker) guard(e lang.Expr) ([]poly.Constraint, bool) {
	b, isBin := e.(*lang.Bin)
	if !isBin {
		return nil, false
	}
	if b.Op == lang.BinAnd {
		l, lok := rc.guard(b.L)
		r, rok := rc.guard(b.R)
		return append(l, r...), lok && rok
	}
	l, lok := rc.lin(b.L)
	r, rok := rc.lin(b.R)
	if !lok || !rok {
		return nil, false
	}
	switch b.Op {
	case lang.BinGe:
		return []poly.Constraint{poly.Ge(l, r)}, true
	case lang.BinGt:
		return []poly.Constraint{poly.Gt(l, r)}, true
	case lang.BinLe:
		return []poly.Constraint{poly.Le(l, r)}, true
	case lang.BinLt:
		return []poly.Constraint{poly.Lt(l, r)}, true
	case lang.BinEq:
		return []poly.Constraint{poly.Eq(l, r)}, true
	}
	return nil, false
}

func (rc *residueChecker) report(path []string, format string, args ...any) {
	rc.findings = append(rc.findings, fmt.Sprintf(format, args...)+" in "+strings.Join(path, " / "))
}

func (rc *residueChecker) walk(ss []lang.Stmt, dom []poly.Constraint, iters, path []string) {
	if rc.split {
		rc.repeatedFolds(ss, path)
	}
	for _, s := range ss {
		switch x := s.(type) {
		case *lang.For:
			head := fmt.Sprintf("for %s = %s to %s", x.Iter, lang.ExprString(x.Lo), lang.ExprString(x.Hi))
			inner := append([]poly.Constraint(nil), dom...)
			iv := poly.V(x.Iter)
			for _, lo := range boundArgs("max", x.Lo) {
				if l, ok := rc.lin(lo); ok {
					inner = append(inner, poly.Ge(iv, l))
				}
			}
			for _, hi := range boundArgs("min", x.Hi) {
				if h, ok := rc.lin(hi); ok {
					inner = append(inner, poly.Le(iv, h))
				}
			}
			if exactlyEmpty(inner) {
				rc.report(path, "loop `%s` never runs", head)
				continue
			}
			rc.walk(x.Body, inner, append(iters[:len(iters):len(iters)], x.Iter), append(path[:len(path):len(path)], head))
		case *lang.While:
			rc.walk(x.Body, dom, iters, path)
		case *lang.If:
			cons, affine := rc.guard(x.Cond)
			if !affine || len(x.Else) != 0 {
				rc.walk(x.Then, dom, iters, path)
				rc.walk(x.Else, dom, iters, path)
				continue
			}
			cond := lang.ExprString(x.Cond)
			inner := append(append([]poly.Constraint(nil), dom...), cons...)
			if exactlyEmpty(inner) {
				rc.report(path, "guard `if (%s)` is never true", cond)
				continue
			}
			for _, c := range cons {
				implied := true
				for _, neg := range c.Negate() {
					if !exactlyEmpty(append(append([]poly.Constraint(nil), dom...), neg)) {
						implied = false
						break
					}
				}
				if implied {
					rc.report(path, "conjunct %s of guard `if (%s)` is implied by its loop nest", c, cond)
				}
				for _, it := range iters {
					if !rc.split || !c.Equality {
						break
					}
					if a := c.E.Coeff(it); a == 1 || a == -1 {
						rc.report(path, "equality %s of guard `if (%s)` was not split on %s", c, cond, it)
					}
				}
			}
			rc.walk(x.Then, inner, iters, append(path[:len(path):len(path)], "if ("+cond+")"))
		}
	}
}

// paramOnly reports whether e reads parameters and nothing else.
func (rc *residueChecker) paramOnly(e lang.Expr) bool {
	refs := lang.ExprRefs(e)
	for _, r := range refs {
		if !rc.prog.IsParam(r.Name) {
			return false
		}
	}
	return len(refs) > 0
}

// cell names the memory cell a reference to a declared variable addresses,
// with affine subscripts in normal form; ok is false for any other name.
func (rc *residueChecker) cell(r *lang.Ref) (string, bool) {
	if rc.prog.Decl(r.Name) == nil {
		return "", false
	}
	key := r.Name
	for _, ix := range r.Indices {
		if lin, ok := rc.lin(ix); ok {
			key += "[" + lin.String() + "]"
		} else {
			key += "[" + lang.ExprString(ix) + "]"
		}
	}
	return key, true
}

// repeatedFolds reports two folds of the same value into the same checksum
// under the same guard (or none) in one statement list. A fold of a memory
// cell is only the same as one no store separates it from.
func (rc *residueChecker) repeatedFolds(ss []lang.Stmt, path []string) {
	seen := map[string]bool{} // fold → it folds a memory cell, not a register
	check := func(guard string, f *lang.AddToChecksum) {
		k := fmt.Sprint(guard, "|", f.CS, "|", lang.ExprString(f.Value))
		if _, ok := seen[k]; ok {
			rc.report(path, "add_to_chksm(%s, %s, …) repeats under guard `%s`", f.CS, lang.ExprString(f.Value), guard)
		}
		r, isRef := f.Value.(*lang.Ref)
		seen[k] = !isRef || rc.prog.Decl(r.Name) != nil
	}
	for _, s := range ss {
		switch x := s.(type) {
		case *lang.AddToChecksum:
			check("", x)
		case *lang.If:
			for _, t := range x.Then {
				if f, ok := t.(*lang.AddToChecksum); ok && len(x.Else) == 0 {
					check(lang.ExprString(x.Cond), f)
				}
			}
		case *lang.Assign:
			for k, memory := range seen {
				if memory {
					delete(seen, k)
				}
			}
		}
	}
}

// loadScan finds memory cells one instrumented statement, or one prologue or
// epilogue body, loads twice. Code the instrumenter emits for a statement
// runs straight: the register loads of its reads, its folds and counter
// updates, its store, the folds of the stored value; its registers carry the
// statement's source line. The next statement starts at a register load from
// another line or after a store to a program variable. A store to an array
// forgets the cells loaded from it (another subscript may alias them) but
// remembers the cell it wrote, so reading that cell back is a second load.
// A guarded load repeats an unguarded one, or one under the same guard;
// loads under two guards that may both fail do not repeat each other. A
// loop starts afresh and ends the statement around it; guard conditions are
// not counted.
type loadScan struct {
	rc     *residueChecker
	path   []string
	seen   map[string]bool // cells loaded unguarded, or under this scan's guard
	cond   map[string]bool // cells loaded under a nested guard
	line   int
	stored bool
}

func newLoadScan(rc *residueChecker, path []string) *loadScan {
	return &loadScan{rc: rc, path: path, seen: map[string]bool{}, cond: map[string]bool{}}
}

func (ls *loadScan) reset(line int) {
	ls.seen, ls.cond, ls.line, ls.stored = map[string]bool{}, map[string]bool{}, line, false
}

func (ls *loadScan) list(ss []lang.Stmt) {
	for _, s := range ss {
		switch x := s.(type) {
		case *lang.Let:
			if ls.stored || x.Pos.Line != ls.line {
				ls.reset(x.Pos.Line)
			}
			ls.loads(x.Value)
		case *lang.AddToChecksum:
			ls.loads(x.Value, x.Count)
		case *lang.Assign:
			ls.loads(x.RHS)
			ls.loads(x.LHS.Indices...)
			ls.store(x.LHS)
		case *lang.If:
			for _, body := range [][]lang.Stmt{x.Then, x.Else} {
				in := &loadScan{rc: ls.rc, path: ls.path, seen: maps.Clone(ls.seen), cond: map[string]bool{}, line: ls.line}
				in.list(body)
				if in.stored || in.line != ls.line {
					ls.reset(in.line)
					break
				}
				for c := range in.seen {
					if !ls.seen[c] {
						ls.cond[c] = true
					}
				}
			}
		case *lang.For:
			head := fmt.Sprintf("for %s = %s to %s", x.Iter, lang.ExprString(x.Lo), lang.ExprString(x.Hi))
			newLoadScan(ls.rc, append(ls.path[:len(ls.path):len(ls.path)], head)).list(x.Body)
			ls.reset(ls.line)
		case *lang.While:
			newLoadScan(ls.rc, ls.path).list(x.Body)
			ls.reset(ls.line)
		}
	}
}

func (ls *loadScan) store(lhs *lang.Ref) {
	c, ok := ls.rc.cell(lhs)
	if !ok {
		return
	}
	for _, m := range []map[string]bool{ls.seen, ls.cond} {
		for k := range m {
			if k == lhs.Name || strings.HasPrefix(k, lhs.Name+"[") {
				delete(m, k)
			}
		}
	}
	ls.seen[c] = true
	ls.stored = ls.stored || ls.rc.src.Decl(lhs.Name) != nil
}

func (ls *loadScan) loads(es ...lang.Expr) {
	for _, e := range es {
		lang.WalkExpr(e, func(x lang.Expr) bool {
			if r, ok := x.(*lang.Ref); ok {
				if c, ok := ls.rc.cell(r); ok {
					if ls.seen[c] || ls.cond[c] {
						ls.rc.report(ls.path, "%s is loaded again", c)
					}
					ls.seen[c] = true
				}
			}
			return true
		})
	}
}

// reloads reports a counter register loaded from the cell the statement
// just before it set to an integer literal, directly or as the first
// statement of the guard that follows the store: the literal is the value.
func (rc *residueChecker) reloads(ss []lang.Stmt, path []string) {
	for k, s := range ss {
		switch x := s.(type) {
		case *lang.Assign:
			_, lit := x.RHS.(*lang.IntLit)
			if !lit || !rc.isCounter(x.LHS.Name) || k+1 == len(ss) {
				continue
			}
			next := ss[k+1]
			if g, ok := next.(*lang.If); ok && len(g.Then) > 0 {
				next = g.Then[0]
			}
			if l, ok := next.(*lang.Let); ok && lang.ExprString(l.Value) == lang.ExprString(x.LHS) {
				rc.report(path, "%s is loaded right after %s = %s", l.Name, lang.ExprString(x.LHS), lang.ExprString(x.RHS))
			}
		case *lang.For:
			rc.reloads(x.Body, append(path[:len(path):len(path)], fmt.Sprintf("for %s", x.Iter)))
		case *lang.While:
			rc.reloads(x.Body, path)
		case *lang.If:
			rc.reloads(x.Then, path)
			rc.reloads(x.Else, path)
		}
	}
}

// counterName matches the use-counter arrays the instrumenter declares for
// dynamic plans: <variable>_cnt, or with a number when that name was taken.
var counterName = regexp.MustCompile(`_cnt[0-9]*$`)

func (rc *residueChecker) isCounter(name string) bool {
	return counterName.MatchString(name) && rc.src.Decl(name) == nil && rc.prog.Decl(name) != nil
}

// runs reports whether dom implies that loop f runs at least once.
func (rc *residueChecker) runs(f *lang.For, dom []poly.Constraint) bool {
	for _, lo := range boundArgs("max", f.Lo) {
		for _, hi := range boundArgs("min", f.Hi) {
			l, lok := rc.lin(lo)
			h, hok := rc.lin(hi)
			if !lok || !hok {
				return false
			}
			for _, neg := range poly.Le(l, h).Negate() {
				if !exactlyEmpty(append(append([]poly.Constraint(nil), dom...), neg)) {
					return false
				}
			}
		}
	}
	return true
}

// enter returns dom with the affine bounds of loop f added.
func (rc *residueChecker) enter(dom []poly.Constraint, f *lang.For) []poly.Constraint {
	inner := append([]poly.Constraint(nil), dom...)
	for _, lo := range boundArgs("max", f.Lo) {
		if l, ok := rc.lin(lo); ok {
			inner = append(inner, poly.Ge(poly.V(f.Iter), l))
		}
	}
	for _, hi := range boundArgs("min", f.Hi) {
		if h, ok := rc.lin(hi); ok {
			inner = append(inner, poly.Le(poly.V(f.Iter), h))
		}
	}
	return inner
}

// counterUse is one reference to a use-counter array in a loop.
type counterUse struct {
	cell   string // "" when a subscript is not invariant in the loop
	scalar bool
	incr   bool // the target of "C[s] = C[s] + k;"
	every  bool // every iteration of the loop reaches it
}

// promotions reports, under Split, every use-counter cell the instrumenter
// leaves in memory across a for loop that could keep it in a register: the
// loop is nested in another loop, reads no memory in its bounds and holds
// no while loop, and either touches the counter array only at one cell
// whose subscript the loop does not change, or only increments the array,
// at least one cell with such a subscript. The cell must be a scalar or be
// reached on every iteration: from a statement of the loop's body, or of a
// nested loop that is reached and that the loop nest implies runs.
func (rc *residueChecker) promotions(ss []lang.Stmt, dom []poly.Constraint, inLoop bool, path []string) {
	for _, s := range ss {
		switch x := s.(type) {
		case *lang.For:
			head := fmt.Sprintf("for %s = %s to %s", x.Iter, lang.ExprString(x.Lo), lang.ExprString(x.Hi))
			inner := rc.enter(dom, x)
			if inLoop {
				rc.promotable(x, inner, append(path[:len(path):len(path)], head))
			}
			rc.promotions(x.Body, inner, true, append(path[:len(path):len(path)], head))
		case *lang.While:
			rc.promotions(x.Body, dom, true, path)
		case *lang.If:
			inner := dom
			if cons, affine := rc.guard(x.Cond); affine && len(x.Else) == 0 {
				inner = append(append([]poly.Constraint(nil), dom...), cons...)
			}
			rc.promotions(x.Then, inner, inLoop, path)
			rc.promotions(x.Else, dom, inLoop, path)
		}
	}
}

// promotable reports the counter cells loop f, whose body runs under dom,
// could keep in registers.
func (rc *residueChecker) promotable(f *lang.For, dom []poly.Constraint, path []string) {
	for _, e := range []lang.Expr{f.Lo, f.Hi} {
		for _, r := range lang.ExprRefs(e) {
			if rc.prog.Decl(r.Name) != nil {
				return
			}
		}
	}
	inside := map[string]bool{f.Iter: true}
	while := false
	lang.WalkStmts(f.Body, func(s lang.Stmt) bool {
		switch x := s.(type) {
		case *lang.For:
			inside[x.Iter] = true
		case *lang.Let:
			inside[x.Name] = true
		case *lang.Assign:
			if rc.prog.Decl(x.LHS.Name) == nil {
				inside[x.LHS.Name] = true
			}
		case *lang.While:
			while = true
		}
		return true
	})
	if while {
		return
	}
	uses := map[string][]counterUse{}
	var names []string
	use := func(r *lang.Ref, incr, every bool) {
		if !rc.isCounter(r.Name) {
			return
		}
		u := counterUse{scalar: len(r.Indices) == 0, incr: incr, every: every}
		if c, ok := rc.cell(r); ok {
			u.cell = c
		}
		for _, ix := range r.Indices {
			for _, x := range lang.ExprRefs(ix) {
				if inside[x.Name] || rc.prog.Decl(x.Name) != nil {
					u.cell = ""
				}
			}
		}
		if uses[r.Name] == nil {
			names = append(names, r.Name)
		}
		uses[r.Name] = append(uses[r.Name], u)
	}
	reads := func(every bool, es ...lang.Expr) {
		for _, e := range es {
			for _, r := range lang.ExprRefs(e) {
				use(r, false, every)
			}
		}
	}
	var scan func(ss []lang.Stmt, dom []poly.Constraint, every bool)
	scan = func(ss []lang.Stmt, dom []poly.Constraint, every bool) {
		for _, s := range ss {
			switch x := s.(type) {
			case *lang.Assign:
				incr := false
				if b, ok := x.RHS.(*lang.Bin); ok && x.Op == lang.OpSet && b.Op == lang.BinAdd &&
					lang.ExprString(b.L) == lang.ExprString(x.LHS) {
					_, incr = b.R.(*lang.IntLit)
				}
				use(x.LHS, incr, every)
				if !incr {
					reads(every, x.RHS)
				}
				reads(every, x.LHS.Indices...)
			case *lang.Let:
				reads(every, x.Value)
			case *lang.AddToChecksum:
				reads(every, x.Value, x.Count)
			case *lang.For:
				reads(every, x.Lo, x.Hi)
				scan(x.Body, rc.enter(dom, x), every && rc.runs(x, dom))
			case *lang.If:
				reads(false, x.Cond)
				scan(x.Then, nil, false)
				scan(x.Else, nil, false)
			}
		}
	}
	scan(f.Body, dom, true)
	for _, name := range names {
		us := uses[name]
		safe := map[string]bool{} // invariant cells loading before the loop cannot fail
		oneCell, onlyIncr := us[0].cell != "", true
		for _, u := range us {
			if u.cell != "" && (u.scalar || u.every) {
				safe[u.cell] = true
			}
			oneCell = oneCell && u.cell == us[0].cell
			onlyIncr = onlyIncr && u.incr
		}
		switch {
		case oneCell && safe[us[0].cell]:
			rc.report(path, "counter cell %s stays in memory across the loop (full promotion)", us[0].cell)
		case onlyIncr && len(safe) > 0:
			for c := range safe {
				rc.report(path, "increments of counter cell %s stay in memory across the loop (delta promotion)", c)
			}
		}
	}
}

// paramGuards reports every guard that reads only parameters inside a loop
// nest, where it would be tested on every iteration though its value never
// changes: a nest is a for loop outside every other for loop except the
// kernel loop, which is not a nest itself.
func (rc *residueChecker) paramGuards(ss []lang.Stmt, kernel *lang.For, nest bool, path []string) {
	for _, s := range ss {
		switch x := s.(type) {
		case *lang.For:
			head := fmt.Sprintf("for %s = %s to %s", x.Iter, lang.ExprString(x.Lo), lang.ExprString(x.Hi))
			rc.paramGuards(x.Body, nil, nest || x != kernel, append(path[:len(path):len(path)], head))
		case *lang.While:
			rc.paramGuards(x.Body, nil, nest, path)
		case *lang.If:
			if nest && rc.paramOnly(x.Cond) {
				rc.report(path, "guard `if (%s)` reads only parameters but is tested in a loop nest", lang.ExprString(x.Cond))
			}
			rc.paramGuards(x.Then, nil, nest, path)
			rc.paramGuards(x.Else, nil, nest, path)
		}
	}
}

// crossings reports every register assigned inside a top-level loop or a
// while loop but bound outside it: a counter kept in a register across
// such a loop would be out of memory at an epoch boundary.
func (rc *residueChecker) crossings(ss []lang.Stmt, top bool, path []string) {
	for _, s := range ss {
		var body []lang.Stmt
		switch x := s.(type) {
		case *lang.For:
			body = x.Body
			if !top {
				rc.crossings(x.Body, false, path)
				continue
			}
		case *lang.While:
			body = x.Body
		case *lang.If:
			rc.crossings(x.Then, top, path)
			rc.crossings(x.Else, top, path)
			continue
		default:
			continue
		}
		bound := map[string]bool{}
		lang.WalkStmts(body, func(s lang.Stmt) bool {
			if l, ok := s.(*lang.Let); ok {
				bound[l.Name] = true
			}
			return true
		})
		lang.WalkStmts(body, func(s lang.Stmt) bool {
			if a, ok := s.(*lang.Assign); ok && rc.prog.Decl(a.LHS.Name) == nil && !bound[a.LHS.Name] {
				rc.report(path, "register %s is assigned across a top-level or while loop", a.LHS.Name)
			}
			return true
		})
		rc.crossings(body, false, path)
	}
}

// residue lists every loop that never runs, guard that is never true,
// guard conjunct its loop nest already decides and register assigned across
// a top-level or while loop in an instrumented program, and under Split the
// repeated work the checker's other walks find.
func residue(t testing.TB, prog *lang.Program, opt instrument.Options) []string {
	t.Helper()
	res, err := instrument.Instrument(prog, opt)
	if err != nil {
		t.Fatalf("%s %+v: instrument: %v", prog.Name, opt, err)
	}
	rc := &residueChecker{prog: res.Prog, src: prog, split: opt.Split}
	path := []string{res.Prog.Name}
	rc.walk(res.Prog.Body, nil, nil, path)
	rc.crossings(res.Prog.Body, true, path)
	rc.reloads(res.Prog.Body, path)
	if opt.Split {
		newLoadScan(rc, path).list(res.Prog.Body)
		rc.promotions(res.Prog.Body, nil, false, path)
		_, kernel, _ := lang.KernelLoop(res.Prog.Body)
		rc.paramGuards(res.Prog.Body, kernel, false, path)
	}
	return rc.findings
}

func checkNoResidue(t *testing.T, name string, prog *lang.Program) {
	t.Helper()
	for _, opt := range residueOptions {
		findings := residue(t, prog, opt)
		for i, f := range findings {
			if i == 5 {
				t.Errorf("%s split=%v inspector=%v: %d more", name, opt.Split, opt.Inspector, len(findings)-i)
				break
			}
			t.Errorf("%s split=%v inspector=%v: %s", name, opt.Split, opt.Inspector, f)
		}
	}
}

func progenProgram(t testing.TB, seed int64, indirect, while bool) (*progen.Program, *lang.Program) {
	t.Helper()
	cfg := progen.DefaultConfig()
	cfg.WithIndirect = indirect
	cfg.WithWhile = while
	gp := progen.Generate(rand.New(rand.NewSource(seed)), cfg)
	prog, err := lang.Parse(gp.Source)
	if err != nil {
		t.Fatalf("seed %d: generated program does not parse: %v\n%s", seed, err, gp.Source)
	}
	return gp, prog
}

// runsClean runs prog, under every residue option set, at trips trips of
// its while loop on interp from seeded data, and fails on any error: a
// static use count that needs the trip count reports a false detection.
func runsClean(t *testing.T, name string, gp *progen.Program, prog *lang.Program, trips int64) {
	t.Helper()
	params := map[string]int64{"n": gp.N, "w": trips}
	for _, opt := range residueOptions {
		res, err := instrument.Instrument(prog, opt)
		if err != nil {
			t.Fatalf("%s %+v: instrument: %v", name, opt, err)
		}
		m, err := interp.New(res.Prog, params)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(trips))
		for _, a := range gp.FloatArrays {
			if err := m.FillFloat(a, func(int64) float64 { return rng.Float64()*8 - 4 }); err != nil {
				t.Fatal(err)
			}
		}
		for _, ia := range gp.IntArrays {
			if err := m.FillInt(ia, func(int64) int64 { return rng.Int63n(gp.N) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Run(); err != nil {
			t.Fatalf("%s %+v at %d trips: %v\n%s", name, opt, trips, err, gp.Source)
		}
	}
}

// promotionSrc reads a, a dynamic plan (it is written in a while loop), in
// a top-level loop, across which its counter must stay in memory, and in a
// nested loop, across which it must be kept in a register.
const promotionSrc = `
program promotion(n)
float x[n], a;
int it;
it = 0;
while (it < 2) {
  a = a + 1.0;
  it = it + 1;
}
for i = 0 to n - 1 {
  x[i] = x[i] + a;
}
for t = 0 to 1 {
  for j = 0 to n - 1 {
    x[j] = x[j] * a;
  }
}
`

// TestNoResidue holds the instrumenter to emitting only code that can run:
// no loop that is empty in its loop nest, no guard that is never true there
// and no guard conjunct the loop nest implies, for every Table 2 kernel and
// for generated programs, under every option set; and no register assigned
// across a top-level or while loop. Under Split it also rejects repeated
// checksum work: an equality guard on an enclosing loop's iterator, a fold
// repeated under one guard, a cell loaded twice by one statement, a counter
// cell an inner loop could keep in a register left in memory.
func TestNoResidue(t *testing.T) {
	for _, b := range bench.Suite() {
		checkNoResidue(t, b.Name, b.Program())
	}
	prog, err := lang.Parse(promotionSrc)
	if err != nil {
		t.Fatal(err)
	}
	checkNoResidue(t, prog.Name, prog)
	for seed := int64(0); seed < 64; seed++ {
		for _, indirect := range []bool{false, true} {
			_, prog := progenProgram(t, seed, indirect, false)
			checkNoResidue(t, fmt.Sprintf("progen seed %d indirect=%v", seed, indirect), prog)
		}
	}
	for seed := int64(0); seed < 16; seed++ {
		_, prog := progenProgram(t, seed, seed%3 == 2, true)
		checkNoResidue(t, fmt.Sprintf("progen seed %d while", seed), prog)
	}
}

// FuzzNoResidue is the continuous form over generated programs. A negative
// trips generates a program without a while loop. Otherwise the program has
// a top-level while loop, and each instrumented form must also run clean at
// trips mod 8 trips.
func FuzzNoResidue(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, false, int64(-1))
		f.Add(seed, true, int64(-1))
	}
	for seed := int64(0); seed < 4; seed++ {
		for _, trips := range []int64{0, 1, 3} {
			f.Add(seed, seed%2 == 1, trips)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, indirect bool, trips int64) {
		name := fmt.Sprintf("progen seed %d indirect=%v", seed, indirect)
		if trips < 0 {
			_, prog := progenProgram(t, seed, indirect, false)
			checkNoResidue(t, name, prog)
			return
		}
		gp, prog := progenProgram(t, seed, indirect, true)
		checkNoResidue(t, name+" while", prog)
		runsClean(t, name+" while", gp, prog, trips%8)
	})
}
