// Package pdg extracts the polyhedral model of a lang program: per-statement
// iteration domains, affine read/write access relations, and 2d+1 schedules
// built from AST edge numbering exactly as in Section 3.1 (Figure 3) of the
// paper. A while loop is read as the affine loop "for w = 0 to W - 1", with
// a fresh iterator w and a fresh symbolic trip count W (see WhileLoop), so
// its body is analyzed like any other loop body; a use count that comes out
// free of w and W holds whatever the loop's real trip count. Statements or
// accesses that fall outside the affine fragment (data-dependent
// subscripts, non-affine conditionals or loop bounds) are retained but
// flagged, so the instrumenter can route them to the dynamic
// (inspector/counter) scheme of Section 4.
package pdg

import (
	"fmt"

	"defuse/internal/lang"
	"defuse/internal/poly"
)

// Access describes one array or scalar reference of a statement.
type Access struct {
	Ref     *lang.Ref
	Array   string
	IsWrite bool
	// Affine reports whether every subscript is affine in the statement's
	// iterators and the program parameters.
	Affine bool
	// Rel maps statement iterations to the referenced element (valid only
	// when Affine). Scalars are 0-dimensional arrays.
	Rel poly.BasicMap
	// Index holds the affine subscript expressions (valid only when Affine).
	Index []poly.LinExpr
}

// SchedTerm is one component of a 2d+1 schedule vector: either a loop
// iterator or an AST position constant.
type SchedTerm struct {
	IsIter bool
	Iter   string
	Const  int64
}

// String renders the term.
func (t SchedTerm) String() string {
	if t.IsIter {
		return t.Iter
	}
	return fmt.Sprintf("%d", t.Const)
}

// Statement is one assignment in the polyhedral model.
type Statement struct {
	// ID is the statement's label if present, else a generated "S<k>".
	ID   string
	Node *lang.Assign
	// Iters are the surrounding affine loop iterators, outermost first.
	Iters []string
	// Domain is the iteration space (empty constraints for a statement at
	// top level). Valid only when ControlAffine.
	Domain poly.BasicSet
	// Schedule is the 2d+1 schedule vector (d = model max loop depth).
	Schedule []SchedTerm
	// ControlAffine reports whether every surrounding control construct is
	// an affine for loop or a while loop (no data-dependent if, no loop
	// bound that reads memory).
	ControlAffine bool
	// Whiles are the enclosing while loops, outermost first; their
	// iterators are among Iters.
	Whiles []*WhileLoop
	Write  Access
	Reads  []Access
}

// WhileLoop is a while loop read as "for Iter = 0 to Trips - 1". Iter and
// Trips contain '#', so they never collide with a program identifier, and
// no subscript or loop bound of the program can name them: a count that
// mentions either one depends on which iteration, or how many, the loop
// runs.
type WhileLoop struct {
	Iter, Trips string
}

// FullyAffine reports whether the statement's control and every access are
// affine — the fragment Algorithm 1 handles entirely at compile time.
func (s *Statement) FullyAffine() bool {
	if !s.ControlAffine || !s.Write.Affine {
		return false
	}
	for _, r := range s.Reads {
		if !r.Affine {
			return false
		}
	}
	return true
}

// Model is the polyhedral view of a program (or program region).
type Model struct {
	Prog  *lang.Program
	Stmts []*Statement
	// Depth is the maximum loop nest depth d; schedules have 2d+1 entries.
	Depth int
	// Whiles lists the model's while loops in program order.
	Whiles []*WhileLoop
}

// WhileSymbol reports whether name is a while loop's iterator or trip
// count.
func (m *Model) WhileSymbol(name string) bool {
	for _, w := range m.Whiles {
		if name == w.Iter || name == w.Trips {
			return true
		}
	}
	return false
}

// Statement returns the statement with the given ID, or nil.
func (m *Model) Statement(id string) *Statement {
	for _, s := range m.Stmts {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// FullyAffine reports whether every statement of the model is fully affine.
func (m *Model) FullyAffine() bool {
	for _, s := range m.Stmts {
		if !s.FullyAffine() {
			return false
		}
	}
	return true
}

// Extract builds the polyhedral model of the whole program body.
func Extract(prog *lang.Program) (*Model, error) {
	return ExtractRegion(prog, prog.Body)
}

// ExtractRegion builds the model of a statement list within prog. Section
// 4.2's iterative-code analysis uses this to analyze a while-loop body as an
// affine region of its own.
func ExtractRegion(prog *lang.Program, body []lang.Stmt) (*Model, error) {
	if err := lang.Check(prog); err != nil {
		return nil, err
	}
	x := &extractor{prog: prog, model: &Model{Prog: prog}, used: map[string]bool{}}
	// Reserve user labels up front so generated IDs never collide with them.
	lang.WalkStmts(body, func(s lang.Stmt) bool {
		if a, ok := s.(*lang.Assign); ok && a.Label != "" {
			if x.used[a.Label] {
				x.dupLabel = a.Label
			}
			x.used[a.Label] = true
		}
		return true
	})
	if x.dupLabel != "" {
		return nil, fmt.Errorf("pdg: duplicate statement label %q", x.dupLabel)
	}
	x.walk(body, nil, nil, true)
	// Pad schedules to uniform 2d+1 length.
	d := x.model.Depth
	for _, s := range x.model.Stmts {
		for len(s.Schedule) < 2*d+1 {
			s.Schedule = append(s.Schedule, SchedTerm{Const: 0})
		}
	}
	return x.model, nil
}

type loopCtx struct {
	iter   string
	lo, hi poly.LinExpr
	affine bool
	while  *WhileLoop // the while loop this context reads as a for loop
}

type extractor struct {
	prog     *lang.Program
	model    *Model
	stmtSeq  int
	used     map[string]bool
	dupLabel string
}

// walk numbers statements at this level 0,1,2,... (AST edge numbering) and
// recurses into loop bodies, building schedule prefixes.
func (x *extractor) walk(body []lang.Stmt, loops []loopCtx, prefix []SchedTerm, affineCtl bool) {
	for pos, s := range body {
		here := append(append([]SchedTerm(nil), prefix...), SchedTerm{Const: int64(pos)})
		switch st := s.(type) {
		case *lang.Assign:
			x.addStatement(st, loops, here, affineCtl)
		case *lang.For:
			lo, loOK := x.toLin(st.Lo, loops)
			hi, hiOK := x.toLin(st.Hi, loops)
			x.loop(st.Body, loops, here, affineCtl, loopCtx{iter: st.Iter, lo: lo, hi: hi, affine: loOK && hiOK})
		case *lang.While:
			k := len(x.model.Whiles)
			wl := &WhileLoop{Iter: fmt.Sprintf("while%d#w", k), Trips: fmt.Sprintf("while%d#W", k)}
			x.model.Whiles = append(x.model.Whiles, wl)
			trips := poly.V(wl.Trips).AddConst(-1)
			x.loop(st.Body, loops, here, affineCtl, loopCtx{iter: wl.Iter, lo: poly.L(0), hi: trips, affine: true, while: wl})
		case *lang.If:
			np := append(here, SchedTerm{Const: 0})
			x.walk(st.Then, loops, np, false)
			np2 := append(here, SchedTerm{Const: 1})
			x.walk(st.Else, loops, np2, false)
		case *lang.AddToChecksum, *lang.AssertChecksums:
			// Instrumentation statements are not modeled.
		}
	}
}

// loop walks the body of the loop lc at schedule prefix here.
func (x *extractor) loop(body []lang.Stmt, loops []loopCtx, here []SchedTerm, affineCtl bool, lc loopCtx) {
	nl := append(append([]loopCtx(nil), loops...), lc)
	if len(nl) > x.model.Depth {
		x.model.Depth = len(nl)
	}
	np := append(here, SchedTerm{IsIter: true, Iter: lc.iter})
	x.walk(body, nl, np, affineCtl && lc.affine)
}

func (x *extractor) addStatement(a *lang.Assign, loops []loopCtx, sched []SchedTerm, affineCtl bool) {
	id := a.Label
	if id == "" {
		for {
			x.stmtSeq++
			id = fmt.Sprintf("S%d", x.stmtSeq)
			if !x.used[id] {
				break
			}
		}
		x.used[id] = true
	}
	st := &Statement{ID: id, Node: a, ControlAffine: affineCtl, Schedule: sched}
	for _, lc := range loops {
		st.Iters = append(st.Iters, lc.iter)
		if lc.while != nil {
			st.Whiles = append(st.Whiles, lc.while)
		}
	}
	st.Domain = poly.NewBasicSet(id, st.Iters...)
	if affineCtl {
		for _, lc := range loops {
			iv := poly.V(lc.iter)
			st.Domain = st.Domain.With(poly.Ge(iv, lc.lo), poly.Le(iv, lc.hi))
		}
	}
	st.Write = x.access(st, a.LHS, true, loops)
	// Compound assignment reads its own left-hand side.
	if a.Op != lang.OpSet {
		st.Reads = append(st.Reads, x.access(st, a.LHS, false, loops))
	}
	for _, r := range dataReads(a.RHS, x.prog, loops) {
		st.Reads = append(st.Reads, x.access(st, r, false, loops))
	}
	// Subscript reads (e.g. cols[j1] inside p_new[cols[j1]]) are data reads
	// too: collect refs appearing inside subscripts of other refs.
	for _, r := range subscriptReads(a, x.prog, loops) {
		st.Reads = append(st.Reads, x.access(st, r, false, loops))
	}
	x.model.Stmts = append(x.model.Stmts, st)
}

// dataReads returns the top-level variable reads of an expression: every Ref
// denoting a declared variable (not iterators/parameters), excluding refs
// that appear inside another ref's subscript (those are returned by
// subscriptReads so they are counted exactly once).
func dataReads(e lang.Expr, prog *lang.Program, loops []loopCtx) []*lang.Ref {
	var out []*lang.Ref
	var visit func(lang.Expr)
	visit = func(e lang.Expr) {
		switch v := e.(type) {
		case *lang.Ref:
			if prog.Decl(v.Name) != nil {
				out = append(out, v)
			}
			// Do not descend into subscripts here.
		case *lang.Bin:
			visit(v.L)
			visit(v.R)
		case *lang.Un:
			visit(v.X)
		case *lang.Call:
			for _, a := range v.Args {
				visit(a)
			}
		}
	}
	visit(e)
	return out
}

// subscriptReads returns variable refs appearing inside subscripts anywhere
// in the statement (LHS and RHS).
func subscriptReads(a *lang.Assign, prog *lang.Program, loops []loopCtx) []*lang.Ref {
	var out []*lang.Ref
	var inSubs func(r *lang.Ref)
	inSubs = func(r *lang.Ref) {
		for _, ix := range r.Indices {
			lang.WalkExpr(ix, func(e lang.Expr) bool {
				if sub, ok := e.(*lang.Ref); ok {
					if prog.Decl(sub.Name) != nil {
						out = append(out, sub)
					}
					inSubs(sub)
					return false // children handled by recursion
				}
				return true
			})
		}
	}
	inSubs(a.LHS)
	lang.WalkExpr(a.RHS, func(e lang.Expr) bool {
		if r, ok := e.(*lang.Ref); ok {
			inSubs(r)
		}
		return true
	})
	return out
}

func (x *extractor) access(st *Statement, ref *lang.Ref, isWrite bool, loops []loopCtx) Access {
	acc := Access{Ref: ref, Array: ref.Name, IsWrite: isWrite}
	if !st.ControlAffine {
		return acc
	}
	outDims := make([]string, len(ref.Indices))
	for k := range outDims {
		outDims[k] = fmt.Sprintf("%s_a%d", ref.Name, k)
	}
	rel := poly.NewBasicMap(st.ID, st.Iters, ref.Name, outDims)
	// Domain constraints are part of the access relation.
	rel = rel.With(st.Domain.Cons...)
	var index []poly.LinExpr
	for k, ixExpr := range ref.Indices {
		lin, ok := x.toLin(ixExpr, loops)
		if !ok {
			return acc // non-affine subscript
		}
		rel = rel.With(poly.Eq(poly.V(outDims[k]), lin))
		index = append(index, lin)
	}
	acc.Affine = true
	acc.Rel = rel
	acc.Index = index
	return acc
}

// toLin converts an expression to an affine LinExpr over the surrounding
// iterators and program parameters.
func (x *extractor) toLin(e lang.Expr, loops []loopCtx) (poly.LinExpr, bool) {
	isVar := func(name string) bool {
		if x.prog.IsParam(name) {
			return true
		}
		for _, lc := range loops {
			if lc.iter == name {
				return true
			}
		}
		return false
	}
	return ExprToLin(e, isVar)
}

// ExprToLin converts an affine lang expression into a poly.LinExpr, treating
// names accepted by isVar as symbolic variables. The second result is false
// when the expression is not affine.
func ExprToLin(e lang.Expr, isVar func(string) bool) (poly.LinExpr, bool) {
	switch v := e.(type) {
	case *lang.IntLit:
		return poly.L(v.Val), true
	case *lang.Ref:
		if len(v.Indices) == 0 && isVar(v.Name) {
			return poly.V(v.Name), true
		}
		return poly.LinExpr{}, false
	case *lang.Un:
		if v.Op != lang.UnNeg {
			return poly.LinExpr{}, false
		}
		inner, ok := ExprToLin(v.X, isVar)
		if !ok {
			return poly.LinExpr{}, false
		}
		return inner.Neg(), true
	case *lang.Bin:
		l, lok := ExprToLin(v.L, isVar)
		r, rok := ExprToLin(v.R, isVar)
		if !lok || !rok {
			return poly.LinExpr{}, false
		}
		switch v.Op {
		case lang.BinAdd:
			return l.Add(r), true
		case lang.BinSub:
			return l.Sub(r), true
		case lang.BinMul:
			if l.IsConst() {
				return r.Scale(l.Const()), true
			}
			if r.IsConst() {
				return l.Scale(r.Const()), true
			}
		}
		return poly.LinExpr{}, false
	}
	return poly.LinExpr{}, false
}

// LinToExpr converts a poly.LinExpr back into a lang expression (used when
// generating instrumentation code from analysis results).
func LinToExpr(e poly.LinExpr) lang.Expr {
	var out lang.Expr
	add := func(term lang.Expr, negative bool) {
		if out == nil {
			if negative {
				out = &lang.Un{Op: lang.UnNeg, X: term}
			} else {
				out = term
			}
			return
		}
		op := lang.BinAdd
		if negative {
			op = lang.BinSub
		}
		out = &lang.Bin{Op: op, L: out, R: term}
	}
	for _, v := range e.Vars() {
		c := e.Coeff(v)
		neg := c < 0
		if neg {
			c = -c
		}
		var term lang.Expr = &lang.Ref{Name: v}
		if c != 1 {
			term = &lang.Bin{Op: lang.BinMul, L: &lang.IntLit{Val: c}, R: term}
		}
		add(term, neg)
	}
	if k := e.Const(); k != 0 || out == nil {
		neg := k < 0
		if neg {
			k = -k
		}
		add(&lang.IntLit{Val: k}, neg)
	}
	return out
}

func termLin(t SchedTerm, ren map[string]string) poly.LinExpr {
	if t.IsIter {
		name := t.Iter
		if ren != nil {
			if nn, ok := ren[name]; ok {
				name = nn
			}
		}
		return poly.V(name)
	}
	return poly.L(t.Const)
}

// SchedLTBranches returns the constraint branches encoding
// theta_a(i) <lex theta_b(j), with a's iterators renamed through aRen and
// b's through bRen (nil maps keep names). Branch k states equality of the
// first k schedule positions and strict order at position k; infeasible
// constant branches are dropped.
func SchedLTBranches(a, b *Statement, aRen, bRen map[string]string) [][]poly.Constraint {
	n := len(a.Schedule)
	if len(b.Schedule) < n {
		n = len(b.Schedule)
	}
	var branches [][]poly.Constraint
	for k := 0; k < n; k++ {
		var cons []poly.Constraint
		feasible := true
		for p := 0; p < k; p++ {
			ta, tb := a.Schedule[p], b.Schedule[p]
			if !ta.IsIter && !tb.IsIter {
				if ta.Const != tb.Const {
					feasible = false
					break
				}
				continue
			}
			cons = append(cons, poly.Eq(termLin(ta, aRen), termLin(tb, bRen)))
		}
		if !feasible {
			continue
		}
		ta, tb := a.Schedule[k], b.Schedule[k]
		if !ta.IsIter && !tb.IsIter {
			if ta.Const < tb.Const {
				// Strict constant order: no position-k constraint needed,
				// and later branches would contradict this one, so stop.
				branches = append(branches, cons)
				break
			}
			continue
		}
		branches = append(branches, append(cons, poly.Lt(termLin(ta, aRen), termLin(tb, bRen))))
	}
	return branches
}

// RenameSuffix builds the renaming map appending suffix to each iterator.
func RenameSuffix(iters []string, suffix string) map[string]string {
	m := make(map[string]string, len(iters))
	for _, it := range iters {
		m[it] = it + suffix
	}
	return m
}

// Precedes builds the lexicographic schedule-precedence relation between two
// statements: { a_iters -> b_iters : theta_a(i) < theta_b(j) } as a union of
// basic maps (one per first-differing schedule position). Output dims of b
// are renamed with the given suffix to avoid collisions with a's iterators.
func Precedes(a, b *Statement, suffix string) poly.Map {
	bRen := RenameSuffix(b.Iters, suffix)
	bIters := make([]string, len(b.Iters))
	for i, it := range b.Iters {
		bIters[i] = bRen[it]
	}
	var pieces []poly.BasicMap
	for _, branch := range SchedLTBranches(a, b, nil, bRen) {
		bm := poly.NewBasicMap(a.ID, a.Iters, b.ID, bIters).With(branch...)
		pieces = append(pieces, bm)
	}
	return poly.UnionMap(pieces...)
}
