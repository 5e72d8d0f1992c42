package instrument

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"defuse/internal/deps"
	"defuse/internal/lang"
	"defuse/internal/pdg"
	"defuse/internal/poly"
	"defuse/internal/usecount"
	"defuse/telemetry"
)

// Options selects the optimizations of Sections 3.3 and 4.2.
type Options struct {
	// Split applies index-set splitting (Algorithm 2), replacing per-
	// iteration use-count guards with split loops.
	Split bool
	// Inspector hoists inspectors for iterative (while) loops whose
	// irregular index structures are loop-invariant (Section 4.2).
	Inspector bool
	// Tracer, when non-nil, records one "instrument" span per call with a
	// child span per pipeline phase and plan.chosen, split.applied and
	// inspector.hoisted point spans.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, receives phase-timing histograms and
	// plan-decision counters.
	Metrics *telemetry.Registry
}

// Plan names the protection scheme chosen for a variable.
type Plan string

// The possible per-variable plans.
const (
	PlanStatic    Plan = "static"    // compile-time use counts (Algorithm 1)
	PlanDynamic   Plan = "dynamic"   // shadow counters + e-checksums (Section 4.1)
	PlanInspector Plan = "inspector" // inspector-counted iterative array (Section 4.2)
	PlanInvariant Plan = "invariant" // read-only array under an inspector loop
	PlanControl   Plan = "control"   // control variable: protected by other means (Section 2.2)
)

// PhaseTiming records the wall time of one pipeline phase.
type PhaseTiming struct {
	Phase    string
	Duration time.Duration
}

// Report summarizes instrumentation decisions.
type Report struct {
	Plans             map[string]Plan
	InspectorsHoisted int
	SplitApplied      bool
	// Phases lists per-phase wall times in execution order (the parse
	// phase is prepended by defuse.Compile).
	Phases []PhaseTiming
	// SplitSegments counts the extra loops index-set splitting emits: loops
	// after splitting, where a loop that cannot run is not emitted, minus
	// loops before.
	SplitSegments int
	// ChecksumStmts counts the add_to_chksm statements inserted.
	ChecksumStmts int
	// PromotedFull and PromotedDelta count the use-counter cells kept in an
	// int register across a loop: loaded before it and stored after it
	// (full), or summed from zero and added to the cell after it (delta).
	PromotedFull, PromotedDelta int
}

// PlanCounts tallies variables per protection plan, for summary reporting.
func (r Report) PlanCounts() map[Plan]int {
	out := map[Plan]int{}
	for _, p := range r.Plans {
		out[p]++
	}
	return out
}

// Result is an instrumented program plus its report.
type Result struct {
	Prog   *lang.Program
	Report Report
}

// CloneProgram deep-copies a program.
func CloneProgram(p *lang.Program) *lang.Program {
	np := &lang.Program{Name: p.Name, Params: append([]string(nil), p.Params...)}
	for _, d := range p.Decls {
		nd := &lang.VarDecl{Pos: d.Pos, Name: d.Name, Type: d.Type}
		for _, dim := range d.Dims {
			nd.Dims = append(nd.Dims, lang.CloneExpr(dim))
		}
		np.Decls = append(np.Decls, nd)
	}
	np.Body = lang.CloneStmts(p.Body)
	return np
}

// Instrument inserts error-detection checksums into a copy of prog.
func Instrument(src *lang.Program, opt Options) (*Result, error) {
	prog := CloneProgram(src)
	rep := Report{}
	span := opt.Tracer.Start(telemetry.SpanContext{}, "instrument", telemetry.String("program", src.Name))
	defer span.End()
	phase := func(name string, f func()) {
		d := telemetry.TimePhase(opt.Tracer, span.Context(), opt.Metrics, "instrument", name, f)
		rep.Phases = append(rep.Phases, PhaseTiming{Phase: name, Duration: d})
	}

	var model *pdg.Model
	var err error
	phase("pdg.extract", func() { model, err = pdg.Extract(prog) })
	if err != nil {
		return nil, err
	}
	var flow *deps.Flow
	phase("dependence.analysis", func() { flow = deps.Analyze(model) })
	var uc *usecount.Analysis
	phase("polyhedral.counting", func() { uc = usecount.Analyze(flow) })

	ins := &instrumenter{
		prog:  prog,
		opt:   opt,
		model: model,
		uc:    uc,
		names: newNames(prog),
		stmts: map[*lang.Assign]*pdg.Statement{},
		plans: map[string]Plan{},
		cnts:  map[string]string{},
		insp:  map[*lang.While]*inspectorPlan{},
	}
	for _, s := range model.Stmts {
		ins.stmts[s.Node] = s
	}
	phase("classify", func() { ins.classify() })
	if opt.Inspector {
		phase("inspector.hoisting", func() { ins.detectInspectors() })
	}
	phase("rewrite", func() {
		ins.buildDynamicBoilerplate()
		body := ins.rewrite(prog.Body)
		var full []lang.Stmt
		full = append(full, ins.prologue...)
		full = append(full, body...)
		full = append(full, ins.epilogue...)
		full = append(full, &lang.AssertChecksums{})
		prog.Body = full
		prog.Decls = append(prog.Decls, ins.newDecls...)
	})

	rep.Plans = ins.plans
	rep.InspectorsHoisted = len(ins.insp)
	if opt.Split {
		before := countLoops(prog.Body)
		phase("index-set.splitting", func() { prog.Body = SplitLoops(prog) })
		rep.SplitApplied = true
		rep.SplitSegments = countLoops(prog.Body) - before
	}
	phase("register.promotion", func() {
		prog.Body = ins.promoteCounters(prog, &rep)
		prog.Body = hoistParamGuards(prog, newNames(prog))
	})
	phase("check", func() {
		if cerr := lang.Check(prog); cerr != nil {
			err = fmt.Errorf("instrument: generated program fails checks: %w", cerr)
		}
	})
	if err != nil {
		return nil, err
	}
	rep.ChecksumStmts = countChecksumStmts(prog.Body)
	rep.emitDecisions(opt, span.Context())
	return &Result{Prog: prog, Report: rep}, nil
}

// countLoops counts for loops in a statement tree.
func countLoops(ss []lang.Stmt) int {
	n := 0
	lang.WalkStmts(ss, func(s lang.Stmt) bool {
		if _, ok := s.(*lang.For); ok {
			n++
		}
		return true
	})
	return n
}

// countChecksumStmts counts add_to_chksm statements in a statement tree.
func countChecksumStmts(ss []lang.Stmt) int {
	n := 0
	lang.WalkStmts(ss, func(s lang.Stmt) bool {
		if _, ok := s.(*lang.AddToChecksum); ok {
			n++
		}
		return true
	})
	return n
}

// emitDecisions records the final instrumentation decisions as point spans
// under parent and as counters (a no-op when telemetry is disabled).
func (r Report) emitDecisions(opt Options, parent telemetry.SpanContext) {
	tr := opt.Tracer
	for _, name := range r.sortedPlanNames() {
		plan := r.Plans[name]
		if tr.Enabled() {
			tr.Mark(parent, telemetry.EvPlanChosen,
				telemetry.String("variable", name), telemetry.String("plan", string(plan)))
		}
		opt.Metrics.Counter("defuse_plans_total",
			telemetry.Label{Key: "plan", Value: string(plan)}).Inc()
	}
	if r.SplitApplied {
		tr.Mark(parent, telemetry.EvSplitApplied, telemetry.Int("segments", r.SplitSegments))
	}
	if r.InspectorsHoisted > 0 {
		tr.Mark(parent, telemetry.EvInspectorHoisted, telemetry.Int("loops", r.InspectorsHoisted))
		opt.Metrics.Counter("defuse_inspectors_hoisted_total").Add(uint64(r.InspectorsHoisted))
	}
	opt.Metrics.Counter("defuse_checksum_stmts_total").Add(uint64(r.ChecksumStmts))
}

type instrumenter struct {
	prog  *lang.Program
	opt   Options
	model *pdg.Model
	uc    *usecount.Analysis
	names *names
	stmts map[*lang.Assign]*pdg.Statement
	plans map[string]Plan
	cnts  map[string]string // dynamic var -> counter variable name
	insp  map[*lang.While]*inspectorPlan

	newDecls []*lang.VarDecl
	prologue []lang.Stmt
	epilogue []lang.Stmt
}

// classify assigns every declared variable a plan: control variables are
// excluded (fault model Section 2.2); statically analyzable variables use
// Algorithm 1 unless one of their flow dependences is inexact (a use count
// built on an approximate relation would miscount) or one of their counts
// needs a while loop's trip count (see tripBound); the rest use the dynamic
// scheme. Inspector detection may upgrade dynamic variables afterwards.
func (ins *instrumenter) classify() {
	dynamic := ins.tripBound()
	for _, d := range ins.uc.Flow.Deps {
		if !d.Exact {
			dynamic[d.Src.Write.Array] = true
		}
	}
	control := map[string]bool{}
	lang.WalkStmts(ins.prog.Body, func(s lang.Stmt) bool {
		var cond lang.Expr
		switch x := s.(type) {
		case *lang.While:
			cond = x.Cond
		case *lang.If:
			cond = x.Cond
		default:
			return true
		}
		for _, r := range lang.ExprRefs(cond) {
			if ins.prog.Decl(r.Name) != nil {
				control[r.Name] = true
			}
		}
		return true
	})
	for _, d := range ins.prog.Decls {
		switch {
		case control[d.Name]:
			ins.plans[d.Name] = PlanControl
		case ins.uc.Analyzable(d.Name) && !dynamic[d.Name]:
			ins.plans[d.Name] = PlanStatic
		default:
			ins.plans[d.Name] = PlanDynamic
		}
	}
}

// tripBound returns the variables whose static use counts do not hold for
// every trip count of the while loops around their accesses. Algorithm 1
// reads a while body as the body of "for w = 0 to W - 1" (pdg.WhileLoop),
// which is exact for a value used up in the iteration that defines it: its
// count is the same in every iteration, and no iteration's defs are read by
// another. A variable keeps its static plan only when
//   - every flow dependence stays inside one iteration of the innermost
//     while loop around its writer and its reader (which must be the same
//     loop): no value is carried to a later iteration, or flows into the
//     loop from before it or out of it to after it;
//   - no read inside a while loop observes a live-in value;
//   - no def or live-in count mentions a while loop's iterator or trip
//     count once the guards its statement's domain implies are dropped.
//
// Loop-carried values need a fold at the loop exit and stay dynamic.
func (ins *instrumenter) tripBound() map[string]bool {
	out := map[string]bool{}
	if len(ins.model.Whiles) == 0 {
		return out
	}
	// mentions reports whether count, or a constraint of cons that is not
	// one of skip's, names a while loop's iterator or trip count.
	mentions := func(cons []poly.Constraint, count poly.Polynomial, skip []poly.Constraint) bool {
		if slices.ContainsFunc(count.Vars(), ins.model.WhileSymbol) {
			return true
		}
		for _, c := range cons {
			if slices.ContainsFunc(c.E.Vars(), ins.model.WhileSymbol) &&
				!slices.ContainsFunc(skip, func(d poly.Constraint) bool { return d.String() == c.String() }) {
				return true
			}
		}
		return false
	}
	for _, d := range ins.uc.Flow.Deps {
		if !iterationLocal(d) {
			out[d.Src.Write.Array] = true
		}
	}
	for s, dc := range ins.uc.Defs {
		if out[s.Write.Array] {
			continue
		}
		dom := s.Domain.Cons
		for _, c := range dc.Contribs {
			for _, piece := range c.Count.Pieces {
				// A piece restates its statement's domain: only a while
				// symbol in any other constraint needs the gist.
				if mentions(piece.Domain, piece.Count, dom) && mentions(gist(piece.Domain, dom), piece.Count, nil) {
					out[s.Write.Array] = true
				}
			}
		}
	}
	for array, lis := range ins.uc.LiveIns {
		for _, li := range lis {
			if len(li.Stmt.Whiles) > 0 {
				out[array] = true
			}
			for _, piece := range li.Count.Pieces {
				if mentions(piece.Domain, piece.Count, nil) {
					out[array] = true
				}
			}
		}
	}
	return out
}

// iterationLocal reports whether every pair of d joins a writer and a reader
// in one iteration of their innermost enclosing while loop, and of every
// loop around it; true when neither statement is under a while loop.
func iterationLocal(d *deps.Dep) bool {
	src, dst := d.Src, d.Dst
	if !slices.Equal(src.Whiles, dst.Whiles) {
		return false
	}
	if len(src.Whiles) == 0 {
		return true
	}
	inner := src.Whiles[len(src.Whiles)-1].Iter
	for _, it := range src.Iters {
		other := poly.V(it + "'")
		for _, bm := range d.Rel.Pieces {
			for _, c := range []poly.Constraint{poly.Gt(other, poly.V(it)), poly.Lt(other, poly.V(it))} {
				if empty, exact := bm.With(c).IsEmpty(); !empty || !exact {
					return false
				}
			}
		}
		if it == inner {
			break
		}
	}
	return true
}

// buildDynamicBoilerplate declares shadow counters and emits the prologue
// (live-in contributions, counter zeroing) and epilogue (final adjustments)
// for every variable, per its plan.
func (ins *instrumenter) buildDynamicBoilerplate() {
	// Deterministic order over declarations.
	for _, d := range ins.prog.Decls {
		switch ins.plans[d.Name] {
		case PlanStatic:
			ins.emitStaticLiveIn(d)
		case PlanDynamic:
			ins.emitDynamicBoilerplate(d)
		}
	}
}

// emitStaticLiveIn generates prologue code adding the initial values of an
// analyzable array to the def-checksum with their live-in use counts. All
// contributions are merged into a single scan of the array: piece domains
// are gisted against the rectangular cell bounds (so bounds-only domains
// need no guard) and pieces with identical residual domains are summed.
func (ins *instrumenter) emitStaticLiveIn(d *lang.VarDecl) {
	contribs := ins.uc.LiveIns[d.Name]
	if len(contribs) == 0 {
		return
	}
	iters := make([]string, len(d.Dims))
	rename := map[string]string{}
	for k := range d.Dims {
		iters[k] = ins.names.fresh(fmt.Sprintf("li%d", k))
		rename[usecount.CellVarName(d.Name, k)] = iters[k]
	}
	// Rectangular context: 0 <= c_k <= dim_k - 1 (in cell-variable names).
	var ctx []poly.Constraint
	isParam := func(name string) bool { return ins.prog.IsParam(name) }
	for k, dim := range d.Dims {
		cv := poly.V(usecount.CellVarName(d.Name, k))
		ctx = append(ctx, poly.Ge(cv, poly.L(0)))
		if lin, ok := pdg.ExprToLin(dim, isParam); ok {
			ctx = append(ctx, poly.Le(cv, lin.AddConst(-1)))
		}
	}

	type merged struct {
		domain []poly.Constraint
		count  poly.Polynomial
	}
	var pieces []merged
	keyOf := func(cons []poly.Constraint) string {
		keys := make([]string, len(cons))
		for i, c := range cons {
			keys[i] = c.String()
		}
		sort.Strings(keys)
		return fmt.Sprint(keys)
	}
	index := map[string]int{}
	for _, li := range contribs {
		for _, piece := range li.Count.Pieces {
			// A piece no cell can satisfy would only emit a dead guard.
			if piece.Count.IsZero() || infeasible(append(ctx[:len(ctx):len(ctx)], piece.Domain...)) {
				continue
			}
			g := gist(piece.Domain, ctx)
			k := keyOf(g)
			if i, ok := index[k]; ok {
				pieces[i].count = pieces[i].count.Add(piece.Count)
			} else {
				index[k] = len(pieces)
				pieces = append(pieces, merged{domain: g, count: piece.Count})
			}
		}
	}
	if len(pieces) == 0 {
		return
	}

	var body []lang.Stmt
	for _, p := range pieces {
		countExpr, err := polyToExpr(p.count, rename)
		if err != nil {
			// Not expressible: conservatively fall back to dynamic.
			ins.plans[d.Name] = PlanDynamic
			ins.emitDynamicBoilerplate(d)
			return
		}
		ref := &lang.Ref{Name: d.Name}
		for _, it := range iters {
			ref.Indices = append(ref.Indices, &lang.Ref{Name: it})
		}
		add := addChk(lang.DefCS, ref, countExpr)
		if cond := consToCond(p.domain, rename); cond != nil {
			body = append(body, &lang.If{Cond: cond, Then: []lang.Stmt{add}})
		} else {
			body = append(body, add)
		}
	}
	ins.prologue = append(ins.prologue, loopNestOver(iters, d.Dims, body)...)
}

// emitDynamicBoilerplate declares the shadow counter for a dynamic variable
// and generates its prologue (counter zeroing + live-in def/e_def adds) and
// epilogue (final def adjustment + e_use adds), per Algorithm 3 and the
// Figure 7 scheme.
func (ins *instrumenter) emitDynamicBoilerplate(d *lang.VarDecl) {
	cnt := ins.names.fresh(d.Name + "_cnt")
	ins.cnts[d.Name] = cnt
	cd := &lang.VarDecl{Name: cnt, Type: lang.TypeInt}
	for _, dim := range d.Dims {
		cd.Dims = append(cd.Dims, lang.CloneExpr(dim))
	}
	ins.newDecls = append(ins.newDecls, cd)

	iters := make([]string, len(d.Dims))
	for k := range d.Dims {
		iters[k] = ins.names.fresh(fmt.Sprintf("dy%d", k))
	}
	mkRef := func(name string) *lang.Ref {
		r := &lang.Ref{Name: name}
		for _, it := range iters {
			r.Indices = append(r.Indices, &lang.Ref{Name: it})
		}
		return r
	}
	// Each cell is loaded once into a register that both of its folds read.
	bind := func() (*lang.Let, *lang.Ref) {
		reg := ins.names.fresh(d.Name + "_v")
		return &lang.Let{Name: reg, Type: d.Type, Value: mkRef(d.Name)}, &lang.Ref{Name: reg}
	}
	let, v := bind()
	pro := []lang.Stmt{
		&lang.Assign{LHS: mkRef(cnt), Op: lang.OpSet, RHS: intLit(0)},
		let,
		addChk(lang.DefCS, v, one()),
		addChk(lang.EDefCS, refClone(v), one()),
	}
	ins.prologue = append(ins.prologue, loopNestOver(iters, d.Dims, pro)...)

	let, v = bind()
	epi := []lang.Stmt{
		let,
		addChk(lang.DefCS, v, &lang.Bin{Op: lang.BinSub, L: mkRef(cnt), R: one()}),
		addChk(lang.EUseCS, refClone(v), one()),
	}
	ins.epilogue = append(ins.epilogue, loopNestOver(iters, d.Dims, epi)...)
}

// rewrite instruments a statement list.
func (ins *instrumenter) rewrite(ss []lang.Stmt) []lang.Stmt {
	var out []lang.Stmt
	for _, s := range ss {
		switch x := s.(type) {
		case *lang.Assign:
			out = append(out, ins.rewriteAssign(x)...)
		case *lang.For:
			nf := &lang.For{Pos: x.Pos, Iter: x.Iter, Lo: x.Lo, Hi: x.Hi, Body: ins.rewrite(x.Body)}
			out = append(out, nf)
		case *lang.While:
			out = append(out, ins.rewriteWhile(x)...)
		case *lang.If:
			ni := &lang.If{Pos: x.Pos, Cond: x.Cond, Then: ins.rewrite(x.Then), Else: ins.rewrite(x.Else)}
			out = append(out, ni)
		default:
			out = append(out, s)
		}
	}
	return out
}

func (ins *instrumenter) rewriteWhile(x *lang.While) []lang.Stmt {
	plan := ins.insp[x]
	if plan == nil {
		return []lang.Stmt{&lang.While{Pos: x.Pos, Cond: x.Cond, Body: ins.rewrite(x.Body)}}
	}
	var out []lang.Stmt
	out = append(out, plan.preWhile...)
	body := []lang.Stmt{incr(&lang.Ref{Name: plan.iterName}, 1)}
	body = append(body, ins.rewrite(x.Body)...)
	out = append(out, &lang.While{Pos: x.Pos, Cond: x.Cond, Body: body})
	out = append(out, plan.postWhile...)
	return out
}

// rewriteAssign instruments one statement so that its checksum folds consume
// the values the statement itself loads and stores (Section 5): every memory
// cell the statement reads is loaded once, in the interpreter's evaluation
// order, into a register; the use folds and the statement read those
// registers, and the def folds read the register holding the stored value.
// A dynamic plan's folds of the value an "=" overwrites read the register of
// the statement's own read of that cell, or one load bound for them alone,
// and its counters are addressed through the statement's registers.
func (ins *instrumenter) rewriteAssign(x *lang.Assign) []lang.Stmt {
	st := ins.stmts[x]
	if st == nil {
		// Generated or unmodeled statement: pass through.
		return []lang.Stmt{x}
	}
	ld := ins.newLoader()
	value := ld.expr(x.RHS)
	lhs := &lang.Ref{Pos: x.LHS.Pos, Name: x.LHS.Name, Indices: ld.exprs(x.LHS.Indices)}
	if x.Op != lang.OpSet {
		old := ld.load(x.LHS, refClone(lhs))
		value = &lang.Bin{Pos: x.Pos, Op: compoundOps[x.Op], L: old, R: value}
	}

	out := ld.out

	// Use-checksum contributions for every read, per the read variable's
	// plan (Algorithm 3 lines 3-8): one fold per register, counting the
	// reads it serves, and for a dynamic plan one counter increment per
	// cell. A dynamic write leaves out the increments of its own cell: its
	// kill fold below reads that counter after every other increment is
	// stored (one through an aliasing subscript, as x[j_r] beside x[i] with
	// j_r == i, included) and adds the statement's reads of the cell itself,
	// and the zeroing after the store overwrites the counter anyway.
	w := &st.Write
	lhsCell := ld.cell(lhs)
	uses := map[string]int64{}
	first := map[string]*pdg.Access{} // register → the first read it serves
	var regs []string
	for ri := range st.Reads {
		read := &st.Reads[ri]
		if ins.plans[read.Array] == PlanControl {
			continue
		}
		reg := ld.regs[read.Ref]
		if uses[reg] == 0 {
			regs = append(regs, reg)
			first[reg] = read
		}
		uses[reg]++
	}
	own := int64(0) // the statement's reads of the cell it overwrites
	for _, reg := range regs {
		read := first[reg]
		out = append(out, addChk(lang.UseCS, &lang.Ref{Name: reg}, intLit(uses[reg])))
		if ins.plans[read.Array] != PlanDynamic {
			continue
		}
		if ref := ld.refs[read.Ref]; ld.cell(ref) != lhsCell {
			out = append(out, incr(ins.counterRef(ref), uses[reg]))
		} else {
			own = uses[reg]
		}
	}

	// Def-checksum contributions for the write (Algorithm 3 lines 9-18),
	// folding the stored value from a register bound just before the store.
	var stored string
	storedRef := func() lang.Expr {
		if stored == "" {
			stored = ins.names.fresh(x.LHS.Name + "_w")
		}
		return &lang.Ref{Name: stored}
	}
	var post []lang.Stmt
	switch ins.plans[w.Array] {
	case PlanControl:
		// untracked
	case PlanStatic:
		post = ins.staticDefAdds(st, storedRef)
	case PlanDynamic:
		old, ok := ld.byCell[lhsCell]
		if !ok {
			old = ins.names.fresh(x.LHS.Name + "_o")
			out = append(out, &lang.Let{Pos: x.Pos, Name: old, Type: ins.prog.Decl(x.LHS.Name).Type, Value: refClone(lhs)})
		}
		var count lang.Expr = ins.counterRef(lhs)
		switch {
		case own == 0:
			count = &lang.Bin{Op: lang.BinSub, L: count, R: one()}
		case own > 1:
			count = &lang.Bin{Op: lang.BinAdd, L: count, R: intLit(own - 1)}
		}
		out = append(out,
			addChk(lang.DefCS, &lang.Ref{Name: old}, count),
			addChk(lang.EUseCS, &lang.Ref{Name: old}, one()),
		)
		post = append(post,
			addChk(lang.DefCS, storedRef(), one()),
			addChk(lang.EDefCS, storedRef(), one()),
			&lang.Assign{LHS: ins.counterRef(lhs), Op: lang.OpSet, RHS: intLit(0)},
		)
	case PlanInspector:
		post = ins.inspectorDefAdds(x, storedRef)
	case PlanInvariant:
		// Invariant arrays are unwritten inside their loop; a write would
		// have failed inspector qualification, so this is a write outside
		// any inspector loop — impossible by the untouched-outside rule.
		panic("instrument: write to inspector-invariant array " + w.Array)
	}

	if stored != "" {
		out = append(out, &lang.Let{Pos: x.Pos, Name: stored, Type: ins.prog.Decl(x.LHS.Name).Type, Value: value})
		value = &lang.Ref{Pos: x.Pos, Name: stored}
	}
	out = append(out, &lang.Assign{Pos: x.Pos, Label: x.Label, LHS: lhs, Op: lang.OpSet, RHS: value})
	return append(out, post...)
}

// compoundOps maps a compound assignment to the operator it applies.
var compoundOps = map[lang.AssignOp]lang.BinOp{
	lang.OpAdd: lang.BinAdd, lang.OpSub: lang.BinSub, lang.OpMul: lang.BinMul, lang.OpDiv: lang.BinDiv,
}

// loader rewrites a statement's expressions so that every memory cell is
// loaded once into a register, appending the register bindings to out in
// the interpreter's evaluation order (left to right, a reference's
// subscripts before the reference). Within one statement nothing is stored
// before its last load, so two references to the same cell share a register.
type loader struct {
	ins    *instrumenter
	regs   map[*lang.Ref]string    // original memory reference → its register
	refs   map[*lang.Ref]*lang.Ref // original memory reference → its rewritten form
	byCell map[string]string       // cell (see cell) → its register
	out    []lang.Stmt
}

func (ins *instrumenter) newLoader() *loader {
	return &loader{ins: ins, regs: map[*lang.Ref]string{}, refs: map[*lang.Ref]*lang.Ref{}, byCell: map[string]string{}}
}

// expr returns e with every memory reference replaced by its register.
func (ld *loader) expr(e lang.Expr) lang.Expr {
	switch x := e.(type) {
	case *lang.Ref:
		if ld.ins.prog.Decl(x.Name) == nil {
			return refClone(x) // iterator or parameter: register-resident
		}
		return ld.load(x, &lang.Ref{Pos: x.Pos, Name: x.Name, Indices: ld.exprs(x.Indices)})
	case *lang.Bin:
		return &lang.Bin{Pos: x.Pos, Op: x.Op, L: ld.expr(x.L), R: ld.expr(x.R)}
	case *lang.Un:
		return &lang.Un{Pos: x.Pos, Op: x.Op, X: ld.expr(x.X)}
	case *lang.Call:
		return &lang.Call{Pos: x.Pos, Name: x.Name, Args: ld.exprs(x.Args)}
	}
	return lang.CloneExpr(e)
}

func (ld *loader) exprs(es []lang.Expr) []lang.Expr {
	var out []lang.Expr
	for _, e := range es {
		out = append(out, ld.expr(e))
	}
	return out
}

// cell names the memory cell a rewritten reference addresses: its array and
// each subscript in affine normal form where it has one, so A[n - 2 - i] and
// A[n - i - 2] are one cell. Registers in subscripts are names like any
// other; the statement never rebinds them.
func (ld *loader) cell(ref *lang.Ref) string {
	key := ref.Name
	for _, ix := range ref.Indices {
		if lin, ok := pdg.ExprToLin(ix, func(name string) bool { return ld.ins.prog.Decl(name) == nil }); ok {
			key += "[" + lin.String() + "]"
		} else {
			key += "[" + lang.ExprString(ix) + "]"
		}
	}
	return key
}

// load returns a reference to the register holding the value at ref, the
// rewritten form of orig, binding a fresh one on the cell's first load.
func (ld *loader) load(orig, ref *lang.Ref) *lang.Ref {
	c := ld.cell(ref)
	name, ok := ld.byCell[c]
	if !ok {
		name = ld.ins.names.fresh(orig.Name + "_r")
		ld.out = append(ld.out, &lang.Let{Pos: orig.Pos, Name: name, Type: ld.ins.prog.Decl(orig.Name).Type, Value: ref})
		ld.byCell[c] = name
	}
	ld.regs[orig] = name
	ld.refs[orig] = ref
	return &lang.Ref{Pos: orig.Pos, Name: name}
}

// staticDefAdds emits the guarded def-checksum additions of the value
// stored() names for a statically counted definition: one add per non-zero
// use-count piece some iteration satisfies, guarded by the piece domain
// gisted against the statement's iteration domain (Figure 5).
func (ins *instrumenter) staticDefAdds(st *pdg.Statement, stored func() lang.Expr) []lang.Stmt {
	dc := ins.uc.Defs[st]
	if dc == nil {
		return nil
	}
	// Gist each piece's domain against the iteration domain, then merge
	// pieces with identical residual guards across all contributions
	// (summing their counts) so one guarded add covers them.
	type merged struct {
		domain []poly.Constraint
		count  poly.Polynomial
	}
	var pieces []merged
	index := map[string]int{}
	keyOf := func(cons []poly.Constraint) string {
		keys := make([]string, len(cons))
		for i, c := range cons {
			keys[i] = c.String()
		}
		sort.Strings(keys)
		return fmt.Sprint(keys)
	}
	dom := st.Domain.Cons
	for _, contrib := range dc.Contribs {
		for _, piece := range contrib.Count.Pieces {
			// A piece no iteration can satisfy would only emit a dead guard.
			if piece.Count.IsZero() || infeasible(append(dom[:len(dom):len(dom)], piece.Domain...)) {
				continue
			}
			guard := gist(piece.Domain, dom)
			k := keyOf(guard)
			if i, ok := index[k]; ok {
				pieces[i].count = pieces[i].count.Add(piece.Count)
			} else {
				index[k] = len(pieces)
				pieces = append(pieces, merged{domain: guard, count: piece.Count})
			}
		}
	}
	var out []lang.Stmt
	for _, p := range pieces {
		countExpr, err := polyToExpr(p.count, nil)
		if err != nil {
			// Unexpressible count: should not happen for affine counts,
			// but degrade to a guard-free skip rather than fail.
			continue
		}
		add := addChk(lang.DefCS, stored(), countExpr)
		if cond := consToCond(p.domain, nil); cond != nil {
			out = append(out, &lang.If{Cond: cond, Then: []lang.Stmt{add}})
		} else {
			out = append(out, add)
		}
	}
	return out
}

// counterRef builds a reference to the shadow counter cell matching ref, a
// rewritten reference whose subscripts read the statement's registers.
func (ins *instrumenter) counterRef(ref *lang.Ref) *lang.Ref {
	cnt := ins.cnts[ref.Name]
	if cnt == "" {
		panic("instrument: no counter for " + ref.Name)
	}
	r := &lang.Ref{Name: cnt}
	for _, ix := range ref.Indices {
		r.Indices = append(r.Indices, lang.CloneExpr(ix))
	}
	return r
}

// gist removes piece-domain constraints implied by the statement domain
// together with the remaining piece constraints (so guards match the paper's
// Figure 5 "if j <= n-2" rather than repeating the loop bounds or carrying
// redundant bounds accumulated during counting). Removal iterates to a fixed
// point.
func gist(cons, context []poly.Constraint) []poly.Constraint {
	out := append([]poly.Constraint(nil), cons...)
	impliedBy := func(ctx []poly.Constraint, c poly.Constraint) bool {
		for _, neg := range c.Negate() {
			if !infeasible(append(append([]poly.Constraint(nil), ctx...), neg)) {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(out); {
		ctx := append([]poly.Constraint(nil), context...)
		ctx = append(ctx, out[:i]...)
		ctx = append(ctx, out[i+1:]...)
		if impliedBy(ctx, out[i]) {
			out = append(out[:i], out[i+1:]...)
			continue
		}
		i++
	}
	return out
}

// infeasible reports whether cons is exactly empty: no integer point
// satisfies it for any parameter value.
func infeasible(cons []poly.Constraint) bool {
	empty, exact := poly.BasicSet{Cons: cons}.IsEmpty()
	return empty && exact
}

// sortedPlanNames returns variable names sorted, for deterministic reports.
func (r Report) sortedPlanNames() []string {
	names := make([]string, 0, len(r.Plans))
	for n := range r.Plans {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders the report: per-variable plans, optimization counts, and
// phase timings.
func (r Report) String() string {
	s := ""
	for _, n := range r.sortedPlanNames() {
		s += fmt.Sprintf("%s: %s\n", n, r.Plans[n])
	}
	s += fmt.Sprintf("inspectors hoisted: %d, split: %v\n", r.InspectorsHoisted, r.SplitApplied)
	if r.SplitApplied {
		s += fmt.Sprintf("split segments added: %d\n", r.SplitSegments)
	}
	if r.ChecksumStmts > 0 {
		s += fmt.Sprintf("checksum statements inserted: %d\n", r.ChecksumStmts)
	}
	if r.PromotedFull+r.PromotedDelta > 0 {
		s += fmt.Sprintf("counter cells promoted: %d full, %d delta\n", r.PromotedFull, r.PromotedDelta)
	}
	for _, pt := range r.Phases {
		s += fmt.Sprintf("phase %-22s %v\n", pt.Phase, pt.Duration)
	}
	return s
}
