package codegen

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"defuse/internal/lang"
)

// The source backend, the one native lowering: renders a checked program
// as a Go function over the Machine runtime, so the Go compiler executes the
// kernel. The emitted code is administrative-normal-form Go: every operator
// lands in a temporary, every fallible step checks its error, every float
// operation rounds through an explicit float64 conversion (the FMA-fusion
// guard), and every memory access goes through Machine.Load/Store so memsim
// accounting and fault hooks behave exactly as under the interpreter.
// Checksum folds go into a local checksum.Folds, cs, flushed into the
// machine's Pair before every assert_checksums and, by a defer, on every
// return, so the Pair holds the interpreter's bits whenever anything reads
// it. cmd/genkernels commits the rendered kernels under
// internal/codegen/gennative; the differential tests render generated
// programs the same way and build them offline.
//
// Loop nests are functions (DESIGN.md §10). In a program with folds, every
// loop directly under the kernel loop and every top-level loop before or
// after it is emitted as a helper function of its own, and a helper whose
// body is still over maxFuncNodes outlines its largest nested loops in turn,
// then its largest runs of fold-only statements. Go inlines Folds.Fold and
// State.LoadF/StoreF only into functions under its big-function limit. A
// helper takes the machine, a *checksum.Folds that points at the entry
// function's cs, and the parameters, variables, iterators and registers its
// statements read, and returns the first error unchanged; it flushes through
// its pointer before each assert_checksums. A register a loop assigns never
// crosses a helper boundary: a cut at such a loop takes the register's Let
// and every later statement that reads it (unit), and a loop that assigns a
// register bound in an enclosing list is only cut with that list. Programs
// without folds (the Originals) are emitted as one function.
//
// So a function can stay over the cap. When the loops that assign a promoted
// counter register (r_<array>_cnt_d) fill a list, nothing in that list can
// be cut out alone. The Table 2 kernels all fit (TestSourceNestsAreFunctions
// checks), but progen seed 20000 with indirect subscripts renders three
// helpers of 10,501, 5,320 and 5,303 go/ast nodes under Split.

// SourceFunc names one program to render into a source file.
type SourceFunc struct {
	// FuncName is the Go identifier for the generated function.
	FuncName string
	// Comment is an optional one-line description placed above the func.
	Comment string
	Prog    *lang.Program
}

// SourceFile renders a complete generated Go file: header, package clause,
// imports, and one Fn-shaped function per program. The result is gofmt'd.
func SourceFile(pkg string, funcs []SourceFunc) ([]byte, error) {
	var bodies []string
	needsMath, needsChecksum := false, false
	for _, f := range funcs {
		if err := lang.Check(f.Prog); err != nil {
			return nil, err
		}
		g := newSrcGen(f.Prog)
		if g.folds {
			if err := g.plan(f.FuncName); err != nil {
				return nil, err
			}
		}
		g.function(f.FuncName, f.Comment)
		bodies = append(bodies, g.b.String())
		bodies = append(bodies, g.helpers...)
		needsMath = needsMath || g.needsMath
		needsChecksum = needsChecksum || g.needsChecksum
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by cmd/genkernels. DO NOT EDIT.\n\n")
	fmt.Fprintf(&b, "package %s\n\n", pkg)
	b.WriteString("import (\n")
	if needsMath {
		b.WriteString("\t\"math\"\n\n")
	}
	if needsChecksum {
		b.WriteString("\t\"defuse/internal/checksum\"\n")
	}
	b.WriteString("\t\"defuse/internal/codegen\"\n")
	b.WriteString(")\n")
	for _, body := range bodies {
		b.WriteString("\n")
		b.WriteString(body)
	}
	return format.Source([]byte(b.String()))
}

// Source renders a single program as a standalone generated file (package
// gennative).
func Source(prog *lang.Program, funcName string) ([]byte, error) {
	return SourceFile("gennative", []SourceFunc{{FuncName: funcName, Prog: prog}})
}

// maxFuncNodes caps the go/ast nodes in the body of a generated function.
// Go's inliner calls a function of inlineBigFunctionNodes (5,000) IR nodes
// or more "big" (cmd/compile/internal/inline/inl.go) and inlines into it only
// callees of cost 20 or less, which shuts out Folds.Fold (77) and
// State.LoadF/StoreF (67). The go/ast count runs close to the IR count: on
// the single-function kernels a body of 5,136 go/ast nodes was big and one
// of 4,263 was not. The cap keeps a margin below both.
const maxFuncNodes = 4000

// helperNodes is what a helper's body adds to the statements it holds: the
// block and "return nil".
const helperNodes = 3

// srcGen emits one program's entry function and its helpers.
type srcGen struct {
	b      *strings.Builder
	indent int
	tmp    int
	env    *typeEnv
	prog   *lang.Program

	needsMath     bool
	needsChecksum bool
	folds         bool   // the program has an add_to_chksm: declare and flush cs
	csRef         string // the *checksum.Folds in the function being emitted

	name    string               // the entry function, prefix of its helpers' names
	cut     map[lang.Stmt]int    // first statement of a run emitted as a helper → run length
	inCut   map[lang.Stmt]bool   // every statement of such a run
	helpers []string             // rendered helpers; the k-th is <name>_n<k>
	nodes   map[lang.Stmt]int    // go/ast nodes each statement renders to inline
	spans   map[lang.Stmt][2]int // measuring pass: each statement's text in b
}

func newSrcGen(prog *lang.Program) *srcGen {
	return &srcGen{b: new(strings.Builder), env: newTypeEnv(prog), prog: prog, folds: hasFolds(prog), csRef: "&cs"}
}

// hasFolds reports whether prog has an add_to_chksm statement, and so
// whether its generated source needs a checksum.Folds delta file.
func hasFolds(prog *lang.Program) bool {
	found := false
	lang.WalkStmts(prog.Body, func(s lang.Stmt) bool {
		_, ok := s.(*lang.AddToChecksum)
		found = found || ok
		return !found
	})
	return found
}

func (g *srcGen) emitf(f string, args ...any) {
	g.b.WriteString(strings.Repeat("\t", g.indent))
	fmt.Fprintf(g.b, f, args...)
	g.b.WriteString("\n")
}

func (g *srcGen) newTmp() string {
	g.tmp++
	return fmt.Sprintf("t%d", g.tmp)
}

// refs reports every name the statements ss reference. The prologue binds
// only the parameters and variables the program references (Go rejects
// unused variables), and a helper takes only the names its statements do.
// Check rules out shadowing, so a name means one thing wherever it is in
// scope.
func refs(ss []lang.Stmt) map[string]bool {
	names := map[string]bool{}
	seen := func(e lang.Expr) {
		lang.WalkExpr(e, func(x lang.Expr) bool {
			if r, ok := x.(*lang.Ref); ok {
				names[r.Name] = true
			}
			return true
		})
	}
	lang.WalkStmts(ss, func(s lang.Stmt) bool {
		switch x := s.(type) {
		case *lang.Assign:
			seen(x.LHS)
			seen(x.RHS)
		case *lang.For:
			seen(x.Lo)
			seen(x.Hi)
		case *lang.While:
			seen(x.Cond)
		case *lang.If:
			seen(x.Cond)
		case *lang.AddToChecksum:
			seen(x.Value)
			seen(x.Count)
		case *lang.Let:
			seen(x.Value)
		}
		return true
	})
	return names
}

// function emits the Fn-shaped definition for the program.
func (g *srcGen) function(name, comment string) {
	pre, loop, post := lang.KernelLoop(g.prog.Body)
	if comment != "" {
		g.emitf("// %s", comment)
	}
	g.name = name
	g.emitf("func %s(m *codegen.Machine, epoch, epochs int) error {", name)
	g.indent++
	g.emitf("if err := codegen.CheckEpoch(epoch, epochs); err != nil {")
	g.emitf("\treturn err")
	g.emitf("}")
	if loop == nil {
		g.emitf("if epoch != 0 {")
		g.emitf("\treturn nil")
		g.emitf("}")
	}
	used := refs(g.prog.Body)
	for _, p := range g.prog.Params {
		if used[p] {
			g.emitf("p_%s := m.Param(%q)", p, p)
		}
	}
	for _, d := range g.prog.Decls {
		if !used[d.Name] {
			continue
		}
		if d.IsArray() {
			g.emitf("b_%s, d_%s := m.Var(%q)", d.Name, d.Name, d.Name)
		} else {
			g.emitf("b_%s, _ := m.Var(%q)", d.Name, d.Name)
		}
	}
	if g.folds {
		g.emitf("cs := checksum.NewFolds(m.Pair().Kind())")
		g.emitf("defer m.Pair().Flush(&cs)")
	}

	if loop == nil {
		g.stmts(pre)
		g.emitf("return nil")
		g.indent--
		g.emitf("}")
		return
	}

	g.emitf("if epoch == 0 {")
	g.indent++
	g.stmts(pre)
	lo, _ := g.expr(loop.Lo)
	hi, _ := g.expr(loop.Hi)
	g.emitf("m.SetBounds(%s, %s)", lo, hi)
	g.indent--
	g.emitf("}")
	g.emitf("lo, hi, ok := m.Bounds()")
	g.emitf("if !ok {")
	g.emitf("\treturn codegen.ErrNoBounds(epoch)")
	g.emitf("}")
	g.emitf("start, end := codegen.Slice(lo, hi, epoch, epochs)")
	iter := "i_" + loop.Iter
	g.emitf("for %s := start; %s <= end; %s++ {", iter, iter, iter)
	g.indent++
	g.emitTick(loop.Pos)
	g.env.iters[loop.Iter] = true
	g.stmts(loop.Body)
	delete(g.env.iters, loop.Iter)
	g.indent--
	g.emitf("}")
	g.emitf("if epoch == epochs-1 {")
	g.indent++
	g.stmts(post)
	g.indent--
	g.emitf("}")
	g.emitf("return nil")
	g.indent--
	g.emitf("}")
}

// plan decides which statements the entry function cuts out into helpers.
// A measuring pass renders the function with nothing cut and counts the
// go/ast nodes each statement renders to. The counts add up: cutting a run
// of statements out of a function removes their nodes and adds a call's.
// Every loop directly under the kernel loop, and every top-level loop before
// or after it, becomes a helper; then fit shrinks each function in turn.
func (g *srcGen) plan(name string) error {
	mg := newSrcGen(g.prog)
	mg.spans = map[lang.Stmt][2]int{}
	mg.function(name, "")
	nodes, size, err := spanNodes(mg.b.String(), mg.spans)
	if err != nil {
		return err
	}
	g.nodes, g.cut, g.inCut = nodes, map[lang.Stmt]int{}, map[lang.Stmt]bool{}
	pre, loop, post := lang.KernelLoop(g.prog.Body)
	lists := [][]lang.Stmt{pre, post}
	if loop != nil {
		lists = append(lists, loop.Body)
	}
	for _, ss := range lists {
		for i, s := range ss {
			if isNest(s) && !g.inCut[s] {
				if run := g.unit(ss, i); run != nil {
					size -= g.cutOut(run)
				}
			}
		}
	}
	g.fit(lists, size)
	return nil
}

// fit cuts statements out of a function of size nodes, whose own statement
// lists are lists and the lists under them, until it fits maxFuncNodes:
// first its largest loops, then its largest runs of fold-only statements.
func (g *srcGen) fit(lists [][]lang.Stmt, size int) {
	for size > maxFuncNodes {
		var loop []lang.Stmt
		best := 0
		g.eachList(lists, func(ss []lang.Stmt) {
			for i, s := range ss {
				if !isNest(s) || g.inCut[s] {
					continue
				}
				if run := g.unit(ss, i); run != nil && (loop == nil || g.runNodes(run) > best) {
					loop, best = run, g.runNodes(run)
				}
			}
		})
		if loop == nil {
			break
		}
		size -= g.cutOut(loop)
	}
	for size > maxFuncNodes {
		var run []lang.Stmt
		best := 0
		g.eachList(lists, func(ss []lang.Stmt) {
			for i := 0; i < len(ss); i++ {
				if n := g.cut[ss[i]]; n > 0 {
					i += n - 1 // already a helper
					continue
				}
				if !foldOnly(ss[i]) {
					continue
				}
				j, n := i, 0
				for ; j < len(ss) && foldOnly(ss[j]) && !g.inCut[ss[j]]; j++ {
					n += g.nodes[ss[j]]
				}
				if n > best {
					run, best = ss[i:j], n
				}
				i = j - 1
			}
		})
		if run == nil || best <= callNodes(run) {
			break
		}
		// Cut the run into consecutive helpers that each fit.
		for len(run) > 0 {
			j, n := 1, g.nodes[run[0]]
			for ; j < len(run) && n+g.nodes[run[j]]+helperNodes <= maxFuncNodes; j++ {
				n += g.nodes[run[j]]
			}
			size -= g.cutOut(run[:j])
			run = run[j:]
		}
	}
}

// cutOut marks ss, a loop's unit or a run of fold-only statements, to be
// emitted as a helper, fits the helper in turn, and returns the nodes the
// cut takes out of the calling function.
func (g *srcGen) cutOut(ss []lang.Stmt) int {
	g.cut[ss[0]] = len(ss)
	for _, s := range ss {
		g.inCut[s] = true
	}
	n := g.runNodes(ss)
	if !foldOnly(ss[0]) {
		var inner [][]lang.Stmt
		for _, s := range ss {
			if body, ok := loopBody(s); ok {
				inner = append(inner, body)
			} else if x, ok := s.(*lang.If); ok {
				inner = append(inner, x.Then, x.Else)
			}
		}
		g.fit(inner, n+helperNodes)
	}
	return n - callNodes(ss)
}

// runNodes sums the go/ast nodes the statements of ss render to inline.
func (g *srcGen) runNodes(ss []lang.Stmt) int {
	n := 0
	for _, s := range ss {
		n += g.nodes[s]
	}
	return n
}

// unit returns the run of ss that a cut at the loop ss[i] takes, so that no
// register crosses the helper boundary in a way a by-value argument cannot
// carry: a register the run assigns is bound in the run, and a register the
// run binds is read by nothing after it. The run grows from the loop to the
// Let of each register it assigns and to the last statement that reads a
// register it binds. A loop that assigns a register bound outside ss has no
// unit at this level (nil): a cut around an enclosing statement takes it.
func (g *srcGen) unit(ss []lang.Stmt, i int) []lang.Stmt {
	lo, hi := i, i
	for {
		run := ss[lo : hi+1]
		nlo, nhi := lo, hi
		bound := letsIn(run)
		for name := range g.regsAssigned(run) {
			if bound[name] {
				continue
			}
			b := slices.IndexFunc(ss, func(s lang.Stmt) bool {
				l, ok := s.(*lang.Let)
				return ok && l.Name == name
			})
			if b < 0 {
				return nil
			}
			nlo = min(nlo, b)
		}
		for j := hi + 1; j < len(ss); j++ {
			used := refs(ss[j : j+1])
			for _, s := range run {
				if l, ok := s.(*lang.Let); ok && used[l.Name] {
					nhi = j
				}
			}
		}
		if nlo == lo && nhi == hi {
			return run
		}
		lo, hi = nlo, nhi
	}
}

// letsIn names the registers bound anywhere in ss.
func letsIn(ss []lang.Stmt) map[string]bool {
	names := map[string]bool{}
	lang.WalkStmts(ss, func(s lang.Stmt) bool {
		if l, ok := s.(*lang.Let); ok {
			names[l.Name] = true
		}
		return true
	})
	return names
}

// regsAssigned names the registers ss assigns: the scalar targets of its
// assignments that no declaration names.
func (g *srcGen) regsAssigned(ss []lang.Stmt) map[string]bool {
	names := map[string]bool{}
	lang.WalkStmts(ss, func(s lang.Stmt) bool {
		if a, ok := s.(*lang.Assign); ok && g.prog.Decl(a.LHS.Name) == nil {
			names[a.LHS.Name] = true
		}
		return true
	})
	return names
}

// eachList calls visit with lists and every statement list under them that
// stays in the same function: loop bodies and if branches, but nothing cut
// out and nothing inside a fold-only statement.
func (g *srcGen) eachList(lists [][]lang.Stmt, visit func([]lang.Stmt)) {
	for _, ss := range lists {
		visit(ss)
		for _, s := range ss {
			if g.inCut[s] || foldOnly(s) {
				continue
			}
			if body, ok := loopBody(s); ok {
				g.eachList([][]lang.Stmt{body}, visit)
			} else if x, ok := s.(*lang.If); ok {
				g.eachList([][]lang.Stmt{x.Then, x.Else}, visit)
			}
		}
	}
}

// isNest reports whether s is a loop nest a helper can hold: a loop, or an
// if with a loop directly in a branch (the guard around a loop whose counter
// cells are promoted to registers).
func isNest(s lang.Stmt) bool {
	if _, ok := loopBody(s); ok {
		return true
	}
	x, ok := s.(*lang.If)
	if !ok {
		return false
	}
	return slices.ContainsFunc(x.Then, isLoop) || slices.ContainsFunc(x.Else, isLoop)
}

func isLoop(s lang.Stmt) bool {
	_, ok := loopBody(s)
	return ok
}

// loopBody returns the body of a for or while loop, and whether s is one.
func loopBody(s lang.Stmt) ([]lang.Stmt, bool) {
	switch x := s.(type) {
	case *lang.For:
		return x.Body, true
	case *lang.While:
		return x.Body, true
	}
	return nil, false
}

// foldOnly reports whether s only folds: an add_to_chksm, or an if whose
// branches hold nothing else. Such a statement binds no register, ticks no
// loop and asserts nothing, so a run of them can move into a helper as it is.
func foldOnly(s lang.Stmt) bool {
	switch x := s.(type) {
	case *lang.AddToChecksum:
		return true
	case *lang.If:
		for _, ss := range [][]lang.Stmt{x.Then, x.Else} {
			for _, t := range ss {
				if !foldOnly(t) {
					return false
				}
			}
		}
		return true
	}
	return false
}

// callNodes bounds the go/ast nodes of the call that replaces ss:
// "if err := f(m, &cs); err != nil { return err }" is 14, and each name ss
// references adds at most two arguments (b_ and d_ for an array).
func callNodes(ss []lang.Stmt) int { return 14 + 2*len(refs(ss)) }

// spanNodes parses a rendered function and counts the go/ast nodes of its
// body and of each statement's span of the text.
func spanNodes(src string, spans map[lang.Stmt][2]int) (map[lang.Stmt]int, int, error) {
	const pkg = "package p\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "", pkg+src, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("codegen: measuring generated source: %w", err)
	}
	body := f.Decls[0].(*ast.FuncDecl).Body
	base := fset.File(body.Pos()).Base() + len(pkg)
	var at []int
	ast.Inspect(body, func(n ast.Node) bool {
		if n != nil {
			at = append(at, int(n.Pos())-base)
		}
		return true
	})
	sort.Ints(at)
	nodes := make(map[lang.Stmt]int, len(spans))
	for s, sp := range spans {
		nodes[s] = sort.SearchInts(at, sp[1]) - sort.SearchInts(at, sp[0])
	}
	return nodes, len(at), nil
}

// helper emits ss as the function <entry>_n<k>, called in their place. The
// helper takes the machine, the folds through a pointer, and the parameters,
// variables, in-scope iterators and in-scope registers ss reference, and
// returns the first error unchanged.
func (g *srcGen) helper(ss []lang.Stmt) {
	used := refs(ss)
	args := []string{"m", g.csRef}
	params := []string{"m *codegen.Machine", "cs *checksum.Folds"}
	arg := func(name, typ string) {
		args = append(args, name)
		params = append(params, name+" "+typ)
	}
	for _, p := range g.prog.Params {
		if used[p] {
			arg("p_"+p, "int64")
		}
	}
	for _, d := range g.prog.Decls {
		if used[d.Name] {
			arg("b_"+d.Name, "int")
			if d.IsArray() {
				arg("d_"+d.Name, "[]int64")
			}
		}
	}
	for _, it := range sortedNames(g.env.iters) {
		if used[it] {
			arg("i_"+it, "int64")
		}
	}
	assigned := g.regsAssigned(ss)
	for _, r := range sortedNames(g.env.regs) {
		if assigned[r] {
			panic(fmt.Sprintf("codegen: register %s is assigned across a helper boundary", r))
		}
		if used[r] {
			typ := "float64"
			if g.env.regs[r] {
				typ = "int64"
			}
			arg("r_"+r, typ)
		}
	}
	g.helpers = append(g.helpers, "")
	k := len(g.helpers)
	name := fmt.Sprintf("%s_n%d", g.name, k)
	g.emitf("if err := %s(%s); err != nil {", name, strings.Join(args, ", "))
	g.emitf("\treturn err")
	g.emitf("}")

	b, indent, csRef := g.b, g.indent, g.csRef
	g.b, g.indent, g.csRef = new(strings.Builder), 0, "cs"
	g.emitf("func %s(%s) error {", name, strings.Join(params, ", "))
	g.indent++
	for _, s := range ss {
		g.stmt(s)
	}
	for _, s := range ss {
		if l, ok := s.(*lang.Let); ok {
			delete(g.env.regs, l.Name)
		}
	}
	g.emitf("return nil")
	g.indent--
	g.emitf("}")
	g.helpers[k-1] = g.b.String()
	g.b, g.indent, g.csRef = b, indent, csRef
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (g *srcGen) emitTick(pos lang.Pos) {
	g.emitf("if err := m.Tick(%d, %d); err != nil {", pos.Line, pos.Col)
	g.emitf("\treturn err")
	g.emitf("}")
}

// stmts emits a statement list. A register a Let in the list binds goes out
// of scope at the list's end, as the Go local it becomes does.
func (g *srcGen) stmts(ss []lang.Stmt) {
	for i := 0; i < len(ss); i++ {
		if n := g.cut[ss[i]]; n > 0 {
			g.helper(ss[i : i+n])
			i += n - 1
			continue
		}
		g.stmt(ss[i])
	}
	for _, s := range ss {
		if l, ok := s.(*lang.Let); ok {
			delete(g.env.regs, l.Name)
		}
	}
}

// stmt emits one statement in place; the measuring pass records the text it
// takes.
func (g *srcGen) stmt(s lang.Stmt) {
	start := g.b.Len()
	g.lower(s)
	if g.spans != nil {
		g.spans[s] = [2]int{start, g.b.Len()}
	}
}

func (g *srcGen) lower(s lang.Stmt) {
	switch x := s.(type) {
	case *lang.Assign:
		g.assign(x)
	case *lang.For:
		lo, _ := g.expr(x.Lo)
		hi, _ := g.expr(x.Hi)
		iter := "i_" + x.Iter
		g.emitf("for %s := %s; %s <= %s; %s++ {", iter, lo, iter, hi, iter)
		g.indent++
		g.emitTick(x.Pos)
		g.env.iters[x.Iter] = true
		g.stmts(x.Body)
		delete(g.env.iters, x.Iter)
		g.indent--
		g.emitf("}")
	case *lang.While:
		g.emitf("for {")
		g.indent++
		g.emitTick(x.Pos)
		cond := g.boolExpr(x.Cond)
		g.emitf("if !(%s) {", cond)
		g.emitf("\tbreak")
		g.emitf("}")
		g.stmts(x.Body)
		g.indent--
		g.emitf("}")
	case *lang.If:
		cond := g.boolExpr(x.Cond)
		g.emitf("if %s {", cond)
		g.indent++
		g.stmts(x.Then)
		g.indent--
		if len(x.Else) > 0 {
			g.emitf("} else {")
			g.indent++
			g.stmts(x.Else)
			g.indent--
		}
		g.emitf("}")
	case *lang.AddToChecksum:
		g.needsChecksum = true
		val, valInt := g.expr(x.Value)
		cnt, cntInt := g.expr(x.Count)
		if !cntInt {
			// Non-integral count: evaluate both operands, then fail at the
			// count's position, as the interpreter does.
			pos := x.Count.ExprPos()
			g.emitf("_, _ = %s, %s", val, cnt)
			g.emitf("return m.IntExpected(%d, %d)", pos.Line, pos.Col)
			return
		}
		bits := fmt.Sprintf("uint64(%s)", val)
		if !valInt {
			g.needsMath = true
			bits = fmt.Sprintf("math.Float64bits(%s)", val)
		}
		g.emitf("cs.Fold(checksum.%s, %s, %s)", accName(x.CS), bits, cnt)
	case *lang.Let:
		var val string
		var valInt bool
		if r, ok := x.Value.(*lang.Ref); ok && g.prog.Decl(r.Name) != nil {
			val, valInt = g.load(r) // straight into the register
		} else {
			val, valInt = g.expr(x.Value)
		}
		isInt := x.Type == lang.TypeInt
		switch {
		case isInt && !valInt:
			val = fmt.Sprintf("int64(%s)", val)
		case !isInt:
			val = g.toFloat(val, valInt)
		}
		g.emitf("r_%s := %s", x.Name, val)
		g.env.regs[x.Name] = isInt
	case *lang.AssertChecksums:
		if g.folds {
			g.emitf("m.Pair().Flush(%s)", g.csRef)
		}
		g.emitf("if err := m.Assert(%d, %d); err != nil {", x.Pos.Line, x.Pos.Col)
		g.emitf("\treturn err")
		g.emitf("}")
	default:
		panic(fmt.Sprintf("codegen: unknown statement %T", s))
	}
}

func accName(cs lang.CSName) string {
	switch cs {
	case lang.DefCS:
		return "AccDef"
	case lang.UseCS:
		return "AccUse"
	case lang.EDefCS:
		return "AccEDef"
	default:
		return "AccEUse"
	}
}

// assign emits "lhs op= rhs" in the interpreter's order: RHS, LHS address,
// current value, zero check, operation, store.
func (g *srcGen) assign(x *lang.Assign) {
	rhs, rhsInt := g.expr(x.RHS)
	if _, ok := g.env.regs[x.LHS.Name]; ok && len(x.LHS.Indices) == 0 {
		// An int register, assigned by "=" (lang.Check).
		if !rhsInt {
			rhs = fmt.Sprintf("int64(%s)", rhs)
		}
		g.emitf("r_%s = %s", x.LHS.Name, rhs)
		return
	}
	addr := g.addr(x.LHS)
	varInt := g.env.vars[x.LHS.Name]
	if x.Op == lang.OpSet {
		switch {
		case varInt && rhsInt:
			g.emitf("m.Store(%s, uint64(%s))", addr, rhs)
		case varInt:
			g.emitf("m.Store(%s, uint64(int64(%s)))", addr, rhs)
		default:
			g.emitf("m.StoreF(%s, %s)", addr, g.toFloat(rhs, rhsInt))
		}
		return
	}
	cur := g.newTmp()
	if varInt && rhsInt {
		g.emitf("%s := int64(m.Load(%s))", cur, addr)
		if x.Op == lang.OpDiv {
			g.emitf("if %s == 0 {", rhs)
			g.emitf("\treturn m.DivZero(%d, %d)", x.Pos.Line, x.Pos.Col)
			g.emitf("}")
		}
		out := g.newTmp()
		g.emitf("%s := %s %s %s", out, cur, goOp(x.Op), rhs)
		g.emitf("m.Store(%s, uint64(%s))", addr, out)
		return
	}
	// Float arithmetic path (the current value or the RHS is float).
	if varInt {
		g.emitf("%s := float64(int64(m.Load(%s)))", cur, addr)
	} else {
		g.emitf("%s := m.LoadF(%s)", cur, addr)
	}
	rhsF := g.toFloat(rhs, rhsInt)
	if x.Op == lang.OpDiv {
		g.emitf("if %s == 0 {", rhsF)
		g.emitf("\treturn m.DivZero(%d, %d)", x.Pos.Line, x.Pos.Col)
		g.emitf("}")
	}
	out := g.newTmp()
	g.emitf("%s := float64(%s %s %s)", out, cur, goOp(x.Op), rhsF)
	if varInt {
		g.emitf("m.Store(%s, uint64(int64(%s)))", addr, out)
	} else {
		g.emitf("m.StoreF(%s, %s)", addr, out)
	}
}

func goOp(op lang.AssignOp) string {
	switch op {
	case lang.OpAdd:
		return "+"
	case lang.OpSub:
		return "-"
	case lang.OpMul:
		return "*"
	default:
		return "/"
	}
}

// addr emits the per-dimension bounds checks and row-major flattening for a
// reference and returns the address expression.
func (g *srcGen) addr(r *lang.Ref) string {
	if len(r.Indices) == 0 {
		return "b_" + r.Name
	}
	flat := ""
	for k, ixExpr := range r.Indices {
		ix, _ := g.expr(ixExpr)
		// Hoist the index so the bounds check and the flattening read the
		// same evaluation.
		t := g.newTmp()
		g.emitf("%s := %s", t, ix)
		g.emitf("if %s < 0 || %s >= d_%s[%d] {", t, t, r.Name, k)
		g.emitf("\treturn m.OOB(%s, d_%s[%d], %d, %q, %d, %d)", t, r.Name, k, k, r.Name, r.Pos.Line, r.Pos.Col)
		g.emitf("}")
		if k == 0 {
			flat = t
		} else {
			flat = fmt.Sprintf("(%s)*d_%s[%d] + %s", flat, r.Name, k, t)
		}
	}
	at := g.newTmp()
	g.emitf("%s := b_%s + int(%s)", at, r.Name, flat)
	return at
}

// toFloat adapts a value expression to float evaluation.
func (g *srcGen) toFloat(val string, isInt bool) string {
	if isInt {
		return fmt.Sprintf("float64(%s)", val)
	}
	return val
}

// boolExpr emits an expression for truthiness and returns a bool-valued Go
// expression.
func (g *srcGen) boolExpr(e lang.Expr) string {
	if x, ok := e.(*lang.Bin); ok {
		switch {
		case x.Op.IsComparison():
			l, lInt := g.expr(x.L)
			r, rInt := g.expr(x.R)
			if lInt && rInt {
				return fmt.Sprintf("%s %s %s", l, x.Op, r)
			}
			return fmt.Sprintf("%s %s %s", g.toFloat(l, lInt), x.Op, g.toFloat(r, rInt))
		case x.Op.IsLogical():
			// Short-circuit: the right operand's code must only run when
			// the left doesn't decide, so it evaluates inside a branch.
			t := g.newTmp()
			g.emitf("%s := %s", t, g.boolExpr(x.L))
			if x.Op == lang.BinAnd {
				g.emitf("if %s {", t)
			} else {
				g.emitf("if !%s {", t)
			}
			g.indent++
			g.emitf("%s = %s", t, g.boolExpr(x.R))
			g.indent--
			g.emitf("}")
			return t
		}
	}
	if x, ok := e.(*lang.Un); ok && x.Op == lang.UnNot {
		return fmt.Sprintf("!(%s)", g.boolExpr(x.X))
	}
	val, _ := g.expr(e)
	return fmt.Sprintf("%s != 0", val)
}

// expr emits code for an expression and returns its value expression and
// static integer-ness. Operator results land in temporaries so evaluation
// order and rounding match the interpreter step for step.
func (g *srcGen) expr(e lang.Expr) (string, bool) {
	switch x := e.(type) {
	case *lang.IntLit:
		return fmt.Sprintf("int64(%d)", x.Val), true
	case *lang.FloatLit:
		return g.floatLit(x.Val), false
	case *lang.Ref:
		return g.refExpr(x)
	case *lang.Un:
		if x.Op == lang.UnNot {
			t := g.newTmp()
			g.emitf("%s := codegen.B2I(!(%s))", t, g.boolExpr(x.X))
			return t, true
		}
		val, isInt := g.expr(x.X)
		t := g.newTmp()
		g.emitf("%s := -%s", t, val)
		return t, isInt
	case *lang.Bin:
		return g.binExpr(x)
	case *lang.Call:
		return g.callExpr(x)
	default:
		panic(fmt.Sprintf("codegen: unknown expression %T", e))
	}
}

func (g *srcGen) floatLit(v float64) string {
	if v == 0 && math.Signbit(v) {
		g.needsMath = true
		return "math.Copysign(0, -1)"
	}
	return fmt.Sprintf("float64(%s)", strconv.FormatFloat(v, 'g', -1, 64))
}

func (g *srcGen) refExpr(x *lang.Ref) (string, bool) {
	if g.env.iters[x.Name] && len(x.Indices) == 0 {
		return "i_" + x.Name, true
	}
	if isInt, ok := g.env.regs[x.Name]; ok && len(x.Indices) == 0 {
		return "r_" + x.Name, isInt
	}
	if g.prog.IsParam(x.Name) && len(x.Indices) == 0 {
		return "p_" + x.Name, true
	}
	load, isInt := g.load(x)
	t := g.newTmp()
	g.emitf("%s := %s", t, load)
	return t, isInt
}

// load emits the address computation of a memory reference and returns the
// load expression and its integer-ness.
func (g *srcGen) load(x *lang.Ref) (string, bool) {
	addr := g.addr(x)
	if g.env.vars[x.Name] {
		return fmt.Sprintf("int64(m.Load(%s))", addr), true
	}
	return fmt.Sprintf("m.LoadF(%s)", addr), false
}

func (g *srcGen) binExpr(x *lang.Bin) (string, bool) {
	if x.Op.IsComparison() || x.Op.IsLogical() {
		t := g.newTmp()
		g.emitf("%s := codegen.B2I(%s)", t, g.boolExpr(x))
		return t, true
	}
	if x.Op == lang.BinMod {
		l, lInt := g.expr(x.L)
		r, rInt := g.expr(x.R)
		if lInt && rInt {
			g.emitf("if %s == 0 {", r)
			g.emitf("\treturn m.ModZero(%d, %d)", x.Pos.Line, x.Pos.Col)
			g.emitf("}")
			t := g.newTmp()
			g.emitf("%s := %s %% %s", t, l, r)
			return t, true
		}
		g.emitf("_, _ = %s, %s", l, r)
		g.emitf("return m.ModFloat(%d, %d)", x.Pos.Line, x.Pos.Col)
		// Unreachable; give the caller a well-typed placeholder.
		return "int64(0)", true
	}
	op := map[lang.BinOp]string{lang.BinAdd: "+", lang.BinSub: "-", lang.BinMul: "*", lang.BinDiv: "/"}[x.Op]
	l, lInt := g.expr(x.L)
	r, rInt := g.expr(x.R)
	if lInt && rInt {
		if x.Op == lang.BinDiv {
			g.emitf("if %s == 0 {", r)
			g.emitf("\treturn m.DivZero(%d, %d)", x.Pos.Line, x.Pos.Col)
			g.emitf("}")
		}
		t := g.newTmp()
		g.emitf("%s := %s %s %s", t, l, op, r)
		return t, true
	}
	lf, rf := g.toFloat(l, lInt), g.toFloat(r, rInt)
	if x.Op == lang.BinDiv {
		g.emitf("if %s == 0 {", rf)
		g.emitf("\treturn m.DivZero(%d, %d)", x.Pos.Line, x.Pos.Col)
		g.emitf("}")
	}
	t := g.newTmp()
	g.emitf("%s := float64(%s %s %s)", t, lf, op, rf)
	return t, false
}

func (g *srcGen) callExpr(x *lang.Call) (string, bool) {
	switch x.Name {
	case "sqrt":
		g.needsMath = true
		val, isInt := g.expr(x.Args[0])
		t := g.newTmp()
		g.emitf("%s := float64(math.Sqrt(%s))", t, g.toFloat(val, isInt))
		return t, false
	case "abs":
		val, isInt := g.expr(x.Args[0])
		t := g.newTmp()
		if isInt {
			g.emitf("%s := codegen.AbsI(%s)", t, val)
			return t, true
		}
		g.needsMath = true
		g.emitf("%s := math.Abs(%s)", t, val)
		return t, false
	case "min", "max":
		l, lInt := g.expr(x.Args[0])
		r, rInt := g.expr(x.Args[1])
		t := g.newTmp()
		if lInt && rInt {
			fn := "codegen.MinI"
			if x.Name == "max" {
				fn = "codegen.MaxI"
			}
			g.emitf("%s := %s(%s, %s)", t, fn, l, r)
			return t, true
		}
		g.needsMath = true
		fn := "math.Min"
		if x.Name == "max" {
			fn = "math.Max"
		}
		g.emitf("%s := float64(%s(%s, %s))", t, fn, g.toFloat(l, lInt), g.toFloat(r, rInt))
		return t, false
	default:
		panic(fmt.Sprintf("codegen: %s: unknown intrinsic %s", x.Pos, x.Name))
	}
}
