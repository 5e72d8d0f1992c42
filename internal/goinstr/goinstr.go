// Package goinstr instruments Go source code with the paper's def-use
// checksum scheme, via go/ast rewriting. It is the Go-native counterpart of
// the lang-based compiler: every tracked local variable's definitions and
// uses are augmented with calls into defuse/rt (the general
// dynamic-use-count scheme of Algorithm 3 / Section 4.1, with auxiliary
// e_def/e_use checksums), and a deferred epilogue performs the final
// adjustments and verification.
//
// Scope: function-level variables (parameters and top-level declarations in
// the function body) of type float64 or int are tracked. Variables whose
// address is taken, that appear in control-flow conditions (the paper's
// fault model protects control variables by other means), or that are
// declared in nested blocks are left untouched.
package goinstr

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"strconv"
)

// Options configures the instrumenter.
type Options struct {
	// Funcs restricts instrumentation to the named functions; empty means
	// every function in the file.
	Funcs []string
}

const (
	// trackerVar is the identifier the instrumented code binds its
	// rt.Tracker to.
	trackerVar = "__defuseT"
	// rtImport is the import path of the runtime package.
	rtImport = "defuse/rt"
)

// Report describes what was instrumented.
type Report struct {
	// Tracked maps function name to the tracked variable names.
	Tracked map[string][]string
	// Skipped maps function name to variables excluded and why.
	Skipped map[string]map[string]string
}

// Instrument rewrites the Go source file src (named filename for
// diagnostics) and returns the instrumented source text.
func Instrument(filename, src string, opt Options) (string, *Report, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return "", nil, fmt.Errorf("goinstr: %w", err)
	}
	rep := &Report{Tracked: map[string][]string{}, Skipped: map[string]map[string]string{}}
	want := map[string]bool{}
	for _, f := range opt.Funcs {
		want[f] = true
	}
	touched := false
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		if len(want) > 0 && !want[fn.Name.Name] {
			continue
		}
		ins := &funcInstr{rep: rep, fn: fn}
		if ins.run() {
			touched = true
		}
	}
	if touched {
		addImport(file, "rt", rtImport)
	}
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}
	if err := cfg.Fprint(&buf, fset, file); err != nil {
		return "", nil, fmt.Errorf("goinstr: printing: %w", err)
	}
	return buf.String(), rep, nil
}

// trackedVar is one protected variable.
type trackedVar struct {
	obj     *ast.Object
	name    string
	typ     string // "float64" or "int"
	counter string // shadow counter identifier
}

type funcInstr struct {
	rep  *Report
	fn   *ast.FuncDecl
	vars map[*ast.Object]*trackedVar
	seq  int
}

// run instruments one function; it reports whether anything was tracked.
func (fi *funcInstr) run() bool {
	fi.vars = map[*ast.Object]*trackedVar{}
	skipped := map[string]string{}

	candidates := fi.collectCandidates()
	fi.excludeUnsafe(candidates, skipped)
	if len(skipped) > 0 {
		fi.rep.Skipped[fi.fn.Name.Name] = skipped
	}
	if len(candidates) == 0 {
		return false
	}
	var names []string
	for _, tv := range candidates {
		tv.counter = fmt.Sprintf("__defuseC%d", fi.seq)
		fi.seq++
		fi.vars[tv.obj] = tv
		names = append(names, tv.name)
	}
	fi.rep.Tracked[fi.fn.Name.Name] = names

	// Hoist tracked declarations so the prelude and the deferred epilogue
	// can reference every tracked variable, then rewrite the body.
	params := fi.paramObjs()
	fi.hoistDecls(params)
	fi.rewriteBlock(fi.fn.Body)

	// Prelude: tracker, counters, hoisted declarations, initial definitions
	// (parameters carry live-in values; hoisted variables start at zero),
	// and the deferred epilogue.
	var prelude []ast.Stmt
	prelude = append(prelude, assign1(ident(trackerVar), token.DEFINE, call(sel("rt", "NewTracker"))))
	for _, tv := range fi.sorted() {
		prelude = append(prelude, &ast.DeclStmt{Decl: &ast.GenDecl{
			Tok: token.VAR,
			Specs: []ast.Spec{&ast.ValueSpec{
				Names: []*ast.Ident{ident(tv.counter)},
				Type:  sel("rt", "Counter"),
			}},
		}})
	}
	for _, tv := range fi.sorted() {
		if params[tv.obj] {
			continue
		}
		prelude = append(prelude, &ast.DeclStmt{Decl: &ast.GenDecl{
			Tok: token.VAR,
			Specs: []ast.Spec{&ast.ValueSpec{
				Names: []*ast.Ident{ident(tv.name)},
				Type:  ident(tv.typ),
			}},
		}})
	}
	for _, tv := range fi.sorted() {
		prelude = append(prelude, assign1(ident(tv.name), token.ASSIGN,
			call(sel("rt", "DefDyn"), ident(trackerVar), amp(tv.counter), zeroOf(tv.typ), ident(tv.name))))
	}
	// Deferred epilogue: Final every tracked var, then verify.
	var epi []ast.Stmt
	for _, tv := range fi.sorted() {
		epi = append(epi, exprStmt(call(sel("rt", "Final"),
			ident(trackerVar), amp(tv.counter), ident(tv.name))))
	}
	epi = append(epi, exprStmt(&ast.CallExpr{
		Fun: &ast.SelectorExpr{X: ident(trackerVar), Sel: ident("MustVerify")},
	}))
	prelude = append(prelude, &ast.DeferStmt{Call: &ast.CallExpr{
		Fun: &ast.FuncLit{
			Type: &ast.FuncType{Params: &ast.FieldList{}},
			Body: &ast.BlockStmt{List: epi},
		},
	}})

	fi.fn.Body.List = append(prelude, fi.fn.Body.List...)
	return true
}

func (fi *funcInstr) sorted() []*trackedVar {
	var out []*trackedVar
	for _, tv := range fi.vars {
		out = append(out, tv)
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].counter < out[i].counter {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

func (fi *funcInstr) paramObjs() map[*ast.Object]bool {
	out := map[*ast.Object]bool{}
	if fi.fn.Type.Params == nil {
		return out
	}
	for _, f := range fi.fn.Type.Params.List {
		for _, n := range f.Names {
			if n.Obj != nil {
				out[n.Obj] = true
			}
		}
	}
	return out
}

// collectCandidates finds parameters and top-level var declarations of
// supported types.
func (fi *funcInstr) collectCandidates() map[*ast.Object]*trackedVar {
	out := map[*ast.Object]*trackedVar{}
	addIdent := func(n *ast.Ident, typ string) {
		if n.Obj == nil || n.Name == "_" {
			return
		}
		out[n.Obj] = &trackedVar{obj: n.Obj, name: n.Name, typ: typ}
	}
	if fi.fn.Type.Params != nil {
		for _, f := range fi.fn.Type.Params.List {
			typ, ok := supportedType(f.Type)
			if !ok {
				continue
			}
			for _, n := range f.Names {
				addIdent(n, typ)
			}
		}
	}
	for _, s := range fi.fn.Body.List {
		switch st := s.(type) {
		case *ast.DeclStmt:
			gd, ok := st.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || vs.Type == nil {
					continue
				}
				if typ, ok := supportedType(vs.Type); ok {
					for _, n := range vs.Names {
						addIdent(n, typ)
					}
				}
			}
		}
	}
	// Defines ("x := expr") are typed by syntactic inference over literals
	// and already-known tracked variables, iterated to a fixed point so
	// chains like "temp := 0.0; sum := temp + 30.0" resolve.
	for {
		grew := false
		for _, s := range fi.fn.Body.List {
			st, ok := s.(*ast.AssignStmt)
			if !ok || st.Tok != token.DEFINE || len(st.Lhs) != 1 || len(st.Rhs) != 1 {
				continue
			}
			n, ok := st.Lhs[0].(*ast.Ident)
			if !ok || n.Obj == nil || out[n.Obj] != nil {
				continue
			}
			if typ, ok := inferType(st.Rhs[0], out); ok {
				addIdent(n, typ)
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	return out
}

// inferType determines a define's type from float/int literals and known
// tracked variables; anything it cannot prove stays untracked.
func inferType(e ast.Expr, known map[*ast.Object]*trackedVar) (string, bool) {
	switch x := e.(type) {
	case *ast.BasicLit:
		return literalType(x)
	case *ast.Ident:
		if x.Obj != nil {
			if tv := known[x.Obj]; tv != nil {
				return tv.typ, true
			}
		}
	case *ast.ParenExpr:
		return inferType(x.X, known)
	case *ast.UnaryExpr:
		if x.Op == token.SUB {
			return inferType(x.X, known)
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			lt, lok := inferType(x.X, known)
			rt, rok := inferType(x.Y, known)
			switch {
			case lok && rok && lt == rt:
				return lt, true
			case lok && rok: // mixed int/float cannot occur in valid Go
				return "", false
			case lok:
				return lt, true // other side is an untyped constant, usually
			case rok:
				return rt, true
			}
		}
	}
	return "", false
}

// supportedType recognizes the trackable type expressions.
func supportedType(e ast.Expr) (string, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return "", false
	}
	switch id.Name {
	case "float64", "int":
		return id.Name, true
	}
	return "", false
}

// literalType infers the type of a := initializer syntactically: float and
// integer literals only (anything else is left untracked rather than
// guessed).
func literalType(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.BasicLit:
		switch x.Kind {
		case token.FLOAT:
			return "float64", true
		case token.INT:
			return "int", true
		}
	case *ast.UnaryExpr:
		if x.Op == token.SUB {
			return literalType(x.X)
		}
	}
	return "", false
}

// excludeUnsafe removes candidates whose address is taken or that appear in
// control-flow conditions.
func (fi *funcInstr) excludeUnsafe(cands map[*ast.Object]*trackedVar, skipped map[string]string) {
	drop := func(obj *ast.Object, why string) {
		if tv, ok := cands[obj]; ok {
			skipped[tv.name] = why
			delete(cands, obj)
		}
	}
	var inCond func(e ast.Expr)
	inCond = func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Obj != nil {
				drop(id.Obj, "control variable (appears in a condition)")
			}
			return true
		})
	}
	ast.Inspect(fi.fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if id, ok := x.X.(*ast.Ident); ok && id.Obj != nil {
					drop(id.Obj, "address taken")
				}
			}
		case *ast.IfStmt:
			if x.Cond != nil {
				inCond(x.Cond)
			}
		case *ast.ForStmt:
			if x.Cond != nil {
				inCond(x.Cond)
			}
			// Loop index variables are control variables too.
			if x.Init != nil {
				if as, ok := x.Init.(*ast.AssignStmt); ok {
					for _, l := range as.Lhs {
						if id, ok := l.(*ast.Ident); ok && id.Obj != nil {
							drop(id.Obj, "loop index (control variable)")
						}
					}
				}
			}
		case *ast.SwitchStmt:
			if x.Tag != nil {
				inCond(x.Tag)
			}
		case *ast.RangeStmt:
			for _, l := range []ast.Expr{x.Key, x.Value} {
				if id, ok := l.(*ast.Ident); ok && id.Obj != nil {
					drop(id.Obj, "range variable (control variable)")
				}
			}
		case *ast.FuncLit:
			// Closures may capture and mutate: be conservative about any
			// candidate referenced inside.
			ast.Inspect(x.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && id.Obj != nil {
					drop(id.Obj, "captured by closure")
				}
				return true
			})
			return false
		}
		return true
	})
}

// hoistDecls normalizes the declarations of tracked non-parameter variables:
// "x := init" and "var x T = init" become plain assignments (so the rewrite
// pass instruments the definition), and bare "var x T" statements are
// dropped — the prelude re-declares every tracked variable, which also puts
// them in scope for the deferred verification epilogue.
func (fi *funcInstr) hoistDecls(params map[*ast.Object]bool) {
	var out []ast.Stmt
	for _, s := range fi.fn.Body.List {
		switch st := s.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE && len(st.Lhs) == 1 {
				if tv := fi.trackedIdent(st.Lhs[0]); tv != nil && !params[tv.obj] {
					st.Tok = token.ASSIGN
				}
			}
			out = append(out, st)
		case *ast.DeclStmt:
			gd, ok := st.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				out = append(out, st)
				continue
			}
			var keep []ast.Spec
			for _, spec := range gd.Specs {
				vs, isVS := spec.(*ast.ValueSpec)
				if !isVS || !fi.allTracked(vs) {
					keep = append(keep, spec)
					continue
				}
				// Initializers become assignments; bare declarations vanish
				// (the prelude re-declares the variables).
				for i, n := range vs.Names {
					if len(vs.Values) > i {
						out = append(out, assign1(ident(n.Name), token.ASSIGN, vs.Values[i]))
					}
				}
			}
			if len(keep) > 0 {
				gd.Specs = keep
				out = append(out, st)
			}
		default:
			out = append(out, s)
		}
	}
	fi.fn.Body.List = out
}

// allTracked reports whether every name in the spec is a tracked variable.
func (fi *funcInstr) allTracked(vs *ast.ValueSpec) bool {
	for _, n := range vs.Names {
		if n.Obj == nil || fi.vars[n.Obj] == nil {
			return false
		}
	}
	return len(vs.Names) > 0
}

// rewriteBlock rewrites statements in place.
func (fi *funcInstr) rewriteBlock(b *ast.BlockStmt) {
	for i, s := range b.List {
		b.List[i] = fi.rewriteStmt(s)
	}
}

func (fi *funcInstr) rewriteStmt(s ast.Stmt) ast.Stmt {
	switch x := s.(type) {
	case *ast.AssignStmt:
		return fi.rewriteAssign(x)
	case *ast.IncDecStmt:
		if tv := fi.trackedIdent(x.X); tv != nil {
			op := token.ADD
			if x.Tok == token.DEC {
				op = token.SUB
			}
			rhs := &ast.BinaryExpr{X: fi.useOf(tv), Op: op, Y: &ast.BasicLit{Kind: token.INT, Value: "1"}}
			return assign1(ident(tv.name), token.ASSIGN, fi.defDynOf(tv, rhs))
		}
		x.X = fi.rewriteExpr(x.X)
		return x
	case *ast.ExprStmt:
		x.X = fi.rewriteExpr(x.X)
		return x
	case *ast.ReturnStmt:
		for i, r := range x.Results {
			x.Results[i] = fi.rewriteExpr(r)
		}
		return x
	case *ast.IfStmt:
		// Condition reads are control uses: untouched by design.
		fi.rewriteBlock(x.Body)
		if els, ok := x.Else.(*ast.BlockStmt); ok {
			fi.rewriteBlock(els)
		} else if els, ok := x.Else.(*ast.IfStmt); ok {
			x.Else = fi.rewriteStmt(els)
		}
		return x
	case *ast.ForStmt:
		if x.Post != nil {
			x.Post = fi.rewriteStmt(x.Post)
		}
		fi.rewriteBlock(x.Body)
		return x
	case *ast.RangeStmt:
		fi.rewriteBlock(x.Body)
		return x
	case *ast.BlockStmt:
		fi.rewriteBlock(x)
		return x
	case *ast.SwitchStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for i, s2 := range cc.Body {
					cc.Body[i] = fi.rewriteStmt(s2)
				}
			}
		}
		return x
	case *ast.DeclStmt:
		return x
	}
	return s
}

func (fi *funcInstr) rewriteAssign(x *ast.AssignStmt) ast.Stmt {
	// Compound assignment to a tracked variable expands to the dynamic
	// scheme: the current value is a use, then the new value is defined.
	if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
		if tv := fi.trackedIdent(x.Lhs[0]); tv != nil {
			rhs := fi.rewriteExpr(x.Rhs[0])
			switch x.Tok {
			case token.ASSIGN:
				return assign1(ident(tv.name), x.Tok, fi.defDynOf(tv, rhs))
			case token.DEFINE:
				// hoistDecls converts tracked defines to assignments; a
				// remaining define cannot reference its own previous value.
				return assign1(ident(tv.name), x.Tok,
					call(sel("rt", "DefDyn"), ident(trackerVar), amp(tv.counter), zeroOf(tv.typ), paren(rhs)))
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				op := map[token.Token]token.Token{
					token.ADD_ASSIGN: token.ADD, token.SUB_ASSIGN: token.SUB,
					token.MUL_ASSIGN: token.MUL, token.QUO_ASSIGN: token.QUO,
				}[x.Tok]
				expanded := &ast.BinaryExpr{X: fi.useOf(tv), Op: op, Y: paren(rhs)}
				return assign1(ident(tv.name), token.ASSIGN, fi.defDynOf(tv, expanded))
			}
		}
	}
	for i, r := range x.Rhs {
		x.Rhs[i] = fi.rewriteExpr(r)
	}
	// Untracked LHS may still contain tracked subscript reads (a[x] = ...).
	for i, l := range x.Lhs {
		if ix, ok := l.(*ast.IndexExpr); ok {
			ix.Index = fi.rewriteExpr(ix.Index)
			x.Lhs[i] = ix
		}
	}
	return x
}

// rewriteExpr wraps every read of a tracked variable in rt.Use.
func (fi *funcInstr) rewriteExpr(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.Ident:
		if tv := fi.trackedIdent(x); tv != nil {
			return fi.useOf(tv)
		}
		return x
	case *ast.BinaryExpr:
		x.X = fi.rewriteExpr(x.X)
		x.Y = fi.rewriteExpr(x.Y)
		return x
	case *ast.UnaryExpr:
		if x.Op != token.AND { // &x stays untouched (var already excluded)
			x.X = fi.rewriteExpr(x.X)
		}
		return x
	case *ast.ParenExpr:
		x.X = fi.rewriteExpr(x.X)
		return x
	case *ast.CallExpr:
		for i, a := range x.Args {
			x.Args[i] = fi.rewriteExpr(a)
		}
		return x
	case *ast.IndexExpr:
		x.X = fi.rewriteExpr(x.X)
		x.Index = fi.rewriteExpr(x.Index)
		return x
	case *ast.SelectorExpr:
		return x // field reads are out of scope
	}
	return e
}

func (fi *funcInstr) trackedIdent(e ast.Expr) *trackedVar {
	id, ok := e.(*ast.Ident)
	if !ok || id.Obj == nil {
		return nil
	}
	return fi.vars[id.Obj]
}

func (fi *funcInstr) useOf(tv *trackedVar) ast.Expr {
	return call(sel("rt", "Use"), ident(trackerVar), amp(tv.counter), ident(tv.name))
}

func (fi *funcInstr) defDynOf(tv *trackedVar, rhs ast.Expr) ast.Expr {
	return call(sel("rt", "DefDyn"), ident(trackerVar), amp(tv.counter), ident(tv.name), paren(rhs))
}

// AST construction helpers.

func ident(name string) *ast.Ident { return ast.NewIdent(name) }

func sel(pkg, name string) ast.Expr {
	return &ast.SelectorExpr{X: ident(pkg), Sel: ident(name)}
}

func call(fun ast.Expr, args ...ast.Expr) ast.Expr {
	return &ast.CallExpr{Fun: fun, Args: args}
}

func amp(name string) ast.Expr {
	return &ast.UnaryExpr{Op: token.AND, X: ident(name)}
}

func paren(e ast.Expr) ast.Expr {
	switch e.(type) {
	case *ast.Ident, *ast.BasicLit, *ast.CallExpr, *ast.ParenExpr:
		return e
	}
	return &ast.ParenExpr{X: e}
}

func exprStmt(e ast.Expr) ast.Stmt { return &ast.ExprStmt{X: e} }

func assign1(lhs ast.Expr, tok token.Token, rhs ast.Expr) ast.Stmt {
	return &ast.AssignStmt{Lhs: []ast.Expr{lhs}, Tok: tok, Rhs: []ast.Expr{rhs}}
}

func zeroOf(typ string) ast.Expr {
	if typ == "float64" {
		return &ast.BasicLit{Kind: token.FLOAT, Value: "0.0"}
	}
	return &ast.BasicLit{Kind: token.INT, Value: "0"}
}

// addImport inserts an aliased import if not already present.
func addImport(f *ast.File, alias, path string) {
	for _, imp := range f.Imports {
		if imp.Path.Value == strconv.Quote(path) {
			return
		}
	}
	spec := &ast.ImportSpec{
		Name: ident(alias),
		Path: &ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(path)},
	}
	decl := &ast.GenDecl{Tok: token.IMPORT, Specs: []ast.Spec{spec}}
	f.Decls = append([]ast.Decl{decl}, f.Decls...)
	f.Imports = append(f.Imports, spec)
}
