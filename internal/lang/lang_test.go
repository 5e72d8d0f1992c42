package lang

import (
	"strings"
	"testing"
)

const choleskySrc = `
program cholesky(n)
float A[n][n];
# Figure 2 of the paper
for j = 0 to n - 1 {
  S1: A[j][j] = sqrt(A[j][j]);
  for i = j + 1 to n - 1 {
    S2: A[i][j] = A[i][j] / A[j][j];
  }
}
`

const irregularSrc = `
program pagerankish(n, maxiter)
float p_new[n];
float temp1, temp2, temp3;
int cols[n];
int iter;
iter = 0;
while (iter < maxiter) {
  for j1 = 0 to n - 1 {
    S1: temp1 += p_new[cols[j1]];
  }
  for j2 = 0 to n - 1 {
    S2: temp2 += p_new[j2];
  }
  for j3 = 0 to n - 1 {
    S3: p_new[j3] = temp3;
  }
  iter = iter + 1;
}
`

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize("for j = 0 to n-1 { A[j] += 2.5; } // comment\n# another")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TokFor, TokIdent, TokAssign, TokInt, TokTo, TokIdent,
		TokMinus, TokInt, TokLBrace, TokIdent, TokLBracket, TokIdent,
		TokRBracket, TokPlusEq, TokFloat, TokSemicolon, TokRBrace, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	src := "== != <= >= < > && || ! % *= /= -="
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokEq, TokNe, TokLe, TokGe, TokLt, TokGt, TokAndAnd,
		TokOrOr, TokBang, TokPercent, TokStarEq, TokSlashEq, TokMinusEq, TokEOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestTokenizeFloats(t *testing.T) {
	toks, err := Tokenize("1.5 2e3 7 1.25e-2 3e")
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []TokKind{TokFloat, TokFloat, TokInt, TokFloat, TokInt, TokIdent, TokEOF}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d (%q) = %v, want %v", i, toks[i].Text, toks[i].Kind, k)
		}
	}
	// "3e" must lex as Int(3), Ident(e): 'e' without digits is not an exponent.
	if toks[4].Text != "3" || toks[5].Text != "e" {
		t.Errorf("3e lexed as %q %q", toks[4].Text, toks[5].Text)
	}
}

func TestTokenizeIllegalChar(t *testing.T) {
	_, err := Tokenize("a @ b")
	if err == nil {
		t.Fatal("expected error for illegal character")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Pos.Line != 1 || se.Pos.Col != 3 {
		t.Errorf("error position %v, want 1:3", se.Pos)
	}
}

func TestTokenPositions(t *testing.T) {
	toks, err := Tokenize("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v", toks[1].Pos)
	}
}

func TestParseCholesky(t *testing.T) {
	p, err := Parse(choleskySrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "cholesky" || len(p.Params) != 1 || p.Params[0] != "n" {
		t.Fatalf("header parsed wrong: %v %v", p.Name, p.Params)
	}
	if d := p.Decl("A"); d == nil || !d.IsArray() || len(d.Dims) != 2 || d.Type != TypeFloat {
		t.Fatal("array A parsed wrong")
	}
	if len(p.Body) != 1 {
		t.Fatalf("body has %d statements", len(p.Body))
	}
	outer, ok := p.Body[0].(*For)
	if !ok || outer.Iter != "j" {
		t.Fatalf("outer loop parsed wrong: %T", p.Body[0])
	}
	if len(outer.Body) != 2 {
		t.Fatalf("outer body has %d statements", len(outer.Body))
	}
	s1, ok := outer.Body[0].(*Assign)
	if !ok || s1.Label != "S1" {
		t.Fatalf("S1 parsed wrong")
	}
	if _, ok := s1.RHS.(*Call); !ok {
		t.Error("S1 RHS should be a sqrt call")
	}
	inner, ok := outer.Body[1].(*For)
	if !ok || inner.Iter != "i" {
		t.Fatal("inner loop parsed wrong")
	}
	s2 := inner.Body[0].(*Assign)
	if s2.Label != "S2" || s2.Op != OpSet {
		t.Error("S2 parsed wrong")
	}
	if err := Check(p); err != nil {
		t.Errorf("cholesky should typecheck: %v", err)
	}
}

func TestParseIrregular(t *testing.T) {
	p, err := Parse(irregularSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(p); err != nil {
		t.Fatal(err)
	}
	w, ok := p.Body[1].(*While)
	if !ok {
		t.Fatalf("statement 1 is %T, want While", p.Body[1])
	}
	cond, ok := w.Cond.(*Bin)
	if !ok || cond.Op != BinLt {
		t.Error("while condition parsed wrong")
	}
	// S1's subscript is the indirect access cols[j1].
	s1 := w.Body[0].(*For).Body[0].(*Assign)
	if s1.Op != OpAdd {
		t.Error("S1 should be +=")
	}
	ref := s1.RHS.(*Ref)
	if ref.Name != "p_new" || len(ref.Indices) != 1 {
		t.Fatal("S1 RHS ref wrong")
	}
	if inner, ok := ref.Indices[0].(*Ref); !ok || inner.Name != "cols" {
		t.Error("indirect subscript parsed wrong")
	}
}

func TestParseChecksumPrimitives(t *testing.T) {
	src := `
program t(n)
float A[n];
for j = 0 to n - 1 {
  add_to_chksm(use_cs, A[j], 1);
  S1: A[j] = A[j] + 1.0;
  add_to_chksm(def_cs, A[j], n - 1 - j);
}
assert_checksums();
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(p); err != nil {
		t.Fatal(err)
	}
	loop := p.Body[0].(*For)
	use, ok := loop.Body[0].(*AddToChecksum)
	if !ok || use.CS != UseCS {
		t.Fatal("use checksum parsed wrong")
	}
	def := loop.Body[2].(*AddToChecksum)
	if def.CS != DefCS {
		t.Fatal("def checksum parsed wrong")
	}
	if _, ok := p.Body[1].(*AssertChecksums); !ok {
		t.Fatal("assert_checksums parsed wrong")
	}
}

func TestParseIfElse(t *testing.T) {
	src := `
program t(n)
float x;
int c;
if (c > 0) {
  x = 1.0;
} else if (c < 0) {
  x = 2.0;
} else {
  x = 3.0;
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(p); err != nil {
		t.Fatal(err)
	}
	ifs := p.Body[0].(*If)
	if len(ifs.Else) != 1 {
		t.Fatalf("else-if chain parsed wrong")
	}
	if _, ok := ifs.Else[0].(*If); !ok {
		t.Error("else branch should be a nested if")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                   // no program keyword
		"program x",                          // missing parens
		"program x() float A[n]",             // missing semicolon
		"program x() y = ;",                  // missing rhs
		"program x() for j = 0 { }",          // missing 'to'
		"program x() S1: for j = 0 to 1 { }", // label on non-assignment
		"program x() add_to_chksm(bogus_cs, 1, 1);", // unknown checksum
		"program x() float y; y = sqrt(1.0, 2.0);",  // wrong arity
		"program x() if (1 < 2) { ",                 // unterminated block
		"program x() y @ 3;",                        // lex error propagates
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{"program x(n) n = 1;", "parameter"},
		{"program x(n) y = 1;", "undeclared"},
		{"program x(n) float A[n]; A = 1.0;", "subscript"},
		{"program x(n) float A[n]; A[0][1] = 1.0;", "subscript"},
		{"program x(n) float y; y[3] = 1.0;", "subscript"},
		{"program x(n) float y; for n = 0 to 5 { y = 1.0; }", "shadows"},
		{"program x(n) float y; for j = 0 to 5 { for j = 0 to 5 { y = 1.0; } }", "shadows"},
		{"program x(n) float y; for j = 0 to 5 { j = 3; }", "iterator"},
		{"program x(n) float A[n]; float f; A[f] = 1.0;", "integer context"},
		{"program x(n) float A[n]; A[1.5] = 1.0;", "integer context"},
		{"program x(n) float y; y = z + 1.0;", "undeclared"},
		{"program x(n, n) float y;", "duplicate"},
		{"program x(n) float y; float y;", "duplicate"},
		{"program x(n) float A[n]; A[1 < 2] = 1.0;", "integer context"},
		{"program x(n) float y; float r = y; float r = y;", "shadows"},
		{"program x(n) float y; for j = 0 to 5 { int j = 1; }", "shadows"},
		{"program x(n) float y; float r = y; r = 1.0;", "register"},
		{"program x(n) float y; float r = y; y = r[0];", "not an array"},
		{"program x(n) float A[n]; float r = 1.0; A[r] = 1.0;", "integer context"},
		{"program x(n) float y; for j = 0 to 5 { float r = y; } y = r;", "undeclared"},
	}
	for _, c := range cases {
		p, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q) failed at parse time: %v", c.src, err)
			continue
		}
		err = Check(p)
		if err == nil {
			t.Errorf("Check(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Check(%q) error %q does not mention %q", c.src, err, c.wantSub)
		}
	}
}

func TestPrintRoundTrip(t *testing.T) {
	for _, src := range []string{choleskySrc, irregularSrc} {
		p1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		printed := Print(p1)
		p2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparsing printed output failed: %v\n%s", err, printed)
		}
		if Print(p2) != printed {
			t.Errorf("print is not a fixed point:\n%s\nvs\n%s", printed, Print(p2))
		}
	}
}

func TestPrintParenthesization(t *testing.T) {
	// (a + b) * c must keep its parentheses; a + b * c must not gain any.
	src := "program t() float a, b, c, y; y = (a + b) * c; y = a + b * c; y = a - (b - c); y = a / (b * c);"
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := Print(p)
	for _, want := range []string{"(a + b) * c", "a + b * c", "a - (b - c)", "a / (b * c)"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q:\n%s", want, out)
		}
	}
	// Round-trip preserves semantics structurally.
	p2, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if Print(p2) != out {
		t.Error("parenthesized print not stable")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := MustParse(choleskySrc)
	orig := p.Body[0].(*For)
	cl := CloneStmt(orig).(*For)
	cl.Iter = "zz"
	cl.Body[0].(*Assign).Label = "CHANGED"
	if orig.Iter != "j" || orig.Body[0].(*Assign).Label != "S1" {
		t.Error("CloneStmt shares memory with the original")
	}
}

func TestWalkAndRefs(t *testing.T) {
	p := MustParse(choleskySrc)
	var labels []string
	WalkStmts(p.Body, func(s Stmt) bool {
		if a, ok := s.(*Assign); ok {
			labels = append(labels, a.Label)
		}
		return true
	})
	if len(labels) != 2 || labels[0] != "S1" || labels[1] != "S2" {
		t.Errorf("labels = %v", labels)
	}
	s2 := p.Body[0].(*For).Body[1].(*For).Body[0].(*Assign)
	refs := ExprRefs(s2.RHS)
	// A[i][j] / A[j][j]: refs are the two array refs plus i,j,j,j subscripts.
	if len(refs) != 6 {
		t.Errorf("got %d refs, want 6", len(refs))
	}
}

func TestIsAffine(t *testing.T) {
	p := MustParse(`
program t(n)
float A[n];
int idx[n];
for j = 0 to n - 1 {
  A[2 * j + 1] = 1.0;
  A[j * j] = 2.0;
  A[idx[j]] = 3.0;
  A[n - j - 1] = 4.0;
}
`)
	isVar := func(name string) bool { return name == "j" || name == "n" }
	loop := p.Body[0].(*For)
	subs := make([]Expr, 4)
	for i := 0; i < 4; i++ {
		subs[i] = loop.Body[i].(*Assign).LHS.Indices[0]
	}
	wants := []bool{true, false, false, true}
	for i, want := range wants {
		if got := IsAffine(subs[i], isVar); got != want {
			t.Errorf("subscript %d: IsAffine = %v, want %v", i, got, want)
		}
	}
	if !IsAffine(loop.Lo, isVar) || !IsAffine(loop.Hi, isVar) {
		t.Error("loop bounds should be affine")
	}
}

func TestCSNameParse(t *testing.T) {
	for i, name := range []string{"def_cs", "use_cs", "e_def_cs", "e_use_cs"} {
		cs, ok := ParseCSName(name)
		if !ok || int(cs) != i {
			t.Errorf("ParseCSName(%q) = %v, %v", name, cs, ok)
		}
		if cs.String() != name {
			t.Errorf("String() = %q", cs.String())
		}
	}
	if _, ok := ParseCSName("nope"); ok {
		t.Error("bogus name accepted")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse("not a program")
}

func TestKernelLoop(t *testing.T) {
	p := MustParse(`
program k(n)
float A[n], s;
s = 0.0;
for i = 0 to n - 1 {
  A[i] = 0.0;
}
for i = 0 to n - 1 {
  for j = 0 to n - 1 {
    A[i] = A[i] + 1.0;
  }
}
for j = 0 to n - 1 {
  for i = 0 to n - 1 {
    A[i] = A[i] + 2.0;
  }
}
s = A[0];
`)
	pre, loop, post := KernelLoop(p.Body)
	if len(pre) != 2 || loop != p.Body[2] || len(post) != 2 {
		t.Fatalf("split %d | %v | %d, want the first of the two tied nests at statement 2", len(pre), loop, len(post))
	}
	flat := MustParse("program f(n)\nfloat s;\ns = 1.0;\nwhile (s < 0.5) {\n  s = s + 1.0;\n}\n")
	if pre, loop, post := KernelLoop(flat.Body); len(pre) != 2 || loop != nil || post != nil {
		t.Fatalf("no top-level for: split %d | %v | %d, want the whole body as prologue", len(pre), loop, len(post))
	}
}
