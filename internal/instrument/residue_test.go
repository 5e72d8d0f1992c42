package instrument_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"defuse/internal/bench"
	"defuse/internal/instrument"
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
// fails the check.
type residueChecker struct {
	prog     *lang.Program
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

func (rc *residueChecker) walk(ss []lang.Stmt, dom []poly.Constraint, path []string) {
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
			rc.walk(x.Body, inner, append(path[:len(path):len(path)], head))
		case *lang.While:
			rc.walk(x.Body, dom, path)
		case *lang.If:
			cons, affine := rc.guard(x.Cond)
			if !affine || len(x.Else) != 0 {
				rc.walk(x.Then, dom, path)
				rc.walk(x.Else, dom, path)
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
			}
			rc.walk(x.Then, inner, append(path[:len(path):len(path)], "if ("+cond+")"))
		}
	}
}

// residue lists every loop that never runs, guard that is never true and
// guard conjunct its loop nest already decides in an instrumented program.
func residue(t testing.TB, prog *lang.Program, opt instrument.Options) []string {
	t.Helper()
	res, err := instrument.Instrument(prog, opt)
	if err != nil {
		t.Fatalf("%s %+v: instrument: %v", prog.Name, opt, err)
	}
	rc := &residueChecker{prog: res.Prog}
	rc.walk(res.Prog.Body, nil, []string{res.Prog.Name})
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

func progenProgram(t testing.TB, seed int64, indirect bool) *lang.Program {
	t.Helper()
	cfg := progen.DefaultConfig()
	cfg.WithIndirect = indirect
	gp := progen.Generate(rand.New(rand.NewSource(seed)), cfg)
	prog, err := lang.Parse(gp.Source)
	if err != nil {
		t.Fatalf("seed %d: generated program does not parse: %v\n%s", seed, err, gp.Source)
	}
	return prog
}

// TestNoResidue holds the instrumenter to emitting only code that can run:
// no loop that is empty in its loop nest, no guard that is never true there
// and no guard conjunct the loop nest implies, for every Table 2 kernel and
// for generated programs, under every option set.
func TestNoResidue(t *testing.T) {
	for _, b := range bench.Suite() {
		checkNoResidue(t, b.Name, b.Program())
	}
	for seed := int64(0); seed < 64; seed++ {
		for _, indirect := range []bool{false, true} {
			checkNoResidue(t, fmt.Sprintf("progen seed %d indirect=%v", seed, indirect), progenProgram(t, seed, indirect))
		}
	}
}

// FuzzNoResidue is the continuous form over generated programs.
func FuzzNoResidue(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, indirect bool) {
		checkNoResidue(t, fmt.Sprintf("progen seed %d indirect=%v", seed, indirect), progenProgram(t, seed, indirect))
	})
}
