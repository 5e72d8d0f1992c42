package codegen_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"defuse/internal/bench"
	"defuse/internal/codegen"
)

// helperName matches a helper the source generator cuts out of an entry
// function: <entry>_n<k>.
var helperName = regexp.MustCompile(`^(run_\w+?)_n[0-9]+$`)

// bodyNodes counts the go/ast nodes in a function body, the measure
// codegen.MaxFuncNodes caps.
func bodyNodes(fd *ast.FuncDecl) int {
	n := 0
	ast.Inspect(fd.Body, func(x ast.Node) bool {
		if x != nil {
			n++
		}
		return true
	})
	return n
}

// TestSourceNestsAreFunctions renders every benchmark variant and checks the
// shape of the output: the Originals, which have no folds, have no helpers;
// no function's body exceeds the size cap; and every helper is called
// exactly once. It parses the source and compiles nothing.
func TestSourceNestsAreFunctions(t *testing.T) {
	for _, b := range bench.Suite() {
		src, err := codegen.SourceFile("gennative", kernelFuncs(t, b))
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(token.NewFileSet(), b.Name+".go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		calls := map[string]int{}
		ast.Inspect(f, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if id, ok := c.Fun.(*ast.Ident); ok {
					calls[id.Name]++
				}
			}
			return true
		})
		helpers := map[string]int{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if n := bodyNodes(fd); n > codegen.MaxFuncNodes {
				t.Errorf("%s: %d go/ast nodes, over the cap of %d", name, n, codegen.MaxFuncNodes)
			}
			m := helperName.FindStringSubmatch(name)
			if m == nil {
				continue
			}
			helpers[m[1]]++
			if strings.HasSuffix(m[1], "_original") {
				t.Errorf("%s: an Original has a helper", name)
			}
			if calls[name] != 1 {
				t.Errorf("%s: called %d times, want once", name, calls[name])
			}
		}
		var counts []string
		for entry, n := range helpers {
			counts = append(counts, fmt.Sprintf("%s %d", entry, n))
		}
		sort.Strings(counts)
		t.Logf("%s helpers: %s", b.Name, strings.Join(counts, ", "))
	}
}

// inlineKinds maps the hot-path calls of generated code to the callee name
// the compiler's -m output gives when it inlines them.
var inlineKinds = map[string]string{
	"cs.Fold":  "checksum.(*Folds).Fold",
	"m.LoadF":  "machine.(*State).LoadF",
	"m.StoreF": "machine.(*State).StoreF",
}

// inlineSite is an inlined call as the compiler reports it: the file's base
// name, the line and column of the call's opening parenthesis, and the
// callee. A call's inlined callees all report at its position.
type inlineSite struct {
	file      string
	line, col int
	callee    string
}

// TestGennativeInlines builds the generated kernels with -gcflags=-m and
// checks that Go inlines the hot path: at least 95% of the cs.Fold, m.LoadF
// and m.StoreF call sites of every kind, and of every generated function,
// must inline. A function too big for the inliner (5,000 IR nodes) inlines
// almost none of them.
func TestGennativeInlines(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the generated kernels")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	cmd := exec.Command(gobin, "build", "-gcflags=-m", "./gennative/")
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	inlined := map[inlineSite]bool{}
	line := regexp.MustCompile(`^(\S+\.go):([0-9]+):([0-9]+): inlining call to (\S+)$`)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if m := line.FindStringSubmatch(sc.Text()); m != nil {
			ln, _ := strconv.Atoi(m[2])
			col, _ := strconv.Atoi(m[3])
			inlined[inlineSite{filepath.Base(m[1]), ln, col, m[4]}] = true
		}
	}

	paths, err := filepath.Glob(filepath.Join("gennative", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	// Call sites and inlined call sites per generated function and kind.
	type key struct{ fn, kind string }
	sites, hits := map[key]int{}, map[key]int{}
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				c, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := c.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				kind := x.Name + "." + sel.Sel.Name
				callee, hot := inlineKinds[kind]
				if !hot {
					return true
				}
				p := fset.Position(c.Lparen)
				k := key{fd.Name.Name, kind}
				sites[k]++
				if inlined[inlineSite{filepath.Base(p.Filename), p.Line, p.Column, callee}] {
					hits[k]++
				}
				return true
			})
		}
	}

	below := func(hit, all int) bool { return hit*100 < 95*all }
	kinds := []string{"cs.Fold", "m.LoadF", "m.StoreF"}
	var keys []key
	for k := range sites {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].fn < keys[j].fn || keys[i].fn == keys[j].fn && keys[i].kind < keys[j].kind
	})
	for _, kind := range kinds {
		hit, all := 0, 0
		for _, k := range keys {
			if k.kind == kind {
				hit, all = hit+hits[k], all+sites[k]
			}
		}
		if all == 0 {
			t.Fatalf("no %s call sites in the generated kernels", kind)
		}
		t.Logf("%s: %d of %d sites inline", kind, hit, all)
		if below(hit, all) {
			t.Errorf("%s: only %d of %d sites inline, want at least 95%%", kind, hit, all)
		}
	}
	for _, k := range keys {
		if below(hits[k], sites[k]) {
			t.Errorf("%s: %d of %d %s sites inline, want at least 95%%", k.fn, hits[k], sites[k], k.kind)
		}
	}
}
