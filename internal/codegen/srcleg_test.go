package codegen_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"defuse/internal/checksum"
	"defuse/internal/codegen"
	"defuse/internal/interp"
	"defuse/internal/lang"
)

// The source leg of the differential oracle. The committed kernels run in
// process through gennative; any other program a test builds has no
// compiled form until its rendered source is built. The source leg renders
// every program of sourceLegCases with codegen.SourceFile into one package
// of a throwaway module, builds it once with the local toolchain and no
// network, runs each program from the same initial memory as the
// interpreter, and reads back its end state.

// legCase is one program the source leg renders and runs.
type legCase struct {
	name   string
	prog   *lang.Program
	params map[string]int64
	kind   checksum.Kind
	init   func(host) error // nil: memory starts zeroed
}

// legRun is a program's observable end state on one backend: every memory
// word, the checksum pair with its shadows, and the error the run returned.
// Msg and Pos are a runtime error's message and position.
type legRun struct {
	Words []uint64
	Pair  [8]uint64
	Err   string
	Msg   string
	Pos   lang.Pos
}

// newLegInterp builds and initializes the interpreter machine of a case.
func newLegInterp(c legCase) (*interp.Machine, error) {
	m, err := interp.New(c.prog, c.params, interp.WithChecksumKind(c.kind))
	if err != nil {
		return nil, fmt.Errorf("%s: interp.New: %w", c.name, err)
	}
	if c.init != nil {
		if err := c.init(m); err != nil {
			return nil, fmt.Errorf("%s: init: %w", c.name, err)
		}
	}
	return m, nil
}

// interpLeg runs a case on the interpreter.
func interpLeg(t *testing.T, c legCase) legRun {
	t.Helper()
	m, err := newLegInterp(c)
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run()
	r := legRun{Words: m.Mem().Words(), Pair: pairState(m.Pair())}
	if err != nil {
		r.Err = err.Error()
	}
	var re *interp.RuntimeError
	if errors.As(err, &re) {
		r.Msg, r.Pos = re.Msg, re.Pos
	}
	return r
}

// diffLeg asserts that the generated source ended a case in the
// interpreter's state: every word, the pair and its shadows, and the error
// modulo its backend prefix.
func diffLeg(t *testing.T, want, got legRun) {
	t.Helper()
	if normMsg(want.Err) != normMsg(got.Err) || want.Msg != got.Msg || want.Pos != got.Pos {
		t.Fatalf("error diverged: interp %q, native %q", want.Err, got.Err)
	}
	diffFullState(t, "source leg", want.Words, got.Words, want.Pair, got.Pair)
}

// sourceLegCases lists every program the source leg builds.
func sourceLegCases() ([]legCase, error) {
	cases, err := progenLegCases()
	if err != nil {
		return nil, err
	}
	errCases, err := errorLegCases()
	if err != nil {
		return nil, err
	}
	return append(cases, errCases...), nil
}

// sourceLeg holds the native end state of every source-leg case, by name.
// The module is built once per test binary, by the first test that asks.
var sourceLeg struct {
	once sync.Once
	runs map[string]legRun
	err  error
}

// nativeLeg returns the generated source's end state of every source-leg
// case, building it on first use. It skips as TestGennativeInlines does:
// under -short, and when no go command is on PATH.
func nativeLeg(t *testing.T) map[string]legRun {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the generated source of every source-leg program")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	sourceLeg.once.Do(func() { sourceLeg.runs, sourceLeg.err = buildSourceLeg(gobin, t.TempDir()) })
	if sourceLeg.err != nil {
		t.Fatal(sourceLeg.err)
	}
	return sourceLeg.runs
}

// legInput is what the driver needs to run one case: the program text, to
// lay out its machine, and the initial memory.
type legInput struct {
	Prog   string
	Params map[string]int64
	Kind   checksum.Kind
	Words  []uint64
}

// buildSourceLeg renders every case into dir as one main package of a
// module named defuse/srcleg that resolves defuse to this repository,
// builds it offline, runs it, and returns each case's end state.
func buildSourceLeg(gobin, dir string) (map[string]legRun, error) {
	cases, err := sourceLegCases()
	if err != nil {
		return nil, err
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		return nil, err
	}
	var funcs []codegen.SourceFunc
	var ins []legInput
	var table bytes.Buffer
	for i, c := range cases {
		name := fmt.Sprintf("run_case%d", i)
		funcs = append(funcs, codegen.SourceFunc{FuncName: name, Comment: c.name, Prog: c.prog})
		fmt.Fprintf(&table, "\t%s,\n", name)
		m, err := newLegInterp(c)
		if err != nil {
			return nil, err
		}
		ins = append(ins, legInput{Prog: lang.Print(c.prog), Params: c.params, Kind: c.kind, Words: m.Mem().Words()})
	}
	src, err := codegen.SourceFile("main", funcs)
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(ins)
	if err != nil {
		return nil, err
	}
	gomod := fmt.Sprintf("module defuse/srcleg\n\ngo 1.22\n\nrequire defuse v0.0.0\n\nreplace defuse => %s\n", root)
	for name, body := range map[string][]byte{
		"go.mod":     []byte(gomod),
		"kernels.go": src,
		"main.go":    []byte(fmt.Sprintf(legDriver, table.String())),
		"input.json": in,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			return nil, err
		}
	}
	build := exec.Command(gobin, "build", "-o", "srcleg", ".")
	build.Dir = dir
	build.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off", "GOFLAGS=-mod=mod", "GOWORK=off")
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build of the source leg: %v\n%s", err, out)
	}
	run := exec.Command(filepath.Join(dir, "srcleg"), filepath.Join(dir, "input.json"))
	var stderr bytes.Buffer
	run.Stderr = &stderr
	out, err := run.Output()
	if err != nil {
		return nil, fmt.Errorf("source leg run: %v\n%s", err, stderr.Bytes())
	}
	var got []legRun
	if err := json.Unmarshal(out, &got); err != nil {
		return nil, fmt.Errorf("source leg output: %v", err)
	}
	if len(got) != len(cases) {
		return nil, fmt.Errorf("source leg ran %d programs, want %d", len(got), len(cases))
	}
	runs := map[string]legRun{}
	for i, c := range cases {
		runs[c.name] = got[i]
	}
	return runs, nil
}

// legDriver is the source leg's main.go; %s is the list of generated
// functions, in input order. It runs each one from its input memory and
// prints the end states as JSON.
const legDriver = `package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"defuse/internal/checksum"
	"defuse/internal/codegen"
	"defuse/internal/lang"
)

var fns = []codegen.Fn{
%s}

type input struct {
	Prog   string
	Params map[string]int64
	Kind   checksum.Kind
	Words  []uint64
}

type output struct {
	Words []uint64
	Pair  [8]uint64
	Err   string
	Msg   string
	Pos   lang.Pos
}

func run(fn codegen.Fn, in input) (output, error) {
	prog, err := lang.Parse(in.Prog)
	if err != nil {
		return output{}, err
	}
	m, err := codegen.MachineFor(prog, in.Params, codegen.WithChecksumKind(in.Kind))
	if err != nil {
		return output{}, err
	}
	if m.Mem().Size() != len(in.Words) {
		return output{}, fmt.Errorf("%%d words of memory, input has %%d", m.Mem().Size(), len(in.Words))
	}
	for a, w := range in.Words {
		m.Mem().Poke(a, w)
	}
	var out output
	if err := fn(m, 0, 1); err != nil {
		out.Err = err.Error()
		var re *codegen.RuntimeError
		if errors.As(err, &re) {
			out.Msg, out.Pos = re.Msg, re.Pos
		}
	}
	out.Words = m.Mem().Words()
	p := m.Pair()
	sh := p.Shadows()
	out.Pair = [8]uint64{p.Def, p.Use, p.EDef, p.EUse, sh[0], sh[1], sh[2], sh[3]}
	return out, nil
}

func main() {
	b, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var ins []input
	if err := json.Unmarshal(b, &ins); err != nil || len(ins) != len(fns) {
		fmt.Fprintf(os.Stderr, "%%d inputs for %%d programs: %%v\n", len(ins), len(fns), err)
		os.Exit(1)
	}
	outs := make([]output, len(ins))
	for i, in := range ins {
		if outs[i], err = run(fns[i], in); err != nil {
			fmt.Fprintf(os.Stderr, "program %%d: %%v\n", i, err)
			os.Exit(1)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(outs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
`
