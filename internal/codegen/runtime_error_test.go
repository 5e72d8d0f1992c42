package codegen_test

import (
	"fmt"
	"strings"
	"testing"

	"defuse/internal/checksum"
	"defuse/internal/lang"
)

// The error paths of the generated source: small failing programs run on
// the interpreter and through the source leg must report the same message
// at the same position and leave the same memory and checksum pair. A user
// sees one diagnostic whichever backend ran the program.

// errorCase is a failing program and the message it must fail with.
type errorCase struct {
	name, src string
	params    map[string]int64
	kind      checksum.Kind
	msg       string
}

// parityCases fail in each way a runtime error can arise.
var parityCases = []errorCase{
	{name: "float-mod", src: "program t() float x; float y; x = 5.0; y = x % 2.0;",
		msg: "% requires integer operands"},
	{name: "mod-zero", src: "program t() int x; int z; z = 0; x = 5 % z;",
		msg: "modulo by zero"},
	{name: "div-zero", src: "program t() float x; float z; z = 0.0; x = 1.0 / z;",
		msg: "division by zero"},
	{name: "out-of-bounds", src: "program t(n) float A[n]; A[n] = 1.0;", params: map[string]int64{"n": 3},
		msg: `index 3 out of bounds [0,3) in dimension 0 of "A"`},
}

// foldThenFail folds into all four accumulators, verifies once mid-body,
// folds again and then fails at the statement after it.
const foldThenFail = `program t(n)
float A[n];
float z;
float x;
for i = 0 to n - 1 {
  A[i] = i * 1.5 + 0.25;
  add_to_chksm(def_cs, A[i], 1);
  add_to_chksm(use_cs, A[i], 1);
}
assert_checksums();
for j = 0 to n - 1 {
  add_to_chksm(e_def_cs, A[j], j - 2);
  add_to_chksm(def_cs, A[j], 3);
  add_to_chksm(e_use_cs, j, -5);
}
`

// flushCases fold and then fail mid-body, under every commutative
// operator.
func flushCases() []errorCase {
	var cases []errorCase
	for _, k := range []checksum.Kind{checksum.ModAdd, checksum.XOR, checksum.OnesComp} {
		for _, c := range []struct{ name, tail, msg string }{
			{"out-of-bounds", "A[n] = 1.0;", `index 4 out of bounds [0,4) in dimension 0 of "A"`},
			{"div-zero", "z = 0.0; x = 1.0 / z;", "division by zero"},
		} {
			cases = append(cases, errorCase{name: k.String() + "/" + c.name, src: foldThenFail + c.tail,
				params: map[string]int64{"n": 4}, kind: k, msg: c.msg})
		}
	}
	return cases
}

// foldThenAssert folds every value twice into def and once into use, then
// asserts: its first assert_checksums (line 8, column 1) must report a
// def/use mismatch. Generated code flushes its delta file into the Pair
// before every assert_checksums; without that flush the assert would check
// a Pair that still balances and the run would go on past it.
const foldThenAssert = `program t(n)
float A[n];
for i = 0 to n - 1 {
  A[i] = i * 1.5 + 0.25;
  add_to_chksm(def_cs, A[i], 2);
  add_to_chksm(use_cs, A[i], 1);
}
assert_checksums();
A[0] = 1.0;
`

// assertCases run foldThenAssert under every commutative operator. msg is
// the mismatch the assert must report.
func assertCases() []errorCase {
	var cases []errorCase
	for _, k := range []checksum.Kind{checksum.ModAdd, checksum.XOR, checksum.OnesComp} {
		cases = append(cases, errorCase{name: k.String(), src: foldThenAssert,
			params: map[string]int64{"n": 4}, kind: k, msg: "def/use mismatch"})
	}
	return cases
}

// legCase names an error case as a source-leg program.
func (c errorCase) legCase(group string) (legCase, error) {
	prog, err := lang.Parse(c.src)
	if err != nil {
		return legCase{}, fmt.Errorf("%s/%s: %w", group, c.name, err)
	}
	return legCase{name: group + "/" + c.name, prog: prog, params: c.params, kind: c.kind}, nil
}

// errorLegCases lists the failing programs of both tests below.
func errorLegCases() ([]legCase, error) {
	var cases []legCase
	for _, g := range []struct {
		name  string
		cases []errorCase
	}{{"parity", parityCases}, {"flush", flushCases()}, {"assert", assertCases()}} {
		for _, c := range g.cases {
			lc, err := c.legCase(g.name)
			if err != nil {
				return nil, err
			}
			cases = append(cases, lc)
		}
	}
	return cases, nil
}

// runErrorCases runs each case on the interpreter, checks its message, and
// then requires the generated source to end in the same state: message,
// position, memory, and checksum pair with its shadows. folds requires the
// program to have folded something before it failed.
func runErrorCases(t *testing.T, group string, cases []errorCase, folds bool) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lc, err := c.legCase(group)
			if err != nil {
				t.Fatal(err)
			}
			want := interpLeg(t, lc)
			if want.Msg != c.msg {
				t.Fatalf("interp: error %q, want a runtime error %q", want.Err, c.msg)
			}
			if folds && want.Pair == pairState(checksum.NewPair(c.kind)) {
				t.Fatal("the program folded nothing before failing")
			}
			diffLeg(t, want, nativeLeg(t)[lc.name])
		})
	}
}

// TestRuntimeErrorParity runs a program for each runtime error through the
// interpreter and the generated source.
func TestRuntimeErrorParity(t *testing.T) {
	runErrorCases(t, "parity", parityCases, false)
}

// TestRuntimeErrorFlushesFolds runs programs that fold and then fail
// mid-body through the interpreter and the generated source, under every
// commutative operator. Generated code folds into a per-call delta file;
// the error must still leave its Pair equal to the interpreter's, primaries
// and shadows included, because the delta is flushed on every exit.
func TestRuntimeErrorFlushesFolds(t *testing.T) {
	runErrorCases(t, "flush", flushCases(), true)
}

// TestAssertFlushesFolds runs programs whose first assert_checksums follows
// unbalanced folds through the interpreter and the generated source, under
// every commutative operator. Both must report the same mismatch at the
// same position and stop there, leaving the same memory and Pair.
func TestAssertFlushesFolds(t *testing.T) {
	for _, c := range assertCases() {
		t.Run(c.name, func(t *testing.T) {
			lc, err := c.legCase("assert")
			if err != nil {
				t.Fatal(err)
			}
			want := interpLeg(t, lc)
			if !strings.Contains(want.Msg, c.msg) || want.Pos != (lang.Pos{Line: 8, Col: 1}) {
				t.Fatalf("interp: error %q, want a %s at 8:1", want.Err, c.msg)
			}
			diffLeg(t, want, nativeLeg(t)[lc.name])
		})
	}
}
