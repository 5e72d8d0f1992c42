package codegen_test

import (
	"errors"
	"testing"

	"defuse/internal/checksum"
	"defuse/internal/codegen"
	"defuse/internal/interp"
	"defuse/internal/lang"
)

// TestRuntimeErrorParity runs small failing programs on the interpreter and
// on codegen.Compile closures and requires the same RuntimeError message and
// source position from both: a user sees one diagnostic whichever backend
// ran the program.
func TestRuntimeErrorParity(t *testing.T) {
	cases := []struct {
		name, src string
		params    map[string]int64
		msg       string
	}{
		{"float-mod", "program t() float x; float y; x = 5.0; y = x % 2.0;", nil,
			"% requires integer operands"},
		{"mod-zero", "program t() int x; int z; z = 0; x = 5 % z;", nil,
			"modulo by zero"},
		{"div-zero", "program t() float x; float z; z = 0.0; x = 1.0 / z;", nil,
			"division by zero"},
		{"out-of-bounds", "program t(n) float A[n]; A[n] = 1.0;", map[string]int64{"n": 3},
			`index 3 out of bounds [0,3) in dimension 0 of "A"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := lang.Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			im, err := interp.New(prog, c.params)
			if err != nil {
				t.Fatal(err)
			}
			var ie *interp.RuntimeError
			if err := im.Run(); !errors.As(err, &ie) {
				t.Fatalf("interp: error %v, want *interp.RuntimeError", err)
			}

			unit, err := codegen.Compile(prog)
			if err != nil {
				t.Fatal(err)
			}
			cm, err := codegen.MachineFor(prog, c.params)
			if err != nil {
				t.Fatal(err)
			}
			var ce *codegen.RuntimeError
			if err := unit.Run(cm); !errors.As(err, &ce) {
				t.Fatalf("codegen: error %v, want *codegen.RuntimeError", err)
			}

			if ie.Msg != c.msg {
				t.Errorf("interp message %q, want %q", ie.Msg, c.msg)
			}
			if ce.Msg != ie.Msg || ce.Pos != ie.Pos {
				t.Errorf("codegen reported %q at %v, interp %q at %v", ce.Msg, ce.Pos, ie.Msg, ie.Pos)
			}
		})
	}
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

// TestRuntimeErrorFlushesFolds runs programs that fold and then fail
// mid-body, on the interpreter and on codegen.Compile closures, under every
// commutative operator. The closures fold into a per-call delta file; the
// error must still leave their Pair equal to the interpreter's, primaries
// and shadows included, because the delta is flushed on every exit.
func TestRuntimeErrorFlushesFolds(t *testing.T) {
	cases := []struct{ name, tail, msg string }{
		{"out-of-bounds", "A[n] = 1.0;", `index 4 out of bounds [0,4) in dimension 0 of "A"`},
		{"div-zero", "z = 0.0; x = 1.0 / z;", "division by zero"},
	}
	params := map[string]int64{"n": 4}
	for _, k := range []checksum.Kind{checksum.ModAdd, checksum.XOR, checksum.OnesComp} {
		for _, c := range cases {
			t.Run(k.String()+"/"+c.name, func(t *testing.T) {
				prog, err := lang.Parse(foldThenFail + c.tail)
				if err != nil {
					t.Fatal(err)
				}
				im, err := interp.New(prog, params, interp.WithChecksumKind(k))
				if err != nil {
					t.Fatal(err)
				}
				var ie *interp.RuntimeError
				if err := im.Run(); !errors.As(err, &ie) || ie.Msg != c.msg {
					t.Fatalf("interp: error %v, want *interp.RuntimeError %q", err, c.msg)
				}

				unit, err := codegen.Compile(prog)
				if err != nil {
					t.Fatal(err)
				}
				cm, err := codegen.MachineFor(prog, params, codegen.WithChecksumKind(k))
				if err != nil {
					t.Fatal(err)
				}
				var ce *codegen.RuntimeError
				if err := unit.Run(cm); !errors.As(err, &ce) || ce.Msg != ie.Msg || ce.Pos != ie.Pos {
					t.Fatalf("codegen: error %v, want %q at %v", err, ie.Msg, ie.Pos)
				}

				if pairState(cm.Pair()) != pairState(im.Pair()) {
					t.Fatalf("checksum state after the error diverged:\ninterp %#x\nnative %#x",
						pairState(im.Pair()), pairState(cm.Pair()))
				}
				if pairState(im.Pair()) == pairState(checksum.NewPair(k)) {
					t.Fatal("the program folded nothing before failing")
				}
			})
		}
	}
}
