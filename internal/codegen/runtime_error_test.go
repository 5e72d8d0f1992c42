package codegen_test

import (
	"errors"
	"testing"

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
