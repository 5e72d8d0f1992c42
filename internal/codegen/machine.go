package codegen

import (
	"fmt"

	"defuse/internal/checksum"
	"defuse/internal/lang"
	"defuse/internal/machine"
)

// Machine is the native backend's execution state: the shared simulated
// machine (memory, checksum pair, layout, telemetry wiring, epoch state)
// without the tree-walking interpreter on top. Generated code runs against
// it through the Fn ABI; its Load/Store hot path is the embedded State's,
// and generated folds reach its Pair through checksum.Folds flushes. A run
// may take at most maxTicks loop iterations, which stops a non-converging
// while loop.
type Machine struct {
	machine.State

	ticks uint64
}

// maxTicks bounds the loop-iteration ticks one run may take, as interp's
// default step limit bounds its steps.
const maxTicks = 500_000_000

// Option configures a Machine.
type Option func(*machine.Config)

// WithChecksumKind selects the checksum operator (default ModAdd).
func WithChecksumKind(k checksum.Kind) Option { return func(o *machine.Config) { o.Kind = k } }

// WithBaseOffset shifts every declared variable's base address by pad unused
// words, as interp.WithBaseOffset does, so decorrelated layouts carry across
// backends.
func WithBaseOffset(pad int) Option { return func(o *machine.Config) { o.BaseOffset = pad } }

// MachineFor builds a machine for a checked program, evaluating the
// declaration dimensions from the parameters and allocating the variables
// in declaration order exactly as interp.New does, so a word address in one
// backend names the same logical array element in the other.
func MachineFor(prog *lang.Program, params map[string]int64, opts ...Option) (*Machine, error) {
	if err := lang.Check(prog); err != nil {
		return nil, err
	}
	var cfg machine.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	st, err := machine.New("codegen", cfg, prog, params)
	if err != nil {
		return nil, err
	}
	m := &Machine{State: st}
	if err := m.Alloc(prog, m.evalConstInt); err != nil {
		return nil, err
	}
	return m, nil
}

// PlanEpochs builds an n-epoch run of fn over m on the shared epoch layer
// (verify at every boundary, checkpoint, roll back on detection, seal
// durable checkpoints), cutting the kernel loop of prog exactly as
// interp.PlanEpochs does. prog must be the program fn was generated from. A
// program with no top-level loop collapses to a single epoch.
func PlanEpochs(m *Machine, prog *lang.Program, fn Fn, n int) (*machine.Plan, error) {
	return machine.NewPlan(&m.State, prog, n, func(k, n int) error { return fn(m, k, n) })
}

// Reset returns a pooled machine to its post-construction state: memory
// zeroed, checksum accumulators re-derived, tick count, hooks, context, and
// cached loop bounds cleared. The parameter bindings and variable layout are
// preserved.
func (m *Machine) Reset() {
	m.State.Reset()
	m.ticks = 0
}

// Param returns a parameter's value. Generated code binds parameters once at
// function entry; a missing name is a code-generation bug, not a runtime
// condition, hence the panic.
func (m *Machine) Param(name string) int64 {
	v, ok := m.LookupParam(name)
	if !ok {
		panic(fmt.Sprintf("codegen: parameter %q not bound", name))
	}
	return v
}

// Var returns a variable's base address and concrete dimension sizes.
func (m *Machine) Var(name string) (base int, dims []int64) {
	v := m.LookupVar(name)
	if v == nil {
		panic(fmt.Sprintf("codegen: variable %q not allocated", name))
	}
	return v.Region.Base, v.Dims
}

// ErrNoBounds reports an epoch run before epoch 0 cached the loop bounds,
// with interp's message text.
func ErrNoBounds(epoch int) error {
	return fmt.Errorf("codegen: epoch %d run before epoch 0 evaluated loop bounds", epoch)
}

// Tick advances the loop-iteration budget: it enforces maxTicks, polls the
// armed context, and feeds the step hook. Compiled code calls it once per
// loop iteration.
func (m *Machine) Tick(line, col int) error {
	m.ticks++
	if m.ticks > maxTicks {
		return &RuntimeError{Pos: lang.Pos{Line: line, Col: col}, Msg: fmt.Sprintf("step limit %d exceeded", maxTicks)}
	}
	if err := m.Poll(m.ticks); err != nil {
		return &CancelError{Pos: lang.Pos{Line: line, Col: col}, Err: err}
	}
	return nil
}

// Assert is assert_checksums(): verify the pair, stream the verification
// outcome, and surface a detection as a *DetectionError at the statement's
// source position.
func (m *Machine) Assert(line, col int) error {
	if err := m.VerifyChecksums(); err != nil {
		return &DetectionError{Pos: lang.Pos{Line: line, Col: col}, Err: err}
	}
	return nil
}

// OOB reports a subscript out of bounds with interp's message text.
func (m *Machine) OOB(ix, dim int64, k int, name string, line, col int) error {
	return &RuntimeError{Pos: lang.Pos{Line: line, Col: col}, Msg: fmt.Sprintf(
		"index %d out of bounds [0,%d) in dimension %d of %q", ix, dim, k, name)}
}

// DivZero reports a division by zero with interp's message text.
func (m *Machine) DivZero(line, col int) error {
	return &RuntimeError{Pos: lang.Pos{Line: line, Col: col}, Msg: "division by zero"}
}

// ModZero reports a modulo by zero with interp's message text.
func (m *Machine) ModZero(line, col int) error {
	return &RuntimeError{Pos: lang.Pos{Line: line, Col: col}, Msg: "modulo by zero"}
}

// ModFloat reports % applied to non-integer operands, interp's message text.
func (m *Machine) ModFloat(line, col int) error {
	return &RuntimeError{Pos: lang.Pos{Line: line, Col: col}, Msg: "% requires integer operands"}
}

// IntExpected reports a value required to be integral (checksum counts),
// interp's message text.
func (m *Machine) IntExpected(line, col int) error {
	return &RuntimeError{Pos: lang.Pos{Line: line, Col: col}, Msg: "expected integer value"}
}
