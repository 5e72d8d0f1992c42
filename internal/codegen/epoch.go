package codegen

import "defuse/internal/machine"

// EpochRun is the shared epoch layer (machine.Plan) with a compiled Fn as
// the epoch body: verify at every boundary, checkpoint, roll back on
// detection, and seal durable checkpoints, exactly as for the interpreter.
type EpochRun = machine.Plan

// PlanEpochs builds an n-epoch native run of u over m, cutting the kernel
// loop of u's program exactly as interp.PlanEpochs does. A program with no
// top-level loop collapses to a single epoch.
func PlanEpochs(m *Machine, u *Unit, n int) (*EpochRun, error) {
	return machine.NewPlan(&m.State, u.prog, n, func(k, n int) error { return u.fn(m, k, n) })
}
