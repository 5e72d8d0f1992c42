package interp

import (
	"fmt"

	"defuse/internal/lang"
	"defuse/internal/machine"
)

// EpochPlan is the shared epoch layer (machine.Plan) with a tree walk as
// the epoch body: verify at every boundary, checkpoint, roll back on
// detection, and seal durable checkpoints, exactly as for compiled code.
type EpochPlan = machine.Plan

// epochBody runs one epoch of a program by walking its statements.
type epochBody struct {
	m         *Machine
	pre, post []lang.Stmt
	loop      *lang.For
}

// PlanEpochs builds an n-epoch plan over the machine's program, cutting
// its kernel loop (lang.KernelLoop). A program with no top-level loop
// collapses to a single epoch.
func (m *Machine) PlanEpochs(n int) (*EpochPlan, error) {
	b := &epochBody{m: m}
	b.pre, b.loop, b.post = lang.KernelLoop(m.prog.Body)
	return machine.NewPlan(&m.State, m.prog, n, b.run)
}

// run executes epoch k of n: the prologue (k == 0), the k-th block of
// kernel-loop iterations, and the epilogue (k == n-1), then publishes the
// operation counts.
func (b *epochBody) run(k, n int) error {
	m := b.m
	if k < 0 || k >= n {
		return fmt.Errorf("interp: epoch %d out of range [0,%d)", k, n)
	}
	defer m.publishMetrics()
	max := m.stepBudget()
	if k == 0 {
		if err := m.execStmts(b.pre, max); err != nil {
			return err
		}
		if b.loop != nil {
			lo, err := m.evalInt(b.loop.Lo)
			if err != nil {
				return err
			}
			hi, err := m.evalInt(b.loop.Hi)
			if err != nil {
				return err
			}
			m.SetBounds(lo, hi)
		}
	}
	if b.loop != nil {
		lo, hi, ok := m.Bounds()
		if !ok {
			return fmt.Errorf("interp: epoch %d run before epoch 0 evaluated loop bounds", k)
		}
		start, end := machine.Slice(lo, hi, k, n)
		for i := start; i <= end; i++ {
			m.iters[b.loop.Iter] = i
			if err := m.execStmts(b.loop.Body, max); err != nil {
				delete(m.iters, b.loop.Iter)
				return err
			}
		}
		delete(m.iters, b.loop.Iter)
	}
	if k == n-1 {
		return m.execStmts(b.post, max)
	}
	return nil
}
