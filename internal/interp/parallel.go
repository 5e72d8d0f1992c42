package interp

import (
	"fmt"
	"sync"

	"defuse/internal/lang"
	"defuse/internal/machine"
	"defuse/telemetry"
)

// This file is the interpreter's parallel executor. The def/use checksums are
// commutative folds, so row-blocks of an affine kernel loop can run on a
// worker pool — each worker folding into a private checksum.Pair shard and a
// private view of the shared memory — and the shards merged into the root
// pair before the epilogue's assert_checksums runs. The verdict is
// identical to the sequential run (see rt/shard.go for the argument); only
// kernels whose outermost iterations touch disjoint stored words (dsyrk,
// strsm row/column blocks) may be run this way, which is the caller's
// contract to uphold, mirroring the paper's Section 2.2 assumption that
// control flow and scheduling are protected by other means.

// ParallelPlan partitions a program's parallel loop into contiguous
// iteration blocks, one per worker. The parallel loop is the kernel loop
// (lang.KernelLoop), the loop epoch plans cut too; the flat
// checksum-registration loops before it stay serial in the prologue.
type ParallelPlan struct {
	m         *Machine
	pre, post []lang.Stmt
	loop      *lang.For
	workers   int
}

// ParallelResult reports how a parallel run distributed its work, in both
// wall-free deterministic terms (per-worker dynamic op counts) and the serial
// remainder (prologue + epilogue ops run on the root machine).
type ParallelResult struct {
	// Workers is the number of worker shards actually used (the requested
	// count clamped to the iteration count).
	Workers int
	// SerialCounts are the dynamic ops of the serial prologue and epilogue.
	SerialCounts OpCounts
	// WorkerCounts are the dynamic ops each worker performed on its block.
	WorkerCounts []OpCounts
}

// PlanParallel builds a parallel plan with the given worker count over the
// machine's program. The caller asserts that distinct iterations of the
// program's kernel loop write disjoint memory words; a program with no
// top-level loop degenerates to a serial run.
func (m *Machine) PlanParallel(workers int) (*ParallelPlan, error) {
	if workers < 1 {
		return nil, fmt.Errorf("interp: PlanParallel needs workers >= 1, got %d", workers)
	}
	p := &ParallelPlan{m: m, workers: workers}
	p.pre, p.loop, p.post = lang.KernelLoop(m.prog.Body)
	if p.loop == nil {
		p.workers = 1
	}
	return p, nil
}

// Workers returns the planned worker count.
func (p *ParallelPlan) Workers() int { return p.workers }

// fork returns a worker machine: program, parameters, and variable layout
// shared with m (all read-only during execution), a SharedView of the
// simulated memory with private access counters, a private checksum shard,
// and private iterator bindings and op counts. Workers inherit no trace
// sink, metrics registry, or step hook — fault injection and telemetry stay
// on the root machine, whose merge events summarize each worker.
func (m *Machine) fork() *Machine {
	return &Machine{
		State:    m.State.Fork(),
		prog:     m.prog,
		iters:    map[string]int64{},
		regs:     map[string]value{},
		MaxSteps: m.MaxSteps,
		csRegs:   m.csRegs,
	}
}

// Run executes the program with the planned worker pool: the prologue runs
// serially on the root machine, the parallel loop's iteration range is cut
// into one contiguous block per worker (each folding checksums into a
// private shard against a private memory view), the shards merge into the
// root pair in worker order, and the epilogue — including its
// assert_checksums — runs serially on the merged state. A checksum detection
// therefore surfaces exactly as in the sequential run: as a *DetectionError
// from the epilogue's assertion. The step budget applies per machine, so a
// parallel run may execute up to workers× the serial budget.
func (p *ParallelPlan) Run() (*ParallelResult, error) {
	m := p.m
	max := m.stepBudget()
	countsBefore := m.Counts
	res := &ParallelResult{Workers: 1}
	if err := m.execStmts(p.pre, max); err != nil {
		m.publishMetrics()
		return nil, err
	}
	if p.loop != nil {
		lo, err := m.evalInt(p.loop.Lo)
		if err != nil {
			m.publishMetrics()
			return nil, err
		}
		hi, err := m.evalInt(p.loop.Hi)
		if err != nil {
			m.publishMetrics()
			return nil, err
		}
		count := hi - lo + 1
		if count < 0 {
			count = 0
		}
		workers := int64(p.workers)
		if workers > count {
			workers = count
		}
		if workers < 1 {
			workers = 1
		}
		res.Workers = int(workers)
		res.WorkerCounts = make([]OpCounts, workers)
		forks := make([]*Machine, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := int64(0); w < workers; w++ {
			wm := m.fork()
			forks[w] = wm
			start, end := machine.Slice(lo, hi, int(w), int(workers))
			wg.Add(1)
			go func(wm *Machine, w, start, end int64) {
				defer wg.Done()
				for i := start; i <= end; i++ {
					wm.iters[p.loop.Iter] = i
					if err := wm.execStmts(p.loop.Body, max); err != nil {
						errs[w] = err
						return
					}
				}
			}(wm, w, start, end)
		}
		wg.Wait()
		// Merge every shard (errors included, so accounting stays exact);
		// worker order keeps the telemetry deterministic — commutativity
		// makes the merged accumulators order-independent anyway.
		for w, wm := range forks {
			m.Pair().Merge(wm.Pair())
			m.Counts.add(wm.Counts)
			m.Mem().AbsorbCounters(wm.Mem())
			res.WorkerCounts[w] = wm.Counts
			if m.Tracer().Enabled() {
				m.Mark(telemetry.EvShardMerge, telemetry.Int("worker", w),
					telemetry.Attr{Key: "ops", Value: wm.Counts.Total()}, telemetry.Int("live", len(forks)-w-1))
			}
		}
		if m.Tracer().Enabled() {
			m.Mark(telemetry.EvShardDrain, telemetry.Int("shards", len(forks)))
		}
		for _, err := range errs {
			if err != nil {
				m.publishMetrics()
				return nil, err
			}
		}
	}
	err := m.execStmts(p.post, max)
	res.SerialCounts = m.Counts.sub(countsBefore)
	for _, wc := range res.WorkerCounts {
		res.SerialCounts = res.SerialCounts.sub(wc)
	}
	m.publishMetrics()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// add accumulates o into c field-by-field.
func (c *OpCounts) add(o OpCounts) {
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.Arith += o.Arith
	c.Compare += o.Compare
	c.CsOps += o.CsOps
	c.CsLoads += o.CsLoads
	c.CsArith += o.CsArith
	c.Branches += o.Branches
	c.Stmts += o.Stmts
}

// sub returns c - o field-by-field.
func (c OpCounts) sub(o OpCounts) OpCounts {
	return OpCounts{
		Loads:    c.Loads - o.Loads,
		Stores:   c.Stores - o.Stores,
		Arith:    c.Arith - o.Arith,
		Compare:  c.Compare - o.Compare,
		CsOps:    c.CsOps - o.CsOps,
		CsLoads:  c.CsLoads - o.CsLoads,
		CsArith:  c.CsArith - o.CsArith,
		Branches: c.Branches - o.Branches,
		Stmts:    c.Stmts - o.Stmts,
	}
}
