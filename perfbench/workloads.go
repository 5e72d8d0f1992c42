package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// The untraced workloads. Each reports two end-to-end metrics:
//
//	setup_s     median wall time from the start of a set-up to the point
//	            where timing can begin, over several set-ups in one run
//	overhead_x  what the workload's protection costs, as the ratio of a
//	            protected operation's time to an unprotected one's, both
//	            measured back to back in the same run
//
// Absolute times are printed too, but not gated: on a shared 2-vCPU machine
// they swing by tens of percent between runs minutes apart, while the
// back-to-back ratios hold far closer (README.md, "Steadiness").

// Set-up repetitions per run; setup_s is their median.
const (
	table2Setups   = 3
	campaignSetups = 5
	serviceSetups  = 3
)

func toMS(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * 1000
	}
	return out
}

// benchTable2: overhead_x is the paper's Figure 10 figure for
// Resilient-Optimized: the geomean over kernels of its time over the
// Original's.
func benchTable2(e *env) error {
	var setups []float64
	var bld *table2Build
	for i := 0; i < table2Setups; i++ {
		t0 := time.Now()
		b, err := buildTable2(nil, 0)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		bld = b
	}
	run := timeTable2(bld, e.seed, e.seconds, e.t, nil, 0)
	fig, err := summarizeTable2(bld, run)
	if err != nil {
		return err
	}
	cm, err := runCostModel(e.ctx, bld, e.seed, e.t, nil, 0)
	if err != nil {
		return err
	}
	fmt.Printf("compile_s %.4f s (20 instrument.Instrument calls, %d at a time)\n", bld.compile.Seconds(), compileWorkers)
	fmt.Printf("resilient_overhead %.4f x, optimized_overhead %.4f x (compiled kernels at scale %g)\n",
		fig.resilientGeo, fig.optimizedGeo, table2Scale)
	fmt.Printf("cost model at scale %g: resilient %.4f x, optimized %.4f x, hardware-assisted %.4f x\n",
		costModelScale, cm.resilientOps, cm.optimizedOps, cm.hwEstimate)
	fmt.Printf("timed phase: %d kernel executions in %.3f s\n", run.execs, run.wall.Seconds())
	e.out.add("setup_s", median(setups), "s")
	e.out.add("overhead_x", fig.optimizedGeo, "x")
	return nil
}

// benchCampaign: overhead_x is the matrix's time per trial over the
// unhardened data cell's, round by round.
func benchCampaign(e *env) error {
	var setups []float64
	for i := 0; i < campaignSetups; i++ {
		t0 := time.Now()
		cells := campaignMatrix(campaignSeed(e.seed, -1-i))
		for c := range cells {
			cells[c].cfg.Trials = 64
		}
		if _, _, err := runCampaign(e.ctx, cells, e.t); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	run, err := timeCampaigns(e.ctx, e.seed, campaignRounds(e.seconds), e.t, nil, 0)
	if err != nil {
		return err
	}
	fmt.Printf("trials_per_s %.1f (%d matrix trials on %d workers); hardened/unhardened data cell %.4f x\n",
		run.trialsPerSecond(), run.trials, campaignWorkers, median(run.hardening))
	e.out.add("setup_s", median(setups), "s")
	e.out.add("overhead_x", median(run.matrix), "x")
	return nil
}

// startWarm starts a fresh service in its own directory and warms it.
func startWarm(e *env, name string, firstID uint64) (*service, error) {
	dir, err := newDir(e.dir, name)
	if err != nil {
		return nil, err
	}
	svc, err := startService(serviceConfig(e.seed, filepath.Join(dir, "journal.wal")))
	if err != nil {
		return nil, err
	}
	svc.warm(svcWarmup, firstID, e.t)
	return svc, nil
}

// driveSteps runs every open-loop rate step, IDs continuing from firstID.
func driveSteps(e *env, svc *service, firstID uint64, rec *recorder, parent int64) []step {
	var steps []step
	id := firstID
	for _, rate := range svcRates {
		n := int(rate * e.seconds / float64(len(svcRates)))
		steps = append(steps, svc.runStep(e.ctx, rate, n, id, e.t, rec, parent))
		id += uint64(n)
	}
	return steps
}

// finishService drains the service, audits its journal, and reopens it,
// timing each step under its own span.
func finishService(e *env, svc *service, rec *recorder, parent int64) (drain, verify, resume time.Duration, err error) {
	sp := rec.start(parent, "server", "server.Drain")
	drain, err = svc.stop()
	sp.end()
	if err != nil {
		return
	}
	sp = rec.start(parent, "wal", "server.VerifyJournal")
	js, verify, err := svc.checkJournal(e.t)
	sp.end()
	if err != nil {
		return
	}
	sp = rec.start(parent, "server", "server.New (resume)")
	resume, err = resumeService(svc.cfg, js, e.t)
	sp.end()
	return
}

// benchService: overhead_x is the latency of a fault-injected request
// (detect, roll back, retry) over a clean one's, at the top rate.
func benchService(e *env) error {
	var setups []float64
	var svc *service
	for i := 0; i < serviceSetups; i++ {
		if svc != nil {
			if _, err := svc.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if svc, err = startWarm(e, fmt.Sprintf("svc-%d", i), 1); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	steps := driveSteps(e, svc, 1_000_000, nil, 0)
	if _, _, _, err := finishService(e, svc, nil, 0); err != nil {
		return err
	}
	for _, st := range steps {
		fmt.Printf("%g rps: clean %s; injected %s\n", st.rate,
			summarize(toMS(st.latencies(false))).String("ms"), summarize(toMS(st.latencies(true))).String("ms"))
	}
	top := steps[len(steps)-1]
	e.out.add("setup_s", median(setups), "s")
	e.out.add("overhead_x", median(top.latencies(true))/median(top.latencies(false)), "x")
	return nil
}
