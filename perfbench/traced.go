package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"
)

// The traced run: every workload once untraced and once traced, in one
// process. Per-layer metrics come from the traced pass; the difference
// between the passes is the tracing overhead.

// share renders part as a percentage of whole.
func share(part, whole float64) string { return fmt.Sprintf("%.1f%%", 100*part/whole) }

// breakdown prints an end-to-end figure as named layer shares plus the
// unexplained remainder.
func breakdown(figure string, total float64, unit string, parts []metric) {
	var b strings.Builder
	fmt.Fprintf(&b, "breakdown %s %.4g %s =", figure, total, unit)
	rest := total
	for _, p := range parts {
		fmt.Fprintf(&b, " %s %s +", p.Name, share(p.Value, total))
		rest -= p.Value
	}
	fmt.Fprintf(&b, " unexplained %s", share(rest, total))
	fmt.Println(b.String())
}

func traceAll(e *env, rec *recorder) error {
	root := rec.start(0, "bench", "perfbench traced run")
	defer root.end()
	if err := traceProbes(e, rec, root.id); err != nil {
		return err
	}
	if err := traceTable2(e, rec, root.id); err != nil {
		return err
	}
	if err := traceCampaign(e, rec, root.id); err != nil {
		return err
	}
	if err := traceService(e, rec, root.id); err != nil {
		return err
	}
	e.out.add("process.peak_rss_mb", peakRSSMB(), "MB")
	return nil
}

func traceProbes(e *env, rec *recorder, parent int64) error {
	f, err := runProbes(rec, parent)
	if err != nil {
		return err
	}
	o := e.out
	o.add("checksum.scalefold_ns", f.scaleFold, "ns")
	o.add("checksum.verify_ns", f.verify, "ns")
	o.add("checksum.scrub_ns", f.scrub, "ns")
	o.add("checksum.merge_ns", f.merge, "ns")
	o.add("rt.use_ns", f.use, "ns")
	o.add("rt.defdyn_ns", f.defDyn, "ns")
	o.add("rt.final_ns", f.final, "ns")
	o.add("rt.end_epoch_us", f.endEpoch/1000, "us")
	o.add("rt.rollback_us", f.rollback/1000, "us")
	o.add("rt.scrub_detector_us", f.scrubDetector/1000, "us")
	return nil
}

// phaseMetrics maps instrument.Report phase names to metric names.
var phaseMetrics = []struct{ phase, metric string }{
	{"pdg.extract", "pdg.extract_s"},
	{"dependence.analysis", "deps.analysis_s"},
	{"polyhedral.counting", "usecount.counting_s"},
	{"classify", "instrument.classify_s"},
	{"inspector.hoisting", "instrument.inspector_s"},
	{"rewrite", "instrument.rewrite_s"},
	{"index-set.splitting", "instrument.split_s"},
	{"check", "instrument.check_s"},
}

func traceTable2(e *env, rec *recorder, parent int64) error {
	o := e.out
	sp := rec.start(parent, "bench", "table2-native setup")
	bld, err := buildTable2(rec, sp.id)
	setup := sp.end()
	if err != nil {
		return err
	}

	// Compile pipeline.
	phases := map[string]time.Duration{}
	var stmts, segs int
	for _, b := range bld.suite {
		var per time.Duration
		for _, kv := range bld.variants[b.Name] {
			per += kv.compile
			for _, ph := range kv.report.Phases {
				phases[ph.Phase] += ph.Duration
			}
			stmts += kv.report.ChecksumStmts
			segs += kv.report.SplitSegments
		}
		o.add("instrument."+b.Name+"_s", per.Seconds(), "s")
	}
	o.add("instrument.compile_s", bld.compile.Seconds(), "s")
	var parts []metric
	for _, pm := range phaseMetrics {
		o.add(pm.metric, phases[pm.phase].Seconds(), "s")
		parts = append(parts, metric{Name: pm.metric, Value: phases[pm.phase].Seconds()})
	}
	o.add("instrument.alloc_mb", float64(bld.alloc)/(1<<20), "MB")
	o.add("instrument.checksum_stmts", float64(stmts), "count")
	o.add("instrument.split_segments", float64(segs), "count")
	breakdown("compile_s", bld.compile.Seconds(), "s", parts)
	breakdown("setup_s", setup.Seconds(), "s", []metric{
		{Name: fmt.Sprintf("instrument.Instrument (sum/%d workers)", compileWorkers), Value: bld.compile.Seconds() / compileWorkers},
	})

	// Timed phase, untraced then traced.
	plain := timeTable2(bld, e.seed, e.seconds, e.t, nil, 0)
	tsp := rec.start(parent, "bench", "table2-native timed")
	run := timeTable2(bld, e.seed, e.seconds, e.t, rec, tsp.id)
	tsp.end()
	fig, err := summarizeTable2(bld, run)
	if err != nil {
		return err
	}
	o.add("codegen.resilient_overhead", fig.resilientGeo, "x")
	o.add("codegen.optimized_overhead", fig.optimizedGeo, "x")
	o.add("codegen.original_s", fig.geoMedian[0], "s")
	o.add("codegen.resilient_s", fig.geoMedian[1], "s")
	o.add("codegen.optimized_s", fig.geoMedian[2], "s")
	for _, b := range bld.suite {
		o.add("codegen."+b.Name+".resilient_overhead", fig.resilient[b.Name], "x")
		o.add("codegen."+b.Name+".optimized_overhead", fig.optimized[b.Name], "x")
	}
	o.add("codegen.machine_s", run.machine.Seconds(), "s")
	var kernels [3]float64
	for _, b := range bld.suite {
		for vi := range table2Variants {
			for _, x := range run.samples[b.Name][vi] {
				kernels[vi] += x
			}
		}
	}
	breakdown("table2 timed wall", run.wall.Seconds(), "s", []metric{
		{Name: "kernels Original", Value: kernels[0]},
		{Name: "kernels Resilient", Value: kernels[1]},
		{Name: "kernels Resilient-Optimized", Value: kernels[2]},
		{Name: "codegen.MachineFor+init", Value: run.machine.Seconds()},
	})
	traceOverhead("table2 timed wall", plain.wall.Seconds(), run.wall.Seconds(), "s")
	o.add("trace.table2_overhead_s", run.wall.Seconds()-plain.wall.Seconds(), "s")

	n, err := sourceBytes(bld, rec, parent)
	if err != nil {
		return err
	}
	o.add("codegen.source_bytes", float64(n), "bytes")

	cm, err := runCostModel(e.ctx, bld, e.seed, e.t, rec, parent)
	if err != nil {
		return err
	}
	o.add("interp.resilient_ops_ratio", cm.resilientOps, "x")
	o.add("interp.optimized_ops_ratio", cm.optimizedOps, "x")
	o.add("hwsim.hw_estimate", cm.hwEstimate, "x")
	o.add("interp.cs_ops", float64(cm.csOps), "count")
	o.add("interp.run_s", cm.wall.Seconds(), "s")
	return nil
}

func traceOverhead(figure string, untraced, traced float64, unit string) {
	fmt.Printf("trace overhead %s: untraced %.4g %s, traced %.4g %s, traced minus untraced %+.4g %s (%+.2f%%)\n",
		figure, untraced, unit, traced, unit, traced-untraced, unit, 100*(traced-untraced)/untraced)
}

func traceCampaign(e *env, rec *recorder, parent int64) error {
	o := e.out
	rounds := campaignRounds(e.seconds)
	plain, err := timeCampaigns(e.ctx, e.seed, rounds, e.t, nil, 0)
	if err != nil {
		return err
	}
	sp := rec.start(parent, "bench", "fault-campaign timed")
	run, err := timeCampaigns(e.ctx, e.seed, rounds, e.t, rec, sp.id)
	sp.end()
	if err != nil {
		return err
	}
	var parts []metric
	for _, c := range append([]campaignCell{referenceCell(0)}, campaignMatrix(0)...) {
		d := run.cellTime[c.name]
		o.add("faults."+c.name+".trials_per_s", float64(run.cellTrials[c.name])/d.Seconds(), "1/s")
		parts = append(parts, metric{Name: "cell " + c.name, Value: d.Seconds()})
	}
	o.add("faults.trials_per_s", run.trialsPerSecond(), "1/s")
	o.add("faults.matrix_x", median(run.matrix), "x")
	o.add("faults.hardening_x", median(run.hardening), "x")
	o.add("faults.detected", float64(run.totals.Detected), "count")
	o.add("faults.recovered", float64(run.totals.Recovered), "count")
	o.add("faults.retries", float64(run.totals.Retries), "count")
	o.add("faults.restarts", float64(run.totals.Restarts), "count")
	o.add("faults.rebuilds", float64(run.totals.Rebuilds), "count")
	breakdown("fault-campaign wall", run.wall.Seconds(), "s", parts)
	traceOverhead("fault-campaign wall", plain.wall.Seconds(), run.wall.Seconds(), "s")
	o.add("trace.campaign_overhead_s", run.wall.Seconds()-plain.wall.Seconds(), "s")
	return nil
}

func traceService(e *env, rec *recorder, parent int64) error {
	o := e.out
	svc, err := startWarm(e, "svc-traced", 1)
	if err != nil {
		return err
	}
	plain := driveSteps(e, svc, 1_000_000, nil, 0)
	sp := rec.start(parent, "bench", "service-verify timed")
	steps := driveSteps(e, svc, 2_000_000, rec, sp.id)
	sp.end()
	st := svc.srv.Stats()
	drain, verify, resume, err := finishService(e, svc, rec, parent)
	if err != nil {
		return err
	}
	appends, err := walAppendTimes(filepath.Dir(svc.cfg.WALPath), 200, rec, parent)
	if err != nil {
		return err
	}

	for i, s := range steps {
		clean := summarize(toMS(s.latencies(false)))
		tag := fmt.Sprintf("%grps", s.rate)
		o.add("service.p50_ms_"+tag, clean.P50, "ms")
		o.add("service.p99_ms_"+tag, clean.Tail, "ms")
		fmt.Printf("service %g rps clean latency: %s\n", s.rate, clean.String("ms"))
		var late []float64
		for _, sh := range s.shots {
			late = append(late, sh.Late().Seconds()*1000)
		}
		lp := summarize(late)
		o.add("loadgen.late_ms_"+tag, lp.Tail, "ms")
		fmt.Printf("loadgen %g rps lateness: %s\n", s.rate, lp.String("ms"))
		pc := summarize(toMS(plain[i].latencies(false)))
		traceOverhead(fmt.Sprintf("service p50 at %g rps", s.rate), pc.P50, clean.P50, "ms")
		if i == len(steps)-1 {
			inj := summarize(toMS(s.latencies(true)))
			o.add("service.injected_p50_ms_"+tag, inj.P50, "ms")
			o.add("service.injected_x", inj.P50/clean.P50, "x")
			fmt.Printf("service %g rps injected latency: %s\n", s.rate, inj.String("ms"))
			o.add("trace.service_p50_overhead_ms", clean.P50-pc.P50, "ms")
		}
	}
	var exec, outside []float64
	var lateSum, execSum, latSum float64
	top := steps[len(steps)-1]
	for i, sh := range top.shots {
		oc := top.outcomes[i]
		if !oc.ok {
			continue
		}
		ex := oc.execute * 1000
		out := (sh.Done-sh.Sent).Seconds()*1000 - ex
		exec = append(exec, ex)
		outside = append(outside, out)
		lateSum += sh.Late().Seconds() * 1000
		execSum += ex
		latSum += sh.Latency().Seconds() * 1000
	}
	ep, op := summarize(exec), summarize(outside)
	o.add("server.execute_ms_p50", ep.P50, "ms")
	o.add("server.execute_ms_p99", ep.Tail, "ms")
	o.add("server.outside_ms_p50", op.P50, "ms")
	o.add("server.outside_ms_p99", op.Tail, "ms")
	o.add("server.shed", float64(st.Shed), "count")
	o.add("server.rejected", float64(st.Rejected), "count")
	o.add("server.errors", float64(st.Errors), "count")
	o.add("server.drain_s", drain.Seconds(), "s")
	o.add("server.resume_s", resume.Seconds(), "s")
	ap := summarize(toMS(appends))
	o.add("wal.append_us_p50", ap.P50*1000, "us")
	o.add("wal.append_us_p99", ap.Tail*1000, "us")
	o.add("wal.disk_bytes", float64(st.WALDiskBytes), "bytes")
	o.add("wal.segments", float64(st.WALSegments), "count")
	o.add("wal.verify_journal_s", verify.Seconds(), "s")
	k := float64(len(exec))
	breakdown(fmt.Sprintf("service mean latency at %g rps", top.rate), latSum/k, "ms", []metric{
		{Name: "loadgen late", Value: lateSum / k},
		{Name: "server execute", Value: execSum / k},
		{Name: "journal append (wal probe p50)", Value: ap.P50},
	})
	return nil
}
