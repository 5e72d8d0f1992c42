package instrument

import (
	"testing"

	"defuse/internal/lang"
	"defuse/telemetry"
)

// Compile-path telemetry: instrumentation must report per-phase wall time in
// the Report, record a span per phase and one plan.chosen point span per
// protected variable, and record applied optimizations (split.applied,
// inspector.hoisted) with counts — all under one "instrument" span.

func TestInstrumentPhaseTimings(t *testing.T) {
	prog, err := lang.Parse(choleskySrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Instrument(prog, Options{Split: true, Inspector: true})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"pdg.extract":         false,
		"dependence.analysis": false,
		"polyhedral.counting": false,
		"classify":            false,
		"rewrite":             false,
		"check":               false,
	}
	for _, ph := range res.Report.Phases {
		if ph.Duration < 0 {
			t.Errorf("phase %s has negative duration %v", ph.Phase, ph.Duration)
		}
		if _, ok := want[ph.Phase]; ok {
			want[ph.Phase] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("phase %s missing from Report.Phases %v", name, res.Report.Phases)
		}
	}
}

func TestInstrumentEventsAndMetrics(t *testing.T) {
	prog, err := lang.Parse(cgishSrc)
	if err != nil {
		t.Fatal(err)
	}
	sink := telemetry.NewSpanBuffer(0)
	reg := telemetry.NewRegistry()
	res, err := Instrument(prog, Options{Split: true, Inspector: true,
		Tracer: telemetry.NewTracer(sink), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	root := sink.Named("instrument")
	if len(root) != 1 || root[0].Attr("program") != prog.Name {
		t.Fatalf("instrument spans = %+v, want one for %s", root, prog.Name)
	}
	for _, d := range sink.Spans() {
		if d.Name != "instrument" && (d.Parent != root[0].ID || d.Trace != root[0].Trace) {
			t.Errorf("span %s is not a child of the instrument span", d.Name)
		}
	}

	plans := sink.Named(telemetry.EvPlanChosen)
	if want := len(res.Report.Plans); len(plans) != want {
		t.Errorf("plan.chosen spans = %d, want %d (one per variable)", len(plans), want)
	}
	for _, d := range plans {
		v, _ := d.Attr("variable").(string)
		plan, _ := d.Attr("plan").(string)
		if got, ok := res.Report.Plans[v]; !ok || string(got) != plan {
			t.Errorf("plan.chosen{%s=%s} does not match report plan %v", v, plan, res.Report.Plans[v])
		}
	}

	if res.Report.SplitSegments > 0 {
		d := sink.Named(telemetry.EvSplitApplied)
		if len(d) != 1 || d[0].Attr("segments") != int64(res.Report.SplitSegments) {
			t.Errorf("split.applied spans %v do not carry segments=%d", d, res.Report.SplitSegments)
		}
	}
	if res.Report.InspectorsHoisted > 0 {
		d := sink.Named(telemetry.EvInspectorHoisted)
		if len(d) != 1 || d[0].Attr("loops") != int64(res.Report.InspectorsHoisted) {
			t.Errorf("inspector.hoisted spans %v do not carry loops=%d", d, res.Report.InspectorsHoisted)
		}
	}
	for _, ph := range res.Report.Phases {
		if d := sink.Named(ph.Phase); len(d) != 1 || d[0].Attr("component") != "instrument" {
			t.Errorf("phase %s: spans %+v, want one with component=instrument", ph.Phase, d)
		}
	}
	if res.Report.ChecksumStmts <= 0 {
		t.Errorf("ChecksumStmts = %d, want > 0", res.Report.ChecksumStmts)
	}

	var planTotal uint64
	phaseHistSeen := false
	for _, ms := range reg.Snapshot().Metrics {
		switch ms.Name {
		case "defuse_plans_total":
			planTotal += uint64(ms.Value)
		case "defuse_phase_seconds":
			if ms.Labels["component"] == "instrument" {
				phaseHistSeen = true
			}
		}
	}
	if want := uint64(len(res.Report.Plans)); planTotal != want {
		t.Errorf("defuse_plans_total sums to %d, want %d", planTotal, want)
	}
	if !phaseHistSeen {
		t.Error("defuse_phase_seconds{component=instrument} not recorded")
	}
}

func TestPlanCounts(t *testing.T) {
	prog, err := lang.Parse(cgishSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Instrument(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts := res.Report.PlanCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != len(res.Report.Plans) {
		t.Errorf("PlanCounts total %d != %d plans", total, len(res.Report.Plans))
	}
}
