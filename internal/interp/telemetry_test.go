package interp

import (
	"errors"
	"fmt"
	"testing"

	"defuse/telemetry"
)

// Detection-path telemetry: a single-bit flip on a tracked word must mark a
// fault.injected point span carrying the exact array/index/bit coordinates
// and a verify.mismatch span when the checksum assertion fires, both under
// the span the machine runs in.

// detectionSrc builds a program defining cell 2 of a 4-element array with
// two uses, checksum-instrumented by hand so the statement schedule is
// fixed: the flip lands after the first use is folded and before the second.
func detectionSrc(typ, lit1, lit2, lit3 string) string {
	return fmt.Sprintf(`
program t()
%s a[4];
%s sum1, sum2;
a[2] = %s;
add_to_chksm(def_cs, a[2], 2);
add_to_chksm(use_cs, a[2], 1);
sum1 = a[2] + %s;
add_to_chksm(use_cs, a[2], 1);
sum2 = a[2] + %s;
assert_checksums();
`, typ, typ, lit1, lit2, lit3)
}

func TestDetectionEventCoordinates(t *testing.T) {
	cases := []struct {
		name string
		src  string
		bit  int
	}{
		{"float64 sign bit", detectionSrc("float", "10.0 + 20.0", "30.0", "40.0"), 63},
		{"float64 exponent bit", detectionSrc("float", "10.0 + 20.0", "30.0", "40.0"), 55},
		{"float64 mantissa bit", detectionSrc("float", "10.0 + 20.0", "30.0", "40.0"), 13},
		{"float64 lsb", detectionSrc("float", "10.0 + 20.0", "30.0", "40.0"), 0},
		{"int64 lsb", detectionSrc("int", "10 + 20", "30", "40"), 0},
		{"int64 middle bit", detectionSrc("int", "10 + 20", "30", "40"), 31},
		{"int64 msb", detectionSrc("int", "10 + 20", "30", "40"), 63},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := telemetry.NewSpanBuffer(0)
			tr := telemetry.NewTracer(sink)
			reg := telemetry.NewRegistry()
			m := mustMachine(t, tc.src, nil, WithTracer(tr), WithMetrics(reg))
			run := tr.Start(telemetry.SpanContext{}, "run")
			m.SetSpan(run.Context())
			base, _, err := m.Region("a")
			if err != nil {
				t.Fatal(err)
			}
			m.SetStepHook(func(step uint64) {
				if step == 5 {
					m.Mem().FlipBit(base+2, tc.bit)
				}
			})
			err = m.Run()
			run.End()
			var de *DetectionError
			if !errors.As(err, &de) {
				t.Fatalf("injected fault not detected: %v", err)
			}

			inj := sink.Named(telemetry.EvFaultInjected)
			if len(inj) != 1 {
				t.Fatalf("fault.injected spans = %d, want 1", len(inj))
			}
			f := inj[0]
			if f.Attr("array") != "a" || f.Attr("index") != int64(2) ||
				f.Attr("bit") != int64(tc.bit) || f.Attr("addr") != int64(base+2) {
				t.Errorf("fault coordinates = %v, want array=a index=2 bit=%d addr=%d",
					f.Attrs, tc.bit, base+2)
			}
			det := sink.Named(telemetry.EvVerifyMismatch)
			if len(det) != 1 {
				t.Fatalf("verify.mismatch spans = %d, want 1", len(det))
			}
			if det[0].Attr("which") != "def/use" {
				t.Errorf("verify.mismatch which = %v, want def/use", det[0].Attr("which"))
			}
			if n := len(sink.Named(telemetry.EvVerifyOK)); n != 0 {
				t.Errorf("verify.ok spans = %d on a detected run", n)
			}
			for _, d := range []telemetry.SpanData{f, det[0]} {
				if d.Parent != run.Context().Span || d.Duration != 0 {
					t.Errorf("%s is not a point span under run: %+v", d.Name, d)
				}
			}
			if got := reg.Counter("defuse_detections_total").Value(); got != 1 {
				t.Errorf("defuse_detections_total = %d, want 1", got)
			}
		})
	}
}

func TestVerifyOKEventOnCleanRun(t *testing.T) {
	sink := telemetry.NewSpanBuffer(0)
	reg := telemetry.NewRegistry()
	m := mustMachine(t, detectionSrc("float", "10.0 + 20.0", "30.0", "40.0"), nil,
		WithTracer(telemetry.NewTracer(sink)), WithMetrics(reg))
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	ok := sink.Named(telemetry.EvVerifyOK)
	if len(ok) != 1 {
		t.Fatalf("verify.ok spans = %d, want 1", len(ok))
	}
	if ok[0].Attr("def") == nil || ok[0].Attr("def") != ok[0].Attr("use") {
		t.Errorf("verify.ok checksums differ: %v", ok[0].Attrs)
	}
	if len(sink.Named(telemetry.EvVerifyMismatch)) != 0 {
		t.Error("clean run marked a verify.mismatch")
	}
	// Run metrics must be published.
	snap := reg.Snapshot()
	found := false
	for _, ms := range snap.Metrics {
		if ms.Name == "defuse_interp_ops" && ms.Labels["op"] == "loads" && ms.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Error("defuse_interp_ops{op=loads} not published")
	}
}
