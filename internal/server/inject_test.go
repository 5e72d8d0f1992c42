package server

import (
	"context"
	"reflect"
	"testing"

	"defuse/internal/bench"
	"defuse/internal/faults"
	"defuse/internal/recovery"
	"defuse/rt"
	"defuse/telemetry"
)

// TestVerifyJobInjectsOnce runs traced verify jobs under a flip plan and an
// addr-wrong plan. Each must mark exactly one fault.injected under its
// request span, carrying the plan's epoch and the struck coordinates in the
// epoch trial's shape. The struck epoch is rolled back and re-executed, and
// the retry must not inject again: the job recovers to the reference digest.
func TestVerifyJobInjectsOnce(t *testing.T) {
	cases := []struct {
		name  string
		plan  faults.LivePlan
		attrs map[string]any
	}{
		{
			name: "flip",
			plan: faults.LivePlan{Epoch: 2, Word: 5, Bit: 13, Kind: faults.LiveFlip, Partner: 5},
			attrs: map[string]any{
				"flips": []map[string]any{{"word": 5, "bit": 13}},
			},
		},
		{
			name: "addr-wrong",
			plan: faults.LivePlan{Epoch: 1, Word: 3, Kind: faults.LiveAddrWrong, Partner: 7},
			attrs: map[string]any{
				"fault": "addr-wrong", "intent": int64(3), "effective": int64(7),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := telemetry.NewSpanBuffer(0)
			tracer := telemetry.NewTracer(sink)
			job := verifyJob{id: 11, words: 16, epochs: 4, seed: 3}
			req := tracer.Start(telemetry.SpanContext{}, "request")
			res, err := runVerify(context.Background(), rt.NewTracker(), job, &tc.plan,
				recovery.Policy{MaxRetries: 2, MaxRestarts: 1}, bench.Telemetry{Tracer: tracer}, req.Context())
			req.End()
			if err != nil {
				t.Fatal(err)
			}
			injected := sink.Named(telemetry.EvFaultInjected)
			if len(injected) != 1 {
				t.Fatalf("fault.injected marks = %d, want 1", len(injected))
			}
			mark := injected[0]
			if mark.Parent != req.Context().Span || mark.Duration != 0 {
				t.Fatalf("fault.injected %+v is not a point span under the request span", mark)
			}
			if got := mark.Attr("epoch"); got != int64(tc.plan.Epoch) {
				t.Errorf("epoch = %v, want %d", got, tc.plan.Epoch)
			}
			for k, want := range tc.attrs {
				if got := mark.Attr(k); !reflect.DeepEqual(got, want) {
					t.Errorf("%s = %#v, want %#v", k, got, want)
				}
			}
			out := res.outcome
			if !out.Detected || !out.Recovered || out.FirstDetection != tc.plan.Epoch || out.Retries != 1 {
				t.Errorf("outcome %+v, want detected at epoch %d and recovered after one retry", out, tc.plan.Epoch)
			}
			retried := false
			for _, d := range sink.Named("epoch") {
				if d.Attr("epoch") == int64(tc.plan.Epoch) && d.Attr("attempt") == int64(1) {
					retried = true
				}
			}
			if !retried {
				t.Error("no re-executed attempt of the struck epoch was traced")
			}
			if res.digest != res.refDigest {
				t.Errorf("digest %016x, reference %016x", res.digest, res.refDigest)
			}
		})
	}
}
