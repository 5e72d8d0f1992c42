package server

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"defuse/internal/bench"
	"defuse/internal/faults"
	"defuse/internal/recovery"
	"defuse/rt"
	"defuse/telemetry"
)

var updateVerifyDigest = flag.Bool("update", false, "rewrite testdata/verify.digest from the current verify job")

const verifyDigestFile = "testdata/verify.digest"

// TestVerifyJobDigest pins the (digest, outcome) of verify jobs for a run of
// request IDs under a live sampler that mixes bit flips and wrong-address
// loads, so a change to the verify workload, its injection, or its recovery
// shows up as a changed line. Regenerate with
// `go test ./internal/server -run TestVerifyJobDigest -update` only when an
// outcome is meant to change.
func TestVerifyJobDigest(t *testing.T) {
	sampler := faults.NewLiveSampler(0.5, 9).WithAddrFraction(0.4)
	tr := rt.NewTracker()
	var got []string
	for id := uint64(1); id <= 32; id++ {
		job := verifyJob{id: id, words: 24, epochs: 5, seed: 3}
		var plan *faults.LivePlan
		if sampler.Sample(id) {
			p := sampler.Plan(id, job.words, job.epochs)
			plan = &p
		}
		res, err := runVerify(context.Background(), tr, job, plan, recovery.DefaultPolicy(), bench.Telemetry{}, telemetry.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		tr.Reset()
		out, err := json.Marshal(res.outcome)
		if err != nil {
			t.Fatal(err)
		}
		kind := "none"
		if plan != nil {
			kind = plan.Kind.String()
		}
		got = append(got, fmt.Sprintf("id=%d fault=%s digest=%016x ref=%016x %s",
			id, kind, res.digest, res.refDigest, out))
	}
	if *updateVerifyDigest {
		if err := os.MkdirAll(filepath.Dir(verifyDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(verifyDigestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(verifyDigestFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("digest has %d entries, verify jobs produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("verify job changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
