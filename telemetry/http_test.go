package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func osStat(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func readJSONFile(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("defuse_trials_total").Add(5)
	reg.Histogram("defuse_epoch_verify_seconds", DefBuckets()).Observe(0.002)
	flight := NewFlightRecorder(16)
	spans := NewSpanBuffer(0)
	tr := NewTracer(MultiSpan(spans, flight))
	tr.Mark(SpanContext{}, EvVerifyOK)
	s := tr.Start(SpanContext{}, "run")
	tr.Start(s.Context(), "epoch").End()
	s.End()

	srv, err := Serve("127.0.0.1:0", reg, flight, spans, NewHealth())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body, ct := get(t, base+"/metrics")
	if code != 200 || !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics: %d %q", code, ct)
	}
	if !strings.Contains(body, "defuse_trials_total 5") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	// The exposition must satisfy the repo's own linter — the same check the
	// CI smoke job runs via cmd/tlint.
	if err := Lint(strings.NewReader(body)); err != nil {
		t.Errorf("/metrics fails lint: %v", err)
	}

	code, body, _ = get(t, base+"/flight")
	if code != 200 {
		t.Fatalf("/flight: %d", code)
	}
	var dump FlightDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/flight not JSON: %v", err)
	}
	if dump.Schema != FlightDumpSchema || dump.Trigger != "http" || len(dump.Entries) != 3 {
		t.Errorf("/flight dump = %q/%q with %d entries", dump.Schema, dump.Trigger, len(dump.Entries))
	}

	code, body, _ = get(t, base+"/trace")
	if code != 200 {
		t.Fatalf("/trace: %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if evs, ok := doc["traceEvents"].([]any); !ok || len(evs) != 3 {
		t.Errorf("/trace traceEvents = %v", doc["traceEvents"])
	}

	if code, _, _ := get(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline: %d", code)
	}
	if code, _, _ := get(t, base+"/nope"); code != 404 {
		t.Errorf("unknown path: %d, want 404", code)
	}
}

func TestServeNilComponents(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	for _, path := range []string{"/metrics", "/flight", "/trace", "/healthz", "/readyz"} {
		if code, _, _ := get(t, base+path); code != 404 {
			t.Errorf("%s with nil component: %d, want 404", path, code)
		}
	}
	if code, _, _ := get(t, base+"/"); code != 200 {
		t.Errorf("index: %d", code)
	}
}

func TestHealthEndpoints(t *testing.T) {
	reg := NewRegistry()
	health := NewHealth()
	health.BindGauge(reg)
	srv, err := Serve("127.0.0.1:0", reg, nil, nil, health)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body, ct := get(t, base+"/healthz")
	if code != 200 || !strings.Contains(ct, "application/json") {
		t.Fatalf("/healthz: %d %q", code, ct)
	}
	var hz healthzBody
	if err := json.Unmarshal([]byte(body), &hz); err != nil || hz.Status != "ok" {
		t.Fatalf("/healthz body %q: %v", body, err)
	}

	// Ready with two requests in flight.
	health.Add(2)
	code, body, ct = get(t, base+"/readyz")
	if code != 200 || !strings.Contains(ct, "application/json") {
		t.Fatalf("/readyz ready: %d %q", code, ct)
	}
	var rz readyzBody
	if err := json.Unmarshal([]byte(body), &rz); err != nil {
		t.Fatal(err)
	}
	if !rz.Ready || rz.Draining || rz.InFlight != 2 {
		t.Errorf("/readyz = %+v, want ready with 2 in flight", rz)
	}

	// The in-flight gauge must track the counter.
	if got := reg.Gauge("defuse_server_in_flight").Value(); got != 2 {
		t.Errorf("in-flight gauge = %v, want 2", got)
	}

	// Draining flips readiness to 503 while reporting the in-flight count
	// still completing, so a drain is observable from the outside.
	health.SetDraining()
	health.Add(-1)
	code, body, _ = get(t, base+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz draining: %d, want 503", code)
	}
	if err := json.Unmarshal([]byte(body), &rz); err != nil {
		t.Fatal(err)
	}
	if rz.Ready || !rz.Draining || rz.InFlight != 1 {
		t.Errorf("/readyz draining = %+v", rz)
	}

	// /healthz stays 200 throughout: the process is alive even while unready.
	if code, _, _ := get(t, base+"/healthz"); code != 200 {
		t.Errorf("/healthz during drain: %d, want 200", code)
	}
}

func TestServerHandleMountsRoutes(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Handle("/custom", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "mounted")
	}))
	code, body, _ := get(t, "http://"+srv.Addr()+"/custom")
	if code != 200 || body != "mounted" {
		t.Errorf("/custom = %d %q", code, body)
	}
}

func TestObsFinishIdempotent(t *testing.T) {
	dir := t.TempDir()
	obs, err := SetupObs(ObsConfig{TracePath: filepath.Join(dir, "spans.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	obs.Tracer.Mark(SpanContext{}, EvVerifyOK)
	if err := obs.Finish(); err != nil {
		t.Fatal(err)
	}
	// A second Finish (e.g. a signal handler racing the normal exit path)
	// must not double-close the sink or error.
	if err := obs.Finish(); err != nil {
		t.Fatalf("second Finish: %v", err)
	}
}

func TestSetupObsWiring(t *testing.T) {
	dir := t.TempDir()
	cfg := ObsConfig{
		TracePath:  filepath.Join(dir, "spans.jsonl"),
		FlightPath: filepath.Join(dir, "flight.json"),
		ChromePath: filepath.Join(dir, "trace.json"),
		ServeAddr:  "127.0.0.1:0",
	}
	obs, err := SetupObs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Metrics == nil || obs.Tracer == nil || obs.Flight == nil || obs.Spans == nil || obs.Server == nil {
		t.Fatalf("components missing: %+v", obs)
	}
	obs.Metrics.Counter("defuse_trials_total").Add(1)
	span := obs.Tracer.Start(SpanContext{}, "run")
	obs.Tracer.Start(span.Context(), "epoch").End()
	obs.Tracer.Mark(span.Context(), EvFaultInjected, Int("word", 3))
	span.End()
	if err := obs.Finish(); err != nil {
		t.Fatal(err)
	}

	// Every artifact must exist and parse.
	for _, f := range []string{"spans.jsonl", "flight.json", "trace.json"} {
		p := filepath.Join(dir, f)
		if fi, err := osStat(p); err != nil || fi == 0 {
			t.Errorf("%s: missing or empty (%v)", f, err)
		}
	}
	var dump FlightDump
	if err := readJSONFile(filepath.Join(dir, "flight.json"), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Trigger != "exit" {
		t.Errorf("flight trigger = %q, want exit", dump.Trigger)
	}
	// 2 spans + 1 mark in the ring.
	if len(dump.Entries) != 3 {
		t.Errorf("flight holds %d entries, want 3", len(dump.Entries))
	}
}

func TestSetupObsZeroConfigIsInert(t *testing.T) {
	obs, err := SetupObs(ObsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if obs.Metrics != nil || obs.Tracer != nil || obs.Server != nil {
		t.Fatalf("zero config built components: %+v", obs)
	}
	// The inert Obs must be safe end to end.
	obs.Tracer.Mark(SpanContext{}, EvVerifyMismatch)
	obs.Tracer.Start(SpanContext{}, "x").End()
	if err := obs.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := obs.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestSetupObsFlightTriggerDumps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.json")
	obs, err := SetupObs(ObsConfig{FlightPath: path})
	if err != nil {
		t.Fatal(err)
	}
	obs.Tracer.Mark(SpanContext{}, EvDetectorFault, Int("epoch", 2))
	if trigger, ok := obs.Flight.Dumped(); !ok || trigger != EvDetectorFault {
		t.Fatalf("detector fault did not dump the ring: %q %v", trigger, ok)
	}
	if err := obs.Finish(); err != nil {
		t.Fatal(err)
	}
	var dump FlightDump
	if err := readJSONFile(path, &dump); err != nil {
		t.Fatal(err)
	}
	// The automatic postmortem (trigger = the span name) must survive
	// Finish un-overwritten.
	if dump.Trigger != EvDetectorFault {
		t.Errorf("flight trigger = %q, want %q", dump.Trigger, EvDetectorFault)
	}
}
