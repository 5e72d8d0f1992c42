package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is the live telemetry endpoint behind the -serve flag: a plain
// net/http server exposing the registry as Prometheus text (/metrics), the
// flight-recorder ring (/flight), the span buffer as Chrome
// trace-event JSON (/trace), liveness/readiness probes (/healthz, /readyz),
// and net/http/pprof (/debug/pprof/). Any component may be nil; its endpoint
// then reports 404.
type Server struct {
	ln  net.Listener
	srv *http.Server
	mux *http.ServeMux
}

// Serve starts the endpoint on addr (host:port; port 0 picks a free port).
// It returns once the listener is bound, with requests served in the
// background; Addr reports the bound address and Close tears it down.
func Serve(addr string, reg *Registry, flight *FlightRecorder, spans *SpanBuffer, health *Health) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "defuse telemetry endpoints:")
		fmt.Fprintln(w, "  /metrics      Prometheus text exposition")
		fmt.Fprintln(w, "  /flight       flight-recorder ring dump (JSON)")
		fmt.Fprintln(w, "  /trace        span buffer as Chrome trace-event JSON")
		fmt.Fprintln(w, "  /healthz      liveness probe")
		fmt.Fprintln(w, "  /readyz       readiness probe (503 while draining)")
		fmt.Fprintln(w, "  /debug/pprof/ runtime profiles")
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if health == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, healthzBody{Status: "ok", UptimeSeconds: health.Uptime().Seconds()})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if health == nil {
			http.NotFound(w, r)
			return
		}
		body := readyzBody{
			Ready:    health.Ready(),
			Draining: health.Draining(),
			InFlight: health.InFlight(),
			State:    health.State(),
		}
		w.Header().Set("Content-Type", "application/json")
		if !body.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		if flight == nil {
			http.NotFound(w, r)
			return
		}
		dump := FlightDump{
			Schema:  FlightDumpSchema,
			Time:    time.Now().UTC(),
			Trigger: "http",
			Entries: flight.Snapshot(),
		}
		writeJSON(w, dump)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if spans == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = spans.WriteChromeTrace(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}, mux: mux}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Handle registers an additional handler on the telemetry mux, letting a
// service mount its own routes (e.g. defused's /run and /stats) on the same
// port as /metrics and the probes. ServeMux registration is mutex-protected,
// so this is safe while the server is live; register before advertising
// readiness to avoid a window of 404s.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// Close stops the server and releases the listener.
func (s *Server) Close() error { return s.srv.Close() }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
