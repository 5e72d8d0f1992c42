package telemetry

import (
	"fmt"
	"sync"
)

// ObsConfig selects the observability outputs a CLI was asked for. Every
// field is optional; the zero config yields a fully inert Obs whose
// components are all nil, which every telemetry entry point tolerates.
type ObsConfig struct {
	// TracePath writes every finished span as one JSON line.
	TracePath string
	// MetricsPath writes the registry at Finish (.json or Prometheus text).
	MetricsPath string
	// FlightPath arms the flight recorder: the ring dumps there
	// automatically on the default trigger spans (verification mismatch,
	// detector-fault latch, checkpoint corruption, WAL corruption) and on
	// Finish/Flush.
	FlightPath string
	// ChromePath writes the span buffer as Chrome trace-event JSON
	// (Perfetto-loadable) at Finish.
	ChromePath string
	// ServeAddr starts the live HTTP endpoint (host:port; port 0 picks one).
	ServeAddr string
	// Health supplies the liveness/readiness state served at /healthz and
	// /readyz. Nil with ServeAddr set creates a default (immediately ready)
	// Health — right for batch CLIs; a resident service passes its own,
	// marked unready, and flips it after warmup.
	Health *Health
}

// Obs bundles the observability components behind a CLI's flags: the span
// tracer (feeding the JSONL file, the span buffer and the flight ring), the
// metrics registry, and the live HTTP server. Components not asked for are
// nil; instrumented code threads them without guards.
type Obs struct {
	Metrics *Registry
	Tracer  *Tracer
	Flight  *FlightRecorder
	Spans   *SpanBuffer
	Server  *Server
	Health  *Health

	cfg        ObsConfig
	jsonl      *JSONLSink
	finishOnce sync.Once
	finishErr  error
}

// SetupObs opens everything cfg asks for. On error nothing is left open.
// Call Finish on every exit path; Flush is safe mid-run (signal handlers).
func SetupObs(cfg ObsConfig) (*Obs, error) {
	o := &Obs{cfg: cfg}
	if cfg.TracePath != "" {
		s, err := OpenJSONLFile(cfg.TracePath)
		if err != nil {
			return nil, err
		}
		o.jsonl = s
	}
	if cfg.MetricsPath != "" || cfg.ServeAddr != "" {
		o.Metrics = NewRegistry()
	}
	if cfg.FlightPath != "" || cfg.ServeAddr != "" {
		o.Flight = NewFlightRecorder(DefaultFlightSize)
		if cfg.FlightPath != "" {
			o.Flight.SetDump(cfg.FlightPath)
		}
	}
	if cfg.ChromePath != "" || cfg.ServeAddr != "" {
		o.Spans = NewSpanBuffer(DefaultSpanCap)
	}
	// Interface conversions must be guarded: a typed-nil pointer inside a
	// SpanSink interface would defeat MultiSpan's nil filtering.
	var spanJSONL, spanBuf, spanFlight SpanSink
	if o.jsonl != nil {
		spanJSONL = o.jsonl
	}
	if o.Spans != nil {
		spanBuf = o.Spans
	}
	if o.Flight != nil {
		spanFlight = o.Flight
	}
	if spanSink := MultiSpan(spanJSONL, spanBuf, spanFlight); spanSink != nil {
		o.Tracer = NewTracer(spanSink)
	}
	o.Health = cfg.Health
	if cfg.ServeAddr != "" {
		if o.Health == nil {
			o.Health = NewHealth()
		}
		o.Health.BindGauge(o.Metrics)
		srv, err := Serve(cfg.ServeAddr, o.Metrics, o.Flight, o.Spans, o.Health)
		if err != nil {
			if o.jsonl != nil {
				o.jsonl.Close()
			}
			return nil, err
		}
		o.Server = srv
	}
	return o, nil
}

// Flush persists current state without closing anything: the JSONL buffer is
// flushed, the flight ring is dumped (trigger "signal") if a dump path is
// armed and no automatic trigger has fired yet, and the metrics and Chrome
// trace files are (re)written. It is what the signal handler runs on skipped
// signals so even a later SIGKILL leaves artifacts behind.
func (o *Obs) Flush() error {
	if o == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if o.jsonl != nil {
		keep(o.jsonl.Flush())
	}
	if o.Flight != nil && o.cfg.FlightPath != "" {
		if _, dumped := o.Flight.Dumped(); !dumped {
			keep(o.Flight.DumpTo(o.cfg.FlightPath, "signal"))
		}
	}
	if o.Metrics != nil && o.cfg.MetricsPath != "" {
		keep(o.Metrics.WriteMetricsFile(o.cfg.MetricsPath))
	}
	if o.Spans != nil && o.cfg.ChromePath != "" {
		keep(o.Spans.WriteChromeTraceFile(o.cfg.ChromePath))
	}
	return first
}

// Finish drains and closes everything: the flight ring is dumped (trigger
// "exit") unless an automatic trigger already wrote the postmortem, the
// Chrome trace and metrics files are written, the JSONL file is closed, and
// the HTTP server is shut down. It is idempotent — the first call does the
// work and later calls return its result — so the normal exit path and a
// racing signal handler can both call it without double-closing sinks.
func (o *Obs) Finish() error {
	if o == nil {
		return nil
	}
	o.finishOnce.Do(func() { o.finishErr = o.finish() })
	return o.finishErr
}

func (o *Obs) finish() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if o.Flight != nil && o.cfg.FlightPath != "" {
		if _, dumped := o.Flight.Dumped(); !dumped {
			keep(o.Flight.DumpTo(o.cfg.FlightPath, "exit"))
		}
	}
	if o.Metrics != nil && o.cfg.MetricsPath != "" {
		keep(o.Metrics.WriteMetricsFile(o.cfg.MetricsPath))
	}
	if o.Spans != nil && o.cfg.ChromePath != "" {
		keep(o.Spans.WriteChromeTraceFile(o.cfg.ChromePath))
		if d := o.Spans.Dropped(); d > 0 {
			keep(fmt.Errorf("telemetry: span buffer overflowed, %d spans dropped from %s", d, o.cfg.ChromePath))
		}
	}
	if o.jsonl != nil {
		keep(o.jsonl.Close())
	}
	if o.Server != nil {
		keep(o.Server.Close())
	}
	return first
}
