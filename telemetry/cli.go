package telemetry

import "flag"

// ObsFlags registers the observability flag set shared by every defuse CLI
// (-trace, -metrics, -serve, -flight, -chrome) on fs and returns a builder
// to call after parsing. Registering them in one place keeps the names,
// defaults, and help text uniform across binaries; pair the resulting
// ObsConfig with SetupObs and GracefulSignals for the full shared
// boilerplate.
func ObsFlags(fs *flag.FlagSet) func() ObsConfig {
	trace := fs.String("trace", "", "write every finished span to this JSON-lines file")
	metrics := fs.String("metrics", "", "write a metrics snapshot to this file (.json for JSON, else Prometheus text)")
	serve := fs.String("serve", "", "serve live telemetry (metrics, flight ring, spans, pprof) on this host:port")
	flight := fs.String("flight", "", "arm the flight recorder: dump the recent span ring to this file on fault or exit")
	chrome := fs.String("chrome", "", "write recorded spans as Chrome trace-event JSON (Perfetto-loadable)")
	return func() ObsConfig {
		return ObsConfig{
			TracePath:   *trace,
			MetricsPath: *metrics,
			ServeAddr:   *serve,
			FlightPath:  *flight,
			ChromePath:  *chrome,
		}
	}
}
