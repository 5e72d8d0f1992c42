// Command defused is the resident detection service: a long-running HTTP
// server where each request — a def/use verify job or an instrumented kernel
// execution — runs under a per-request epoch on pooled detector state,
// supervised with deadlines, bounded retry+backoff, and checkpoint/rollback
// recovery. The paper's end-of-interval verification becomes a per-request
// contract: every response has been verified against its epoch checksums
// before it is sent, and every completed request is journaled to a
// crash-consistent WAL.
//
// Usage (serve):
//
//	defused -addr 127.0.0.1:9150 [-words 64] [-epochs 8] [-seed 1] \
//	        [-kernel name -scale 0.002] [-max-inflight 4] [-queue 8] \
//	        [-timeout 30s] [-fault-rate 0] [-fault-seed 1] [-wal serve.wal] \
//	        [-drain-timeout 30s] \
//	        [-trace spans.jsonl] [-metrics out] [-flight dump.json] [-chrome t.json]
//
// The service and its telemetry share one port: /run and /stats alongside
// /metrics, /healthz (liveness), /readyz (readiness; flips unready the
// moment a drain starts), /flight, /trace, and pprof. -trace writes every
// span as one JSON line: one "request" trace per verify job (its epochs,
// recovery actions and injected fault.injected mark) and root point spans
// for server.state transitions and journal.* rotation, compaction and
// append faults. Admission control sheds load with 429 once the bounded
// queue is full and refuses with 503 while draining. The first
// SIGINT/SIGTERM starts a graceful drain: in-flight epochs complete and
// verify, the WAL is sealed, and the process exits cleanly; a second signal
// forces immediate exit with telemetry flushed. A SIGKILLed server restarts
// over its WAL, re-verifying the newest record from first principles before
// resuming.
//
// -fault-rate R injects a transient single-bit fault into a deterministic
// R-fraction of live verify requests (sampled purely from the request ID, so
// an auditing client with the same -fault-seed knows exactly which requests
// were hit). The epoch discipline guarantees each injected fault is detected
// at its epoch boundary and rolled back; the response must carry the same
// digest a clean run produces.
//
// Usage (load generator):
//
//	defused -loadgen -target http://127.0.0.1:9150 [-streams 4] [-requests 200] \
//	        [-words 64] [-epochs 8] [-seed 1] [-fault-rate 0.05] [-fault-seed 1] \
//	        [-kernel-every 0] [-first-id 0] [-gate] [-json-out BENCH_overhead.json]
//
// The load generator drives concurrent streams against a running defused,
// independently recomputes which requests the server must have injected and
// what digest each must return, and reports p50/p99/p999 latency plus
// verified throughput. -gate exits non-zero unless every injected fault was
// detected and recovered and every clean request returned the exact
// reference digest. -json-out merges the result into an existing
// BENCH_overhead.json as its service block (current defuse/overhead schema).
//
// Usage (chaos soak):
//
//	defused -soak [-soak-duration 30s] [-soak-seed 1] [-soak-dir DIR] \
//	        [-gate] [-json-out BENCH_overhead.json]
//
// The soak re-execs this binary as a child service and runs it under a seeded
// disturbance schedule: SIGKILLs with torn tails and disk bit flips applied
// between restarts, SIGSTOP/SIGCONT pauses, injected WAL write/fsync faults,
// overload bursts, and adversarial clients — while auditing every response
// digest and re-verifying the journal across every restart. -gate exits
// non-zero unless the schedule's minima were all delivered with zero silent
// corruptions, undetected faults, resume mismatches, or audit failures.
// -json-out merges the soak row into BENCH_overhead.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"defuse/internal/bench"
	"defuse/internal/chaos"
	"defuse/internal/server"
	"defuse/internal/wal"
	"defuse/telemetry"
)

func main() {
	// A soak child must take its orders from the spec in the environment
	// before flag parsing can see the (orchestrator's) command line.
	if chaos.IsSoakChild() {
		chaos.SoakChildMain()
	}
	addr := flag.String("addr", "127.0.0.1:9150", "serve the service and its telemetry on this host:port")
	words := flag.Int("words", 64, "default words per verify request")
	epochs := flag.Int("epochs", 8, "default epochs per verify request")
	seed := flag.Uint64("seed", 1, "seed deriving verify requests' initial data")
	kernel := flag.String("kernel", "", "preload this Table 2 benchmark for kernel requests")
	scale := flag.Float64("scale", 0.002, "with -kernel: problem-size scale relative to the paper's sizes")
	maxInFlight := flag.Int("max-inflight", 4, "concurrently executing requests (also the pool sizes)")
	queue := flag.Int("queue", 0, "admission queue depth; arrivals beyond it are shed with 429 (0 = 2*max-inflight)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	faultRate := flag.Float64("fault-rate", 0, "inject a transient fault into this fraction of verify requests")
	faultSeed := flag.Uint64("fault-seed", 1, "seed of the deterministic fault sampler")
	faultAddrFrac := flag.Float64("fault-addr-frac", 0, "fraction of injected faults that are wrong-location loads instead of bit flips")
	walPath := flag.String("wal", "", "journal completed requests to this WAL for crash-consistent resume")
	walSegBytes := flag.Int64("wal-segment-bytes", 0, "rotate the WAL into sealed segments past this size (0 = 64 MiB)")
	walMaxSegs := flag.Int("wal-max-segments", 0, "compact oldest sealed segments beyond this count (0 = 8, negative = never)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain")

	loadgen := flag.Bool("loadgen", false, "run as load generator against -target instead of serving")
	target := flag.String("target", "http://127.0.0.1:9150", "with -loadgen: service base URL")
	streams := flag.Int("streams", 4, "with -loadgen: concurrent request streams")
	requests := flag.Int("requests", 200, "with -loadgen: total requests across all streams")
	kernelEvery := flag.Int("kernel-every", 0, "with -loadgen: make every Nth request a kernel job (0 = none)")
	firstID := flag.Uint64("first-id", 0, "with -loadgen: request ID offset (successive runs on one journal need disjoint IDs)")
	gate := flag.Bool("gate", false, "with -loadgen: exit non-zero unless every injected fault was detected and recovered cleanly")
	jsonOut := flag.String("json-out", "", "with -loadgen/-soak: merge the result row into this BENCH_overhead.json")

	soak := flag.Bool("soak", false, "run the chaos soak: re-exec this binary as a child service under a seeded disturbance schedule")
	soakDuration := flag.Duration("soak-duration", 30*time.Second, "with -soak: soak length")
	soakSeed := flag.Uint64("soak-seed", 1, "with -soak: seed deriving the disturbance schedule")
	soakDir := flag.String("soak-dir", "", "with -soak: scratch directory (empty = a fresh temp dir)")

	obsFlags := telemetry.ObsFlags(flag.CommandLine)
	flag.Parse()
	obsCfg := obsFlags()

	if err := validateFlags(flagValues{
		MaxInFlight: *maxInFlight, Queue: *queue,
		FaultRate: *faultRate, FaultAddrFrac: *faultAddrFrac,
		DrainTimeout: *drainTimeout, WALSegmentBytes: *walSegBytes,
		SoakDuration: *soakDuration,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "defused:", err)
		flag.Usage()
		os.Exit(2)
	}

	if *soak {
		if err := runSoak(*soakSeed, *soakDuration, *soakDir, *gate, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}

	if *loadgen {
		if err := runLoadgen(*target, *streams, *requests, *words, *epochs, *seed,
			*faultRate, *faultSeed, *faultAddrFrac, *kernelEvery, *firstID, *timeout, *gate, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}

	if obsCfg.ServeAddr != "" {
		fatal(fmt.Errorf("-serve is implied: defused serves telemetry on the service port (-addr)"))
	}
	if *addr == "" {
		fatal(fmt.Errorf("-addr is required"))
	}
	obsCfg.ServeAddr = *addr
	// Boot unready: readiness is advertised only once the pools are built,
	// the kernel is warmed up, the journal is scanned, and the routes are
	// mounted.
	health := telemetry.NewHealth()
	health.SetReady(false)
	obsCfg.Health = health

	obs, err := telemetry.SetupObs(obsCfg)
	if err != nil {
		fatal(err)
	}
	srv, err := server.New(server.Config{
		Words: *words, Epochs: *epochs, Seed: *seed,
		Kernel: *kernel, Scale: *scale,
		MaxInFlight: *maxInFlight, QueueDepth: *queue, Timeout: *timeout,
		FaultRate: *faultRate, FaultSeed: *faultSeed, FaultAddrFraction: *faultAddrFrac,
		WALPath: *walPath, WALSegmentBytes: *walSegBytes, WALMaxSegments: *walMaxSegs,
		Obs: obs,
	})
	if err != nil {
		_ = obs.Finish()
		fatal(err)
	}
	srv.Mount(obs.Server)
	health.SetReady(true)

	fmt.Fprintf(os.Stderr, "defused: serving on http://%s (POST /run; /stats /metrics /healthz /readyz)\n", obs.Server.Addr())
	if *walPath != "" {
		info := srv.Resume()
		if info.Records > 0 {
			fmt.Fprintf(os.Stderr, "defused: resumed journal %s: %d records (last ID %d, re-verified), torn tail: %v\n",
				*walPath, info.Records, info.LastID, info.TornTail)
		} else {
			fmt.Fprintf(os.Stderr, "defused: journaling to %s\n", *walPath)
		}
	}
	if *kernel != "" {
		fmt.Fprintf(os.Stderr, "defused: kernel %s warmed up, reference digest %x\n", *kernel, srv.KernelRef())
	}

	// First signal: start draining. Second signal: immediate exit with
	// telemetry flushed (GracefulSignals runs obs.Finish).
	ctx, stop := telemetry.GracefulSignals(obs)
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "defused: draining (in-flight requests completing; interrupt again to force exit)")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	derr := srv.Drain(dctx)
	cancel()
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "defused: drained: %d completed (%d injected, %d recovered), %d shed, %d rejected\n",
		st.Requests, st.Injected, st.Recovered, st.Shed, st.Rejected)
	stop()
	if ferr := obs.Finish(); derr == nil {
		derr = ferr
	}
	if derr != nil {
		fatal(derr)
	}
}

func runLoadgen(target string, streams, requests, words, epochs int, seed uint64,
	faultRate float64, faultSeed uint64, faultAddrFrac float64, kernelEvery int, firstID uint64,
	timeout time.Duration, gate bool, jsonOut string) error {
	// The loadgen shares the CLI-wide signal discipline: first interrupt
	// cancels the run (partial results still reported), second forces exit.
	ctx, stop := telemetry.GracefulSignals(&telemetry.Obs{})
	defer stop()

	res, err := server.RunLoad(ctx, server.LoadConfig{
		Target: target, Streams: streams, Requests: requests,
		Words: words, Epochs: epochs, Seed: seed,
		FaultRate: faultRate, FaultSeed: faultSeed, FaultAddrFraction: faultAddrFrac,
		KernelEvery: kernelEvery, FirstID: firstID, Timeout: timeout,
	})
	if err != nil {
		return err
	}
	row := res.Row
	fmt.Printf("loadgen: %d streams, %d completed in %.2fs (%.1f req/s)\n",
		row.Streams, row.Requests, row.DurationSeconds, row.ThroughputRPS)
	fmt.Printf("loadgen: injected %d, detected %d, recovered %d; clean %d (mismatches %d)\n",
		row.Injected, row.Detected, row.Recovered, row.Clean, row.CleanMismatches)
	fmt.Printf("loadgen: shed %d, rejected %d, errors %d\n", row.Shed, row.Rejected, row.Errors)
	fmt.Printf("loadgen: latency p50 %.6fs  p99 %.6fs  p999 %.6fs\n",
		row.P50Seconds, row.P99Seconds, row.P999Seconds)
	for _, m := range res.Mismatches {
		fmt.Fprintln(os.Stderr, "loadgen: audit:", m)
	}

	if jsonOut != "" {
		err := bench.MergeReport(jsonOut, func(r *bench.OverheadReport) { r.Service = &row }, func(path string, data []byte) error {
			return wal.WriteFileAtomic(path, data, 0o644)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loadgen: merged service row into %s\n", jsonOut)
	} else if gate {
		// A gated run with no merge target still prints the row for CI logs.
		raw, _ := json.Marshal(row)
		fmt.Printf("loadgen: row %s\n", raw)
	}
	if gate {
		return res.Gate()
	}
	return nil
}

func runSoak(seed uint64, duration time.Duration, dir string, gate bool, jsonOut string) error {
	ctx, stop := telemetry.GracefulSignals(&telemetry.Obs{})
	defer stop()

	res, err := chaos.Soak(ctx, chaos.Config{
		Seed: seed, Duration: duration, Dir: dir,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	row := res.Row
	fmt.Printf("soak: %.0fs under seed %d: %d requests across %d incarnations\n",
		row.DurationSeconds, row.Seed, row.Requests, row.Restarts)
	fmt.Printf("soak: disturbances: %d kills, %d pauses, %d torn writes, %d bit flips, %d WAL write faults, %d bursts\n",
		row.Kills, row.Pauses, row.TornWrites, row.BitFlips, row.WriteFaults, row.Bursts)
	fmt.Printf("soak: injected %d, detected %d, recovered %d; shed %d, rejected %d, retries %d; degraded entered %d\n",
		row.Injected, row.Detected, row.Recovered, row.Shed, row.Rejected, row.Retries, row.DegradedN)
	fmt.Printf("soak: journal: %d live + %d compacted in %d segments, %d bytes on disk\n",
		row.JournalLive, row.JournalCompacted, row.JournalSegments, row.JournalDiskBytes)
	fmt.Printf("soak: violations: %d silent corruptions, %d undetected faults, %d resume mismatches, %d audit failures\n",
		row.SilentCorruptions, row.UndetectedFaults, row.ResumeMismatches, row.AuditFailures)
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "soak: audit:", f)
	}

	if jsonOut != "" {
		err := bench.MergeReport(jsonOut, func(r *bench.OverheadReport) { r.Soak = &row }, func(path string, data []byte) error {
			return wal.WriteFileAtomic(path, data, 0o644)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "soak: merged soak row into %s\n", jsonOut)
	} else if gate {
		raw, _ := json.Marshal(row)
		fmt.Printf("soak: row %s\n", raw)
	}
	if gate {
		return res.Gate()
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "defused:", err)
	os.Exit(1)
}
