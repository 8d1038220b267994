// Command shelleyd is the resident verification daemon: it keeps
// loaded modules and their memoizing pipeline caches warm in one
// process and serves verification over HTTP/JSON, so checking becomes
// an online, multi-tenant operation instead of a per-invocation batch
// script.
//
// Usage:
//
//	shelleyd [-addr HOST:PORT] [-workers N] [-queue N] [-timeout D] ...
//
// The daemon runs until SIGTERM/SIGINT, then drains: new requests are
// refused while every admitted request completes and is delivered.
// To put load on a live daemon, run the benchmark harness in perfbench/.
//
// Endpoints: POST /v1/check, /v1/check-batch, /v1/jobs, /v1/infer,
// /v1/trace, /v1/ingest (-mine), /v1/watch (-watch); GET /v1/jobs/{id},
// /v1/drift (-mine), /v1/watch (-watch, long-poll), /v1/status (live
// telemetry: rolling rates/percentiles, SLO burn alerts, exemplar
// traces; ?format=html for a dashboard), /healthz, /metrics. See
// docs/TUTORIAL.md §9 and §12 for a curl quickstart, §14 for model
// mining and drift detection, §15 for operating the telemetry surface
// and shelleytop, §16 for watch mode and incremental re-verification.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the DefaultServeMux, served only on the opt-in -pprof listener
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/internal/obs"
	"github.com/shelley-go/shelley/internal/server"
	"github.com/shelley-go/shelley/internal/store"
	"github.com/shelley-go/shelley/internal/telemetry"
)

// sloFlags collects repeated -slo flags, each parsed eagerly so a bad
// spec fails at flag-parse time with the offending value named.
type sloFlags []telemetry.SLO

func (s *sloFlags) String() string {
	parts := make([]string, len(*s))
	for i, slo := range *s {
		parts[i] = slo.String()
	}
	return strings.Join(parts, ",")
}

func (s *sloFlags) Set(spec string) error {
	slo, err := telemetry.ParseSLO(spec)
	if err != nil {
		return err
	}
	*s = append(*s, slo)
	return nil
}

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	code, err := run(os.Args[1:], os.Stdout, sig)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shelleyd:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run is the testable body of main: sig delivers the shutdown signal
// (tests send on it directly instead of raising a real SIGTERM).
func run(args []string, out io.Writer, sig <-chan os.Signal) (int, error) {
	fs := flag.NewFlagSet("shelleyd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9944", "listen address (port 0 picks a free port)")
	workers := fs.Int("workers", 0, "verification pool workers (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "queued-job bound before 503s (0 = 4×workers)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request execution budget (admission to response)")
	checkWorkers := fs.Int("check-workers", 1, "per-request CheckAllContext fan-out")
	maxModules := fs.Int("max-modules", 256, "resident-module bound")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget on SIGTERM")
	quiet := fs.Bool("quiet", false, "suppress the per-request access log")
	traceFile := fs.String("trace", "", "enable span tracing and write the ring buffer to this file at shutdown")
	traceFormat := fs.String("trace-format", "chrome", "trace file format: chrome or otlp")
	traceRing := fs.Int("trace-ring", 0, "enable span tracing with a ring of N spans for GET /v1/trace-export (0 with -trace unset = tracing off)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this extra listener (e.g. 127.0.0.1:6060); empty = off")
	maxStates := fs.Int("max-states", 0, "per-request bound on automata states and search nodes (0 = production default)")
	maxRegex := fs.Int("max-regex", 0, "per-request bound on regex size (0 = production default)")
	storeDir := fs.String("store-dir", "", "durable artifact store directory for warm restarts (empty = persistence off)")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "artifact store byte bound, LRU-evicted (0 = unbounded)")
	mineOn := fs.Bool("mine", false, "enable trace ingestion (POST /v1/ingest) and background model mining with drift detection (GET /v1/drift)")
	watchOn := fs.Bool("watch", false, "enable incremental watch sessions (POST/GET /v1/watch) for edit loops")
	maxWatchSessions := fs.Int("max-watch-sessions", 0, "resident watch-session bound, LRU-evicted (0 = 64)")
	watchPollTimeout := fs.Duration("watch-poll-timeout", 0, "GET /v1/watch long-poll window before a 204 (0 = 25s)")
	mineInterval := fs.Duration("mine-interval", 0, "mining-loop period (0 = 5s)")
	telemetryInterval := fs.Duration("telemetry-interval", time.Second, "telemetry snapshot period behind GET /v1/status (0 disables telemetry)")
	var slos sloFlags
	fs.Var(&slos, "slo", "SLO objective endpoint:latency:target or endpoint:availability:target, e.g. check:1ms:99 (repeatable; default check:1ms:99 and check:availability:99.9)")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	ring := *traceRing
	if *traceFile != "" && ring <= 0 {
		ring = 4096 // -trace alone keeps the default ring for the shutdown file
	}
	cfg := server.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		RequestTimeout:    *timeout,
		CheckWorkers:      *checkWorkers,
		MaxModules:        *maxModules,
		TraceRingSize:     ring,
		Mine:              *mineOn,
		MineInterval:      *mineInterval,
		Watch:             *watchOn,
		MaxWatchSessions:  *maxWatchSessions,
		WatchPollTimeout:  *watchPollTimeout,
		Telemetry:         *telemetryInterval > 0,
		TelemetryInterval: *telemetryInterval,
		SLOs:              slos,
	}
	if *maxStates > 0 || *maxRegex > 0 {
		cfg.Limits = shelley.Budget{
			MaxNFAStates:   *maxStates,
			MaxDFAStates:   *maxStates,
			MaxRegexSize:   *maxRegex,
			MaxSearchNodes: *maxStates,
		}
	}
	if !*quiet {
		// Structured access log on stderr; the obs handler stamps each
		// record with the request's trace and span IDs when tracing is on.
		cfg.Logger = slog.New(obs.NewLogHandler(slog.NewTextHandler(os.Stderr, nil)))
	}
	if *storeDir != "" {
		// Open (and warm-load) the store before the daemon serves: every
		// surviving entry of the previous run is verified and indexed
		// here, so the first fingerprint-only request can already hit.
		st, err := store.Open(store.Config{Dir: *storeDir, MaxBytes: *storeMaxBytes})
		if err != nil {
			return 2, fmt.Errorf("opening artifact store: %w", err)
		}
		defer st.Close()
		cfg.Store = st
		stats := st.Stats()
		fmt.Fprintf(out, "shelleyd: artifact store %s: %d entries (%d bytes) warm, %d quarantined\n",
			*storeDir, stats.Entries, stats.Bytes, stats.Corrupt)
	}

	if *pprofAddr != "" {
		// pprof gets its own listener so profiling exposure is an explicit
		// operator decision, never reachable through the service port.
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return 2, fmt.Errorf("pprof listener: %w", err)
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, http.DefaultServeMux) }()
		fmt.Fprintf(out, "shelleyd pprof on http://%s/debug/pprof/\n", ln.Addr())
	}

	srv := server.New(cfg)
	bound, err := srv.Start(*addr)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(out, "shelleyd listening on http://%s\n", bound)

	got := <-sig
	fmt.Fprintf(out, "shelleyd: %v: draining (budget %s)\n", got, *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return 1, fmt.Errorf("drain incomplete: %w", err)
	}
	if *traceFile != "" {
		if err := obs.WriteFile(*traceFile, *traceFormat, srv.TraceSnapshot()); err != nil {
			return 1, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(out, "shelleyd: trace written to %s\n", *traceFile)
	}
	fmt.Fprintln(out, "shelleyd: drained clean")
	return 0, nil
}
