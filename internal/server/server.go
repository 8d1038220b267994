// Package server implements shelleyd, the resident verification
// daemon: an HTTP/JSON serving layer over the shelley pipeline that
// keeps loaded modules warm across requests, bounds concurrency with a
// fixed worker pool and queue (503 on saturation, 504 on deadline), and
// drains gracefully.
// Every resident module and watch session is bound to the daemon's one
// bounded analysis cache (shelley.Cache), which /metrics reads.
//
// Every resident module owns one singleflight response cell per request
// key. /v1/check and each /v1/check-batch item share one path to it
// (answerCheck): the first request for a key leads and runs on the
// pool, identical concurrent requests wait on the cell and replay its
// exact bytes, a 200 check body stays in the cell (and is written
// behind the durable store, which a leader reads through on a miss),
// and any other result leaves the cell before its waiters are released,
// so a retry recomputes. /v1/infer and /v1/trace use the same cells but
// never keep results; /v1/watch pushes mutate session state and go
// straight to the pool. Cells are dropped with their module.
//
// Endpoints:
//
//	POST /v1/check         full per-class verification reports
//	POST /v1/infer         per-operation behavior regexes (§3.2)
//	POST /v1/trace         trace membership / flattened replay
//	POST /v1/check-batch   many items, NDJSON streamed as each finishes
//	POST /v1/jobs          async batch, answered with a job id
//	GET  /v1/jobs/{id}     job progress, or its NDJSON records with ?stream=1
//	GET  /v1/snapshot      export the store's verified entries
//	PUT  /v1/snapshot      import a snapshot into the store
//	POST /v1/watch         push a new generation of a watch session (-watch)
//	GET  /v1/watch         long-poll a session's next round (-watch)
//	POST /v1/ingest        NDJSON fleet trace frames for mining (-mine)
//	GET  /v1/drift         per-class drift reports of the last mining round (-mine)
//	GET  /v1/status        live telemetry, JSON or ?format=html
//	GET  /v1/trace-export  recent spans as Chrome trace-event or OTLP JSON
//	GET  /healthz          liveness (503 while draining)
//	GET  /metrics          Prometheus-style text exposition
//
// Request bodies carry MicroPython source, or a fingerprint of a
// source POSTed earlier for a cache-only re-check. Wire types live in
// the public client package so the daemon and its Go client share one
// schema.
//
// The request limits are fixed (docs/TUTORIAL.md §9 has the same table):
//
//	limit                                           value    past it
//	check/infer/trace/watch body, batch item source 4 MiB    400; item record 413
//	check-batch and jobs body                       16 MiB   400
//	items of one check-batch                        256      413, pointing at /v1/jobs
//	items of one job                                4096     413
//	retained jobs                                   64       503 while all run
//	one client's in-flight batch items              512      429 + Retry-After
//	in-flight batch items, all clients              1024     503 + Retry-After
//	concurrent items of one batch or job            Workers  waits
//	snapshot import body                            256 MiB  400
//	one ingest frame                                8 MiB    400
//	one client's in-flight ingested events          65536    429 + Retry-After; larger frame 413
//	in-flight ingested events, all clients          262144   503 + Retry-After
//	exemplar latency without a latency SLO          100 ms   kept as an exemplar
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/mine"
	"github.com/shelley-go/shelley/internal/obs"
	"github.com/shelley-go/shelley/internal/store"
	"github.com/shelley-go/shelley/internal/telemetry"
)

// Config sizes the daemon. The zero value is usable: every field has a
// production-shaped default.
type Config struct {
	// Workers is the number of pool workers executing verification
	// jobs; 0 means GOMAXPROCS.
	Workers int

	// QueueDepth bounds jobs admitted but not yet running; a full
	// queue answers 503. 0 means 4×Workers.
	QueueDepth int

	// RequestTimeout is the per-request execution budget, counted from
	// admission (queue time included); expiry answers 504. 0 means 30s.
	RequestTimeout time.Duration

	// CheckWorkers is the per-request fan-out of whole-module checks,
	// union and precise, passed to Module.CheckAllContext. 0 means 1
	// (parallelism across requests, not within them — the pool is the
	// concurrency budget).
	CheckWorkers int

	// MaxModules bounds resident modules; beyond it, settled entries
	// are evicted arbitrarily. 0 means 256.
	MaxModules int

	// Logger receives one structured access record per request (method,
	// path, status, duration, coalesced flag, trace ID). nil disables
	// access logging — the -quiet daemon flag.
	Logger *slog.Logger

	// TraceRingSize turns on the span tracer when positive: every
	// request runs under a root span (trace ID from the X-Shelley-Trace
	// header when the client sends one) and the last TraceRingSize
	// finished spans are kept in an in-memory ring served by
	// GET /v1/trace-export. 0 means tracing off.
	TraceRingSize int

	// Store, when non-nil, is the durable artifact store backing warm
	// restarts: verified response bodies and whole-class reports are
	// written behind it, misses read through it, and GET/PUT
	// /v1/snapshot export/import it. The server uses the store but does
	// not own it — the caller (cmd/shelleyd) opens it before New and
	// closes it after Shutdown. nil disables persistence entirely.
	Store *store.Store

	// Limits is the per-request resource budget attached to every
	// pooled job's context: it bounds automata states, regex sizes, and
	// counterexample-search nodes so a pathological request returns a
	// structured budget error instead of pinning a worker and growing
	// memory without bound. The zero value means budget.Default();
	// explicitly unlimited daemons are not supported — set huge limits
	// instead.
	Limits budget.Limits

	// Mine enables the trace-ingestion and model-mining subsystem:
	// POST /v1/ingest accepts fleet trace observations, a background
	// loop mines per-class automata from them and diffs the result
	// against the statically inferred models, and GET /v1/drift serves
	// the verdicts. Off by default — the endpoints answer 404.
	Mine bool

	// MineInterval is the background mining-loop period. Ingest is
	// decoupled from learning: observations buffer in bounded corpora
	// and each tick re-mines only classes whose observed language grew.
	// 0 means 5s.
	MineInterval time.Duration

	// Watch enables incremental re-verification sessions for edit
	// loops: POST /v1/watch pushes a source generation into a named
	// session (diffed at method granularity against the previous push,
	// only invalidated classes re-verified), GET /v1/watch long-polls
	// the session's next round. Off by default — the endpoints answer
	// 404.
	Watch bool

	// MaxWatchSessions bounds resident watch sessions; past it the
	// least-recently-used session is evicted (its pollers wake with
	// 404). 0 means 64.
	MaxWatchSessions int

	// WatchPollTimeout bounds one GET /v1/watch long-poll; a lapsed
	// poll answers 204 and the client re-polls. 0 means 25s.
	WatchPollTimeout time.Duration

	// Telemetry enables the in-process time-series engine: the metric
	// registry is snapshotted every TelemetryInterval into rolling
	// rings, SLOs are evaluated with burn-rate alerts, interesting
	// requests are tail-sampled into an exemplar ring with their span
	// trees, and GET /v1/status serves the result (JSON, or a
	// self-contained dashboard with ?format=html). Off by default —
	// /v1/status answers 404.
	Telemetry bool

	// TelemetryInterval is the engine's base snapshot period (the fine
	// ring's resolution). 0 means 1s.
	TelemetryInterval time.Duration

	// SLOs are the objectives the engine evaluates. Empty means two
	// defaults: check availability 99.9% and check latency p99 < 1ms
	// per telemetry.DefaultSLOs.
	SLOs []telemetry.SLO

	// jobHook, when set, runs at the start of every pooled job — a
	// test-only seam that lets the suite hold workers at a barrier and
	// observe saturation, coalescing, and drain deterministically.
	jobHook func()

	// runHook, when set, runs inside the panic-contained execution
	// region of every pooled job, before the verification work — a
	// test-only seam for injecting panics to exercise containment.
	runHook func()
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.CheckWorkers <= 0 {
		c.CheckWorkers = 1
	}
	if c.MaxModules <= 0 {
		c.MaxModules = 256
	}
	if c.Limits.Unlimited() {
		c.Limits = budget.Default()
	}
	if c.MineInterval <= 0 {
		c.MineInterval = 5 * time.Second
	}
	if c.MaxWatchSessions <= 0 {
		c.MaxWatchSessions = 64
	}
	if c.WatchPollTimeout <= 0 {
		c.WatchPollTimeout = 25 * time.Second
	}
	if c.TelemetryInterval <= 0 {
		c.TelemetryInterval = time.Second
	}
	if len(c.SLOs) == 0 {
		c.SLOs = telemetry.DefaultSLOs()
	}
	return c
}

// The daemon's fixed limits, tabulated in the package comment. A sync
// batch charges the batch admission its item count, which never exceeds
// maxClientItems; a job charges its peak pool occupancy, capped to it.
// Clients are keyed by the X-Shelley-Client token, falling back to the
// remote host.
const (
	maxSourceBytes    = 4 << 20 // check, infer, trace and watch bodies; one batch item's source
	maxBatchItems     = 256
	maxJobItems       = 4096
	maxJobs           = 64 // retained jobs; completed ones are evicted oldest first
	maxClientItems    = 2 * maxBatchItems
	maxBatchInflight  = 4 * maxBatchItems
	maxBatchBytes     = 4 * maxSourceBytes
	maxSnapshotBytes  = 256 << 20
	maxIngestBytes    = 8 << 20
	maxClientEvents   = 65536 // each ingested observation charges at least 1
	maxIngestInflight = 4 * maxClientEvents
	exemplarLatency   = 100 * time.Millisecond // tail-sampling threshold without a latency SLO
)

// Server is a shelleyd instance. Create with New, expose via Handler
// (any http.Server or test mux) or Start (own listener), stop with
// Shutdown.
type Server struct {
	cfg      Config
	cache    *shelley.Cache // the one analysis cache of modules and watch sessions
	modules  *moduleCache
	pool     *pool
	met      *metrics
	mux      *http.ServeMux
	adm      *admission
	jobs     *jobStore
	store    *store.Store // nil when persistence is off
	draining atomic.Bool

	// submitters tracks every goroutine that may submit pooled work
	// with blocking backpressure — sync batch handlers and async job
	// runners. drainCtx is their shared base context, canceled (with
	// errDraining as its cause) only when a Shutdown budget expires, so
	// admitted batches normally run to completion through a drain but a
	// submitter blocked in a queue send always unwinds before the pool
	// closes. submitMu makes the draining flip and submitter
	// registration mutually exclusive, so Shutdown's wait cannot miss a
	// registrant that raced the flip.
	submitMu    sync.Mutex
	submitters  sync.WaitGroup
	drainCtx    context.Context
	drainCancel context.CancelCauseFunc

	// miner and ingestAdm are non-nil iff Config.Mine. The mining loop
	// runs from New until Shutdown; mineCtx cancels it (and any round in
	// progress), mineDone confirms it exited, mineStopOnce makes the
	// stop idempotent.
	miner        *mine.Miner
	ingestAdm    *admission
	mineCtx      context.Context
	mineCancel   context.CancelFunc
	mineDone     chan struct{}
	mineStopOnce sync.Once

	// watch is non-nil iff Config.Watch. watchStop is closed at the
	// start of Shutdown so parked long-pollers answer 503 immediately
	// instead of stalling the HTTP drain for a poll window.
	watch         *watchStore
	watchStop     chan struct{}
	watchStopOnce sync.Once

	// tracer is non-nil when tracing (TraceRingSize > 0) or Telemetry
	// is on (the exemplar span trees need spans); ring only with
	// tracing; logger is Config.Logger verbatim (nil = quiet).
	tracer *obs.Tracer
	ring   *obs.Ring
	logger *slog.Logger

	// engine and traceBuf are non-nil iff Config.Telemetry. The
	// telemetry loop ticks the engine from New until Shutdown;
	// latThresh holds the per-endpoint exemplar thresholds derived
	// from the latency SLOs.
	engine       *telemetry.Engine
	traceBuf     *obs.TraceBuffer
	latThresh    map[string]time.Duration
	teleCtx      context.Context
	teleCancel   context.CancelFunc
	teleDone     chan struct{}
	teleStopOnce sync.Once

	httpSrv  *http.Server
	listener net.Listener

	// closeOnce/poolClosed make Shutdown idempotent: the pool closes
	// exactly once, later calls just wait on poolClosed.
	closeOnce  sync.Once
	poolClosed chan struct{}
}

// New returns a ready (but not yet listening) daemon.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	met := newMetrics()
	cache := shelley.NewCache()
	if cfg.Store != nil {
		// A restarted daemon then decodes stored reports, not rebuilds.
		cache.PersistReports(cfg.Store)
	}
	s := &Server{
		cfg:        cfg,
		cache:      cache,
		modules:    newModuleCache(cfg.MaxModules, met, cache),
		pool:       newPool(cfg.Workers, cfg.QueueDepth, met, cfg.jobHook),
		met:        met,
		mux:        http.NewServeMux(),
		adm:        newAdmission(maxClientItems, maxBatchInflight, &met.batchRejected, &met.batchInflightItems),
		jobs:       newJobStore(maxJobs),
		store:      cfg.Store,
		poolClosed: make(chan struct{}),
		logger:     cfg.Logger,
		watchStop:  make(chan struct{}),
	}
	if cfg.Watch {
		s.watch = newWatchStore(cfg.MaxWatchSessions, cache, &met.watchEvicted, &met.watchSessions)
	}
	s.drainCtx, s.drainCancel = context.WithCancelCause(context.Background())
	var tracerOpts []obs.Option
	if cfg.TraceRingSize > 0 {
		s.ring = obs.NewRing(cfg.TraceRingSize)
		tracerOpts = append(tracerOpts, obs.WithExporter(s.ring))
	}
	if cfg.Telemetry {
		// Retain every request's span tree briefly so tail sampling
		// can claim the interesting ones after the fact.
		s.traceBuf = obs.NewTraceBuffer(0, 0)
		tracerOpts = append(tracerOpts, obs.WithExporter(s.traceBuf))
		s.engine = telemetry.New(telemetry.Config{
			Tiers:  telemetryTiers(cfg.TelemetryInterval),
			SLOs:   cfg.SLOs,
			Source: func() telemetry.Sample { return s.met.sample(s.cache.Stats(), s.store, s.mineSnap()) },
		})
		s.latThresh = make(map[string]time.Duration)
		for _, slo := range cfg.SLOs {
			if slo.Latency > 0 {
				if cur, ok := s.latThresh[slo.Endpoint]; !ok || slo.Latency < cur {
					s.latThresh[slo.Endpoint] = slo.Latency
				}
			}
		}
	}
	if len(tracerOpts) > 0 {
		s.tracer = obs.New(tracerOpts...)
	}
	s.mux.HandleFunc("POST /v1/check", s.instrument("check", s.handleCheck))
	s.mux.HandleFunc("POST /v1/infer", s.instrument("infer", s.handleInfer))
	s.mux.HandleFunc("POST /v1/trace", s.instrument("trace", s.handleTrace))
	s.mux.HandleFunc("POST /v1/check-batch", s.instrument("check-batch", s.handleCheckBatch))
	s.mux.HandleFunc("POST /v1/jobs", s.instrument("jobs", s.handleJobSubmit))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("job-get", s.handleJobGet))
	s.mux.HandleFunc("GET /v1/snapshot", s.instrument("snapshot-get", s.handleSnapshotGet))
	s.mux.HandleFunc("PUT /v1/snapshot", s.instrument("snapshot-put", s.handleSnapshotPut))
	s.mux.HandleFunc("POST /v1/watch", s.instrument("watch", s.handleWatchPost))
	s.mux.HandleFunc("GET /v1/watch", s.instrument("watch-poll", s.handleWatchGet))
	s.mux.HandleFunc("POST /v1/ingest", s.instrument("ingest", s.handleIngest))
	s.mux.HandleFunc("GET /v1/drift", s.instrument("drift", s.handleDrift))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/trace-export", s.handleTraceExport)
	if cfg.Mine {
		mc := mine.Config{Store: cfg.Store}
		if s.engine != nil {
			mc.OnVerdict = s.onMineVerdict
		}
		s.miner = mine.NewMiner(mc)
		s.ingestAdm = newAdmission(maxClientEvents, maxIngestInflight, &met.ingestRejected, &met.ingestInflightEvents)
		s.mineCtx, s.mineCancel = context.WithCancel(context.Background())
		s.mineDone = make(chan struct{})
		go s.mineLoop()
	}
	if s.engine != nil {
		s.teleCtx, s.teleCancel = context.WithCancel(context.Background())
		s.teleDone = make(chan struct{})
		go s.teleLoop()
	}
	return s
}

// TraceSnapshot returns the buffered spans of the daemon's trace ring,
// oldest first; nil when tracing is off. cmd/shelleyd drains this into
// the -trace file at shutdown.
func (s *Server) TraceSnapshot() []obs.SpanData {
	if s.ring == nil {
		return nil
	}
	return s.ring.Snapshot()
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (e.g. "127.0.0.1:9944"; port 0 picks a free
// port) and serves until Shutdown. It returns once the listener is
// accepting, with the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.listener = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// Serve errors after Shutdown are expected; others surface
			// through failing requests, which the clients observe.
			_ = err
		}
	}()
	return ln.Addr().String(), nil
}

// Shutdown drains the daemon: new work is refused (healthz flips
// unhealthy, submissions answer 503), every admitted request runs to
// completion and its response is delivered, then workers and listener
// stop. ctx bounds the wait; on expiry remaining work is abandoned.
// This is what SIGTERM triggers in cmd/shelleyd.
func (s *Server) Shutdown(ctx context.Context) error {
	// The draining flip happens under submitMu so that, once it is
	// visible, addSubmitter can never admit another submitter — which
	// is what makes the submitters.Wait below a complete census.
	s.submitMu.Lock()
	s.draining.Store(true)
	s.submitMu.Unlock()
	// The mining loop stops first: canceling mineCtx aborts any round in
	// progress, so its final store Puts are enqueued before the flush at
	// the end of the drain — a clean shutdown loses no mined verdict.
	s.stopMiner()
	s.stopTelemetry()
	// Wake every parked watch long-poller with a 503 now: they hold no
	// admitted work, and httpSrv.Shutdown below waits for in-flight
	// handlers — without this, each poller would stall the drain for up
	// to a full WatchPollTimeout.
	s.watchStopOnce.Do(func() { close(s.watchStop) })
	s.pool.drain()
	var err error
	if s.httpSrv != nil {
		// Waits for in-flight handlers — which wait for their pooled
		// jobs — so no accepted request is dropped mid-drain.
		err = s.httpSrv.Shutdown(ctx)
	}
	// Batch streams and async jobs are admitted work too: wait for
	// every registered submitter (sync batch handlers and job runner
	// goroutines), canceling their drain context only when the budget
	// expires. Cancellation unwinds submitters blocked in a queue send
	// promptly — recording the remaining items as canceled — which is
	// what makes the pool close below safe: http.Server.Shutdown never
	// cancels request contexts, so without this a batch handler could
	// still be parked in a channel send when the queue closes.
	submittersDone := make(chan struct{})
	go func() { s.submitters.Wait(); close(submittersDone) }()
	select {
	case <-submittersDone:
	case <-ctx.Done():
		s.drainCancel(errDraining)
		<-submittersDone
	}
	// All handlers and job runners have returned (or were canceled):
	// no submitter is left, so the queue can close and workers join.
	s.closeOnce.Do(func() {
		go func() { s.pool.close(); close(s.poolClosed) }()
	})
	select {
	case <-s.poolClosed:
	case <-ctx.Done():
		return ctx.Err()
	}
	// The store's write-behind queue is admitted work too: with every
	// worker stopped no new Puts can arrive, so flushing here (bounded
	// by the same drain budget) guarantees a clean shutdown loses no
	// completed artifact. The caller owns the store and closes it.
	if s.store != nil {
		if ferr := s.store.Flush(ctx); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}

// addSubmitter registers a goroutine that may submit pooled work with
// blocking backpressure (a sync batch handler or an async job runner),
// refusing once draining has begun. Registration and the draining flip
// share submitMu: a submitter is either counted before Shutdown waits,
// or sees draining and backs off — never neither, which is the
// invariant pool.close relies on. Every true return must be paired
// with exactly one s.submitters.Done().
func (s *Server) addSubmitter() bool {
	s.submitMu.Lock()
	defer s.submitMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.submitters.Add(1)
	return true
}

// reqInfo rides the request context so execute can report back to
// instrument whether this request was coalesced onto another's work.
type reqInfoKey struct{}

type reqInfo struct{ coalesced atomic.Bool }

// instrument wraps a handler with inflight/latency/status accounting,
// a per-request root span (trace ID taken from the X-Shelley-Trace
// header when valid, generated otherwise, and always echoed back in
// the response header), and one structured access-log record.
func (s *Server) instrument(endpoint string, h func(w http.ResponseWriter, r *http.Request) int) http.HandlerFunc {
	spanName := "http." + endpoint // hoisted off the per-request path
	ep := s.met.endpoint(endpoint) // pre-registered: observe is lock-free
	return func(w http.ResponseWriter, r *http.Request) {
		traceID := r.Header.Get("X-Shelley-Trace")
		if !obs.ValidTraceID(traceID) {
			traceID = obs.NewTraceID()
		}
		// The header goes out even with tracing off: request/response
		// correlation must not depend on the span ring being enabled.
		w.Header().Set("X-Shelley-Trace", traceID)
		info := &reqInfo{}
		ctx := context.WithValue(r.Context(), reqInfoKey{}, info)
		var span *obs.Span
		if s.tracer != nil {
			ctx, span = s.tracer.StartRoot(ctx, spanName, traceID,
				obs.String("method", r.Method), obs.String("path", r.URL.Path))
		}
		r = r.WithContext(ctx)

		s.met.inflight.Add(1)
		start := time.Now()
		code := h(w, r)
		s.met.inflight.Add(-1)
		elapsed := time.Since(start)
		ep.observe(code, elapsed)

		span.SetAttr(obs.Int("status", code), obs.Bool("coalesced", info.coalesced.Load()))
		span.End()
		// Tail sampling runs after span.End so the exemplar can claim
		// the finished root span from the trace buffer.
		s.maybeExemplar(endpoint, traceID, code, elapsed)
		if s.logger != nil {
			s.logger.LogAttrs(ctx, slog.LevelInfo, "access",
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", code),
				slog.Duration("duration", elapsed),
				slog.Bool("coalesced", info.coalesced.Load()),
				slog.String("trace", traceID))
		}
	}
}

// writeError emits the uniform error body. A failed write is counted
// rather than surfaced: once WriteHeader has run the status is
// committed, so a mid-body disconnect can only truncate the response —
// the shelleyd_response_write_errors_total counter is the audit trail
// that it happened.
func (s *Server) writeError(w http.ResponseWriter, status int, msg string) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(client.ErrorResponse{Error: msg}); err != nil {
		s.met.writeErrors.Add(1)
	}
	return status
}

// writeRaw writes a settled response's exact bytes. Write failures
// are counted like writeError's.
func (s *Server) writeRaw(w http.ResponseWriter, status int, body []byte) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.met.writeErrors.Add(1)
	}
	return status
}

// reply is one request's answer: a settled response (status plus the
// exact body bytes a cell or the store holds) or a refusal made before
// any work (status plus msg, body nil). coalesced marks a request that
// waited on another request's in-flight cell.
type reply struct {
	status    int
	body      []byte
	msg       string
	coalesced bool
}

func refuse(status int, msg string) reply { return reply{status: status, msg: msg} }

// target is a request resolved to its resident module.
type target struct {
	e      *moduleEntry // nil when the request was refused
	fp     string
	loaded bool // this request made the module resident
}

// resolve turns a request's (source, fingerprint) pair into its
// resident module, hashing the source once to compute the fingerprint
// server-side and loading the module on first use. Refusals come back
// as rep: empty request 400, fingerprint mismatch 400, unknown
// fingerprint 404, unloadable source 422. err is non-nil only when ctx
// ended while waiting for a load.
func (s *Server) resolve(ctx context.Context, source, fp string) (t target, rep reply, err error) {
	if source == "" && fp == "" {
		return t, refuse(http.StatusBadRequest, "request needs source or fingerprint"), nil
	}
	t.fp = fp
	if source != "" {
		t.fp = client.Fingerprint(source)
		if fp != "" && fp != t.fp {
			return t, refuse(http.StatusBadRequest, "fingerprint does not match source"), nil
		}
	}
	e, loaded, err := s.modules.get(ctx, t.fp, source)
	switch {
	case errors.Is(err, errNotResident):
		return t, refuse(http.StatusNotFound, "module "+t.fp+" not resident; re-POST its source"), nil
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.met.timeoutWait.Add(1)
		return t, reply{}, fmt.Errorf("module load wait: %w", err)
	case err != nil:
		return t, refuse(http.StatusUnprocessableEntity, err.Error()), nil
	}
	t.e, t.loaded = e, loaded
	return t, reply{}, nil
}

// answer serves key from the module's response cell. A kept 200 is
// replayed at once; an in-flight cell is waited on (coalesced); a new
// cell is led. keep marks a check, whose 200 stays in the cell and is
// written behind the durable store; infer and trace results are never
// kept. block selects the submission discipline: single-shot requests
// shed load (a full queue answers 503 at once), batch items exert
// backpressure. err is non-nil only when ctx ended first; the shared
// computation then continues for the other waiters.
func (s *Server) answer(ctx context.Context, t target, key string, keep, block bool, fn func(ctx context.Context) (int, []byte)) (reply, error) {
	c, leader := t.e.cell(key)
	switch {
	case !leader && isClosed(c.done):
		s.met.bodyCacheHits.Add(1)
		return reply{status: c.status, body: c.body}, nil
	case !leader:
		s.met.coalesced.Add(1)
	default:
		s.lead(ctx, t.e, c, key, keep, block, fn)
	}
	if !t.loaded {
		s.met.moduleHits.Add(1)
	}
	rep, err := s.await(ctx, c)
	rep.coalesced = !leader
	return rep, err
}

// lead settles a new cell: a check's leader first reads its body
// through the durable store — an earlier process's exact bytes for
// this content-addressed key — and otherwise runs fn on the pool.
func (s *Server) lead(ctx context.Context, e *moduleEntry, c *cell, key string, keep, block bool, fn func(ctx context.Context) (int, []byte)) {
	if keep {
		if body, ok := s.persisted(key); ok {
			e.settle(key, c, http.StatusOK, body, true)
			return
		}
	}
	s.submit(ctx, block, fn, func(status int, body []byte) {
		kept := keep && status == http.StatusOK
		if kept && s.store != nil {
			s.store.Put(bodyKey(key), body)
		}
		e.settle(key, c, status, body, kept)
	})
}

// persisted reads key's 200 check body through the durable store; a
// miss without one.
func (s *Server) persisted(key string) ([]byte, bool) {
	if s.store == nil {
		return nil, false
	}
	body, ok := s.store.Get(bodyKey(key))
	if ok {
		s.met.storeBodyHits.Add(1)
	}
	return body, ok
}

// await waits for c's result, or for ctx to end first.
func (s *Server) await(ctx context.Context, c *cell) (reply, error) {
	select {
	case <-c.done:
		return reply{status: c.status, body: c.body}, nil
	case <-ctx.Done():
		s.met.timeoutWait.Add(1)
		return reply{}, fmt.Errorf("request context ended: %w", ctx.Err())
	}
}

// submit runs fn on the worker pool and hands its result to done
// exactly once: fn's own response, a contained panic's 500, a queue
// expiry's 504, or a refused submission's 503. fn runs under the
// request timeout (counted from admission) and the configured resource
// budget. block selects backpressure over load shedding (see answer).
func (s *Server) submit(rctx context.Context, block bool, fn func(ctx context.Context) (int, []byte), done func(status int, body []byte)) {
	// Pooled jobs run under the pool's deadline context, not the
	// request's; the carrier re-attaches the leader's tracer and root
	// span so the work still nests under the request trace.
	carrier := obs.Carry(rctx)
	j := job{
		deadline: time.Now().Add(s.cfg.RequestTimeout),
		run: func(ctx context.Context) {
			// A panic anywhere in the verification pipeline must not
			// kill the daemon or strand the waiters: it is contained
			// here, counted, and answered as a 500 that is never kept.
			defer func() {
				if rec := recover(); rec != nil {
					s.met.panics.Add(1)
					done(errorBody(http.StatusInternalServerError,
						fmt.Sprintf("internal error: verification panicked: %v", rec)))
				}
			}()
			if s.cfg.runHook != nil {
				s.cfg.runHook()
			}
			done(fn(budget.With(carrier.Context(ctx), s.cfg.Limits)))
		},
		expired: func() { done(errorBody(http.StatusGatewayTimeout, "request expired in queue")) },
	}
	var err error
	if block {
		err = s.pool.submitCtx(rctx, j)
	} else {
		err = s.pool.submit(j)
	}
	if err != nil {
		msg := "queue saturated; retry later"
		switch {
		case errors.Is(err, errDraining):
			msg = "daemon is draining"
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			msg = "request ended before submission: " + err.Error()
		}
		done(errorBody(http.StatusServiceUnavailable, msg))
	}
}

// respond writes a single-shot request's reply: the settled bytes, the
// uniform error body of a refusal, or a 504 when the request's context
// ended first.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, rep reply, err error) int {
	if rep.coalesced {
		if info, ok := r.Context().Value(reqInfoKey{}).(*reqInfo); ok {
			info.coalesced.Store(true)
		}
	}
	switch {
	case err != nil:
		return s.writeError(w, http.StatusGatewayTimeout, err.Error())
	case rep.body == nil:
		return s.writeError(w, rep.status, rep.msg)
	}
	return s.writeRaw(w, rep.status, rep.body)
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) int {
	var req client.CheckRequest
	if err := decodeBody(w, r, maxSourceBytes, &req); err != nil {
		return s.writeError(w, http.StatusBadRequest, err.Error())
	}
	rep, err := s.answerCheck(r.Context(), req, false)
	return s.respond(w, r, rep, err)
}

// answerCheck is the one path from a check — a /v1/check request or a
// batch item — to its response: resolve the module, then answer from
// its response cell for (fingerprint, class, precise). A
// fingerprint-only check of a module that is not resident is answered
// from the durable store when it holds the body, which is what lets a
// freshly restarted daemon serve it without the source being re-POSTed.
func (s *Server) answerCheck(ctx context.Context, req client.CheckRequest, block bool) (reply, error) {
	t, rep, err := s.resolve(ctx, req.Source, req.Fingerprint)
	key := checkKey(t.fp, req.Class, req.Precise)
	if t.e == nil {
		if rep.status == http.StatusNotFound {
			if body, ok := s.persisted(key); ok {
				return reply{status: http.StatusOK, body: body}, nil
			}
		}
		return rep, err
	}
	if req.Class != "" {
		if _, ok := t.e.mod.Class(req.Class); !ok {
			return refuse(http.StatusNotFound, "class "+req.Class+" not found"), nil
		}
	}
	return s.answer(ctx, t, key, true, block, s.checkFn(t.e.mod, t.fp, req.Class, req.Precise))
}

// checkKey is the canonical key of a check: shared by /v1/check and
// every batch item, so identical work anywhere shares one cell.
func checkKey(fp, class string, precise bool) string {
	return "check\x00" + fp + "\x00" + class + "\x00" + strconv.FormatBool(precise)
}

// bodyKey namespaces persisted response bodies apart from the persisted
// pipeline artifacts sharing the durable store.
func bodyKey(key string) string { return "body\x00" + key }

// checkFn builds the pooled verification closure for one (module,
// class, precise) triple; its byte output is what /v1/check responds
// and what a batch record embeds. Whole-module checks, union and
// precise alike, run the library's one module sweep.
func (s *Server) checkFn(mod *shelley.Module, fp, class string, precise bool) func(ctx context.Context) (int, []byte) {
	return func(ctx context.Context) (int, []byte) {
		var opts []shelley.Option
		if precise {
			opts = append(opts, shelley.Precise())
		}
		var reports []*shelley.Report
		var err error
		if class != "" {
			cls, _ := mod.Class(class)
			var rep *shelley.Report
			rep, err = cls.CheckContext(ctx, opts...)
			reports = []*shelley.Report{rep}
		} else {
			reports, err = mod.CheckAllContext(ctx, s.cfg.CheckWorkers, opts...)
		}
		if err != nil {
			return s.checkErrorBody(ctx, err)
		}
		ok := true
		for _, rep := range reports {
			ok = ok && rep.OK()
		}
		return jsonBody(client.CheckResponse{Fingerprint: fp, OK: ok, Reports: reports})
	}
}

// checkErrorBody maps a verification error to its response: budget
// exhaustion is the client's problem (422, counted), a fired deadline
// is a timeout (504), anything else is unprocessable input (422).
func (s *Server) checkErrorBody(ctx context.Context, err error) (int, []byte) {
	if errors.Is(err, budget.ErrExceeded) {
		s.met.budgetExceeded.Add(1)
		return errorBody(http.StatusUnprocessableEntity, "resource budget exceeded: "+err.Error())
	}
	if ctx.Err() != nil || errors.Is(err, budget.ErrCanceled) {
		return errorBody(http.StatusGatewayTimeout, "check timed out: "+err.Error())
	}
	return errorBody(http.StatusUnprocessableEntity, err.Error())
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) int {
	var req client.InferRequest
	if err := decodeBody(w, r, maxSourceBytes, &req); err != nil {
		return s.writeError(w, http.StatusBadRequest, err.Error())
	}
	if req.Class == "" {
		return s.writeError(w, http.StatusBadRequest, "infer needs a class")
	}
	t, rep, err := s.resolve(r.Context(), req.Source, req.Fingerprint)
	if t.e == nil {
		return s.respond(w, r, rep, err)
	}
	cls, ok := t.e.mod.Class(req.Class)
	if !ok {
		return s.writeError(w, http.StatusNotFound, "class "+req.Class+" not found")
	}
	key := strings.Join([]string{"infer", t.fp, req.Class, req.Operation}, "\x00")
	rep, err = s.answer(r.Context(), t, key, false, false, func(ctx context.Context) (int, []byte) {
		ops := cls.Operations()
		if req.Operation != "" {
			ops = []string{req.Operation}
		}
		resp := client.InferResponse{Fingerprint: t.fp, Class: req.Class}
		for _, op := range ops {
			if err := ctx.Err(); err != nil {
				return errorBody(http.StatusGatewayTimeout, "infer timed out: "+err.Error())
			}
			raw, err := cls.Behavior(op)
			if err != nil {
				return errorBody(http.StatusNotFound, err.Error())
			}
			simp, err := cls.BehaviorSimplified(op)
			if err != nil {
				return errorBody(http.StatusNotFound, err.Error())
			}
			resp.Behaviors = append(resp.Behaviors, client.OperationBehavior{
				Operation: op, Behavior: raw, Simplified: simp,
			})
		}
		return jsonBody(resp)
	})
	return s.respond(w, r, rep, err)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) int {
	var req client.TraceRequest
	if err := decodeBody(w, r, maxSourceBytes, &req); err != nil {
		return s.writeError(w, http.StatusBadRequest, err.Error())
	}
	if req.Class == "" {
		return s.writeError(w, http.StatusBadRequest, "trace needs a class")
	}
	t, rep, err := s.resolve(r.Context(), req.Source, req.Fingerprint)
	if t.e == nil {
		return s.respond(w, r, rep, err)
	}
	cls, ok := t.e.mod.Class(req.Class)
	if !ok {
		return s.writeError(w, http.StatusNotFound, "class "+req.Class+" not found")
	}
	key := strings.Join([]string{"trace", t.fp, req.Class, fmt.Sprint(req.Replay), strings.Join(req.Trace, "\x01")}, "\x00")
	rep, err = s.answer(r.Context(), t, key, false, false, func(ctx context.Context) (int, []byte) {
		resp := client.TraceResponse{
			Fingerprint: t.fp,
			Class:       req.Class,
			Trace:       req.Trace,
			Accepted:    cls.RunTrace(req.Trace),
		}
		if req.Replay {
			if err := cls.ReplayFlat(req.Trace); err != nil {
				resp.ReplayError = err.Error()
			}
		}
		return jsonBody(resp)
	})
	return s.respond(w, r, rep, err)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.store != nil && s.store.Degraded() {
		// Still 200: every store failure degrades to recompute-and-serve,
		// so the daemon is healthy — but the disk needs an operator.
		io.WriteString(w, "ok (store degraded)\n")
		return
	}
	io.WriteString(w, "ok\n")
}

// handleSnapshotGet streams the store's verified entries as one
// snapshot — the export half of pre-warming a fresh instance.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) int {
	if s.store == nil {
		return s.writeError(w, http.StatusNotFound, "no artifact store configured; start shelleyd with -store-dir")
	}
	// Catch the write-behind queue up first (bounded by the request's
	// deadline) so the snapshot includes this process's freshest work; a
	// flush failure only means those entries are absent, not an error.
	_ = s.store.Flush(r.Context())
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if err := s.store.WriteSnapshot(w); err != nil {
		// The status line is committed; a mid-stream failure can only
		// truncate, which the importer's framing detects and rejects.
		s.met.writeErrors.Add(1)
	}
	return http.StatusOK
}

// handleSnapshotPut imports a snapshot stream into the store. Damaged
// records are skipped and counted server-side; a structurally broken
// stream answers 400 (entries imported before the break are kept —
// they verified individually).
func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request) int {
	if s.store == nil {
		return s.writeError(w, http.StatusNotFound, "no artifact store configured; start shelleyd with -store-dir")
	}
	imported, skipped, err := s.store.ReadSnapshot(http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
	if err != nil {
		return s.writeError(w, http.StatusBadRequest, fmt.Sprintf(
			"snapshot import aborted after %d imported, %d skipped: %v", imported, skipped, err))
	}
	status, body := jsonBody(client.SnapshotImportResponse{Imported: imported, Skipped: skipped})
	return s.writeRaw(w, status, body)
}

// handleTraceExport serves the in-memory span ring as Chrome
// trace-event JSON (default) or OTLP JSON (?format=otlp) — the debug
// window into a live daemon's recent work.
func (s *Server) handleTraceExport(w http.ResponseWriter, r *http.Request) {
	if s.ring == nil {
		s.writeError(w, http.StatusNotFound, "tracing disabled; start shelleyd with -trace or -trace-ring")
		return
	}
	spans := s.ring.Snapshot()
	var err error
	switch format := r.URL.Query().Get("format"); format {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		err = obs.WriteChromeTrace(w, spans)
	case "otlp":
		w.Header().Set("Content-Type", "application/json")
		err = obs.WriteOTLP(w, spans)
	default:
		s.writeError(w, http.StatusBadRequest, "unknown trace format "+format+" (want chrome or otlp)")
		return
	}
	if err != nil && s.logger != nil {
		s.logger.LogAttrs(r.Context(), slog.LevelWarn, "trace-export write failed",
			slog.String("error", err.Error()))
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.met.render(&b, s.cache.Stats(), s.store, s.mineSnap())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}

// bodyBufs pools request-body buffers. A buffer that grew past
// maxPooledBody is dropped after use, so the pool pins no huge body.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// decodeBody reads a JSON request bounded by maxBytes into a pooled
// buffer and decodes it. It accepts exactly what json.Decoder.Decode
// accepts from the bounded body: the first JSON value, whatever
// follows it. A body that is one value is decoded in place; any other
// is decoded again as the decoder would read it, the read error (a body
// over maxBytes) arriving after the bytes read.
func decodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyBufs.Put(buf)
		}
	}()
	_, readErr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBytes))
	if json.Unmarshal(buf.Bytes(), v) == nil {
		return nil
	}
	rest := io.MultiReader(bytes.NewReader(buf.Bytes()), errReader{readErr})
	if err := json.NewDecoder(rest).Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// errReader returns err, or io.EOF when err is nil.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) {
	if e.err == nil {
		return 0, io.EOF
	}
	return 0, e.err
}

// jsonBody marshals a pooled-work response.
func jsonBody(v any) (int, []byte) {
	body, err := json.Marshal(v)
	if err != nil {
		return errorBody(http.StatusInternalServerError, "encoding response: "+err.Error())
	}
	return http.StatusOK, body
}

// errorBody marshals a pooled-work error response.
func errorBody(status int, msg string) (int, []byte) {
	body, _ := json.Marshal(client.ErrorResponse{Error: msg})
	return status, body
}
