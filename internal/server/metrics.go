package server

import (
	"fmt"
	"math"
	runtimemetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shelley-go/shelley/internal/mine"
	"github.com/shelley-go/shelley/internal/pipeline"
	"github.com/shelley-go/shelley/internal/store"
	"github.com/shelley-go/shelley/internal/telemetry"
)

// endpointMetrics is one endpoint's request counters: status codes and
// a fine-grained latency histogram, all plain atomics. Handlers
// resolve their endpointMetrics pointer once at route-registration
// time, so the per-request observe path takes no lock and touches no
// map — the registry mutex exists only for registration and scrapes.
type endpointMetrics struct {
	name string

	// codes[c-100] counts finished requests with status c (100..599);
	// out-of-range codes clamp into the edge slots.
	codes [500]atomic.Uint64

	// lat is the request wall-time histogram in the fine telemetry
	// bucketing (16 buckets/decade, 1µs..10s). The /metrics exposition
	// rolls it up losslessly to the coarse pipeline-stats bounds via
	// telemetry.RollupIndex.
	lat [telemetry.NumLatBuckets]atomic.Uint64

	// total counts finished requests; errors the 5xx subset.
	total  atomic.Uint64
	errors atomic.Uint64
}

// observe records one finished request. Lock-free.
func (ep *endpointMetrics) observe(code int, elapsed time.Duration) {
	i := code - 100
	if i < 0 {
		i = 0
	} else if i >= len(ep.codes) {
		i = len(ep.codes) - 1
	}
	ep.codes[i].Add(1)
	ep.lat[telemetry.BucketIndex(elapsed)].Add(1)
	ep.total.Add(1)
	if code >= 500 {
		ep.errors.Add(1)
	}
}

// metrics is the daemon's observability surface: an enumerable metric
// registry rendered as a Prometheus-style text exposition on /metrics
// and snapshotted into the telemetry engine behind /v1/status. Every
// family flows through families(), so the two surfaces cannot drift.
type metrics struct {
	// epMu guards endpoint registration only; observes go through
	// pre-resolved *endpointMetrics pointers.
	epMu sync.RWMutex
	eps  map[string]*endpointMetrics

	// coalesced counts requests that piggybacked on an identical
	// in-flight request instead of executing.
	coalesced atomic.Uint64

	// moduleHits/moduleMisses count resident-module cache lookups.
	moduleHits   atomic.Uint64
	moduleMisses atomic.Uint64

	// bodyCacheHits counts check requests answered from a resident
	// module's memoized response body, skipping the worker pool.
	bodyCacheHits atomic.Uint64

	// storeBodyHits counts check requests answered from the durable
	// artifact store's persisted response bodies — the warm-restart fast
	// path, one layer below bodyCacheHits.
	storeBodyHits atomic.Uint64

	// moduleEvictions counts resident modules dropped to stay under
	// MaxModules.
	moduleEvictions atomic.Uint64

	// queueDepth and workersBusy are live pool gauges, maintained by
	// the pool itself but exposed here.
	queueDepth  atomic.Int64
	workersBusy atomic.Int64

	// inflight is the number of requests currently inside a handler.
	inflight atomic.Int64

	// timeouts[where] counts deadline expiries ("queue" — job expired
	// before a worker picked it up; "wait" — a waiter's context ended
	// first).
	timeoutQueue atomic.Uint64
	timeoutWait  atomic.Uint64

	// saturated counts submissions rejected because the queue was full
	// or the daemon was draining.
	saturated atomic.Uint64

	// panics counts verification panics contained at the pooled-job
	// boundary (answered 500; the daemon survives).
	panics atomic.Uint64

	// budgetExceeded counts requests answered with a structured
	// resource-budget error instead of unbounded work.
	budgetExceeded atomic.Uint64

	// batchItems counts batch items admitted (sync streams and jobs);
	// batchItemErrors the subset that finished with a non-200 record.
	batchItems      atomic.Uint64
	batchItemErrors atomic.Uint64

	// batchRejected counts whole batches refused by admission control
	// (429 per-client share, 503 global window), before any work ran.
	batchRejected atomic.Uint64

	// batchCanceled counts batch streams abandoned by their client
	// mid-flight (remaining items answered with canceled records).
	batchCanceled atomic.Uint64

	// jobStreamDetached counts ?stream=1 job tailers that disconnected
	// mid-tail. Unlike batchCanceled, no work is canceled — the job
	// keeps running and a later stream or poll picks it up.
	jobStreamDetached atomic.Uint64

	// batchInflightItems is the live gauge of admission charge held —
	// a sync batch's full item count, an async job's peak pool
	// occupancy — the quantity admission control bounds.
	batchInflightItems atomic.Int64

	// batchBackpressure counts batch submissions that found the pool
	// queue full and blocked (instead of shedding 503 like single
	// requests) — the stream stalls until a worker frees a slot.
	batchBackpressure atomic.Uint64

	// jobsSubmitted counts accepted async jobs; jobsActive is the live
	// gauge of jobs still running.
	jobsSubmitted atomic.Uint64
	jobsActive    atomic.Int64

	// writeErrors counts response-body writes that failed after the
	// status line was committed — the only footprint a mid-stream
	// client disconnect can leave, since a flushed response's status
	// code is immutable.
	writeErrors atomic.Uint64

	// ingestRejected counts whole /v1/ingest frames refused by ingest
	// admission control (429/503 with Retry-After) — the shed-never-block
	// contract's HTTP face; ingestInflightEvents is the live gauge of
	// admitted ingest charge (events being appended right now).
	ingestRejected       atomic.Uint64
	ingestInflightEvents atomic.Int64

	// exemplars counts requests tail-sampled into the telemetry
	// exemplar ring (latency breach, error, or panic).
	exemplars atomic.Uint64

	// watchUpdates counts published watch rounds (successful
	// POST /v1/watch pushes); watchPushes counts long-poll deliveries
	// (one per poller woken with a round); watchEvicted counts sessions
	// dropped LRU to respect MaxWatchSessions; watchSessions is the
	// live session gauge.
	watchUpdates  atomic.Uint64
	watchPushes   atomic.Uint64
	watchEvicted  atomic.Uint64
	watchSessions atomic.Int64

	// incrementalReused counts classes that watch rounds answered from
	// the daemon's analysis cache; incrementalChecked counts classes
	// actually re-verified. Their ratio is the edit loop's live reuse
	// rate.
	incrementalReused  atomic.Uint64
	incrementalChecked atomic.Uint64

	// goStats reads the Go runtime's allocation and GC counters; tests
	// swap in fixed values.
	goStats func() goRuntimeStats
}

func newMetrics() *metrics {
	return &metrics{eps: make(map[string]*endpointMetrics), goStats: readGoRuntimeStats}
}

// goRuntimeStats are the Go runtime's cumulative allocation and GC
// counters, which tell what a request costs the allocator and the
// collector.
type goRuntimeStats struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPUSeconds                       float64
}

// goRuntimeMetrics names the runtime/metrics samples behind
// goRuntimeStats, in field order.
var goRuntimeMetrics = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readGoRuntimeStats() goRuntimeStats {
	var samples [len(goRuntimeMetrics)]runtimemetrics.Sample
	for i, name := range goRuntimeMetrics {
		samples[i].Name = name
	}
	runtimemetrics.Read(samples[:])
	return goRuntimeStats{
		allocBytes:   samples[0].Value.Uint64(),
		allocObjects: samples[1].Value.Uint64(),
		gcCycles:     samples[2].Value.Uint64(),
		gcCPUSeconds: samples[3].Value.Float64(),
	}
}

// endpoint registers (or returns) the per-endpoint counters. Handlers
// call this once at wiring time and keep the pointer.
func (m *metrics) endpoint(name string) *endpointMetrics {
	m.epMu.RLock()
	ep, ok := m.eps[name]
	m.epMu.RUnlock()
	if ok {
		return ep
	}
	m.epMu.Lock()
	defer m.epMu.Unlock()
	if ep, ok = m.eps[name]; ok {
		return ep
	}
	ep = &endpointMetrics{name: name}
	m.eps[name] = ep
	return ep
}

// endpointsSorted snapshots the registered endpoints in name order.
func (m *metrics) endpointsSorted() []*endpointMetrics {
	m.epMu.RLock()
	out := make([]*endpointMetrics, 0, len(m.eps))
	for _, ep := range m.eps {
		out = append(out, ep)
	}
	m.epMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// labelPair is one exposition label; samples keep them in a fixed
// order so scrapes are byte-stable.
type labelPair struct{ k, v string }

type metricSample struct {
	labels []labelPair
	value  float64
}

type metricFamily struct {
	name, help, kind string // kind is "counter" or "gauge"
	samples          []metricSample
}

// mineSnapshot carries the mining subsystem's data into families();
// nil when the daemon runs without -mine.
type mineSnapshot struct {
	counters mine.Counters
	reports  []mine.Report
}

// families enumerates every metric family with its current samples, in
// stable order. Both scrape surfaces — the /metrics exposition and the
// telemetry engine's Sample — are derived from this one enumeration.
func (m *metrics) families(ps pipeline.Stats, st *store.Store, ms *mineSnapshot) []metricFamily {
	var fams []metricFamily

	eps := m.endpointsSorted()
	reqFam := metricFamily{
		name: "shelleyd_requests_total", kind: "counter",
		help: "Finished requests by endpoint and status code.",
	}
	for _, ep := range eps {
		for i := range ep.codes {
			if n := ep.codes[i].Load(); n != 0 {
				reqFam.samples = append(reqFam.samples, metricSample{
					labels: []labelPair{{"endpoint", ep.name}, {"code", strconv.Itoa(i + 100)}},
					value:  float64(n),
				})
			}
		}
	}
	fams = append(fams, reqFam)

	durFam := metricFamily{
		name: "shelleyd_request_duration_bucket", kind: "counter",
		help: "Request wall time (pipeline-stats bucketing; le is the inclusive upper bound, +Inf the overflow bucket).",
	}
	for _, ep := range eps {
		// A coarse bucket's le is the label of the last fine bucket
		// folded into it: its largest bound, or +Inf for the overflow.
		var coarse [pipeline.NumBuckets]uint64
		var last [pipeline.NumBuckets]int
		for i := range ep.lat {
			c := telemetry.RollupIndex(i)
			coarse[c] += ep.lat[i].Load()
			last[c] = i
		}
		var cum uint64
		for i := 0; i < pipeline.NumBuckets; i++ {
			cum += coarse[i]
			durFam.samples = append(durFam.samples, metricSample{
				labels: []labelPair{{"endpoint", ep.name}, {"le", telemetry.BucketLabel(last[i])}},
				value:  float64(cum),
			})
		}
	}
	fams = append(fams, durFam)

	counter := func(name, help string, v uint64) {
		fams = append(fams, metricFamily{name: name, help: help, kind: "counter",
			samples: []metricSample{{value: float64(v)}}})
	}
	gauge := func(name, help string, v int64) {
		fams = append(fams, metricFamily{name: name, help: help, kind: "gauge",
			samples: []metricSample{{value: float64(v)}}})
	}
	counter("shelleyd_coalesced_total", "Requests served by piggybacking on an identical in-flight request.", m.coalesced.Load())
	counter("shelleyd_module_cache_hits_total", "Requests served by an already-resident module.", m.moduleHits.Load())
	counter("shelleyd_check_body_cache_hits_total", "Check requests answered from a resident module's memoized response body.", m.bodyCacheHits.Load())
	counter("shelleyd_module_cache_misses_total", "Module loads (source parsed and modeled).", m.moduleMisses.Load())
	counter("shelleyd_module_cache_evictions_total", "Resident modules evicted to respect MaxModules.", m.moduleEvictions.Load())
	counter("shelleyd_timeouts_queue_total", "Jobs that expired before a worker picked them up.", m.timeoutQueue.Load())
	counter("shelleyd_timeouts_wait_total", "Waiters whose own deadline ended before the shared result.", m.timeoutWait.Load())
	counter("shelleyd_saturated_total", "Submissions rejected with 503 (queue full or draining).", m.saturated.Load())
	counter("shelleyd_panics_total", "Verification panics contained at the worker boundary (answered 500).", m.panics.Load())
	counter("shelleyd_budget_exceeded_total", "Requests answered with a structured resource-budget error.", m.budgetExceeded.Load())
	counter("shelleyd_batch_items_total", "Batch items admitted across /v1/check-batch streams and async jobs.", m.batchItems.Load())
	counter("shelleyd_batch_item_errors_total", "Batch items that finished with a non-200 record.", m.batchItemErrors.Load())
	counter("shelleyd_batch_admission_rejected_total", "Whole batches refused by admission control (429/503 with Retry-After).", m.batchRejected.Load())
	counter("shelleyd_batch_streams_canceled_total", "Batch streams abandoned by their client mid-flight.", m.batchCanceled.Load())
	counter("shelleyd_job_stream_detached_total", "Job stream tailers that disconnected mid-tail (the job keeps running).", m.jobStreamDetached.Load())
	counter("shelleyd_batch_backpressure_total", "Batch submissions that blocked on a full pool queue instead of shedding.", m.batchBackpressure.Load())
	counter("shelleyd_jobs_total", "Async verification jobs accepted via POST /v1/jobs.", m.jobsSubmitted.Load())
	counter("shelleyd_response_write_errors_total", "Response writes that failed after the status was committed (client gone).", m.writeErrors.Load())
	counter("shelleyd_exemplars_total", "Requests tail-sampled into the telemetry exemplar ring.", m.exemplars.Load())
	counter("shelleyd_watch_updates_total", "Published watch rounds (successful POST /v1/watch pushes).", m.watchUpdates.Load())
	counter("shelleyd_watch_pushes_total", "Watch rounds delivered to long-pollers (GET /v1/watch).", m.watchPushes.Load())
	counter("shelleyd_watch_sessions_evicted_total", "Watch sessions evicted (LRU) to respect MaxWatchSessions.", m.watchEvicted.Load())
	counter("shelleyd_incremental_reports_reused_total", "Classes that watch rounds answered from the daemon's analysis cache instead of re-verifying.", m.incrementalReused.Load())
	counter("shelleyd_incremental_classes_checked_total", "Classes actually re-verified across watch rounds.", m.incrementalChecked.Load())
	gauge("shelleyd_watch_sessions", "Resident watch sessions.", m.watchSessions.Load())
	gauge("shelleyd_batch_inflight_items", "Admission charge held (sync batches by item count, jobs by pool occupancy).", m.batchInflightItems.Load())
	gauge("shelleyd_jobs_active", "Async jobs still running.", m.jobsActive.Load())
	gauge("shelleyd_queue_depth", "Jobs waiting for a worker.", m.queueDepth.Load())
	gauge("shelleyd_workers_busy", "Workers currently executing a job.", m.workersBusy.Load())
	gauge("shelleyd_inflight_requests", "Requests currently inside a handler.", m.inflight.Load())

	gs := m.goStats()
	counter("shelleyd_go_alloc_bytes_total", "Bytes the daemon allocated on the heap (runtime/metrics /gc/heap/allocs:bytes).", gs.allocBytes)
	counter("shelleyd_go_allocs_total", "Heap objects the daemon allocated (runtime/metrics /gc/heap/allocs:objects).", gs.allocObjects)
	counter("shelleyd_go_gc_cycles_total", "Completed garbage-collection cycles (runtime/metrics /gc/cycles/total:gc-cycles).", gs.gcCycles)
	fams = append(fams, metricFamily{name: "shelleyd_go_gc_cpu_seconds_total", kind: "counter",
		help:    "Estimated CPU time spent in garbage collection (runtime/metrics /cpu/classes/gc/total:cpu-seconds).",
		samples: []metricSample{{value: gs.gcCPUSeconds}}})

	if st != nil {
		ss := st.Stats()
		counter("shelleyd_store_hits_total", "Artifact-store reads served from disk.", ss.Hits)
		counter("shelleyd_store_warm_hits_total", "Store hits on entries persisted before this process started (warm-restart reuse).", ss.WarmHits)
		counter("shelleyd_store_misses_total", "Store reads that found nothing servable (absent, unreadable, or corrupt).", ss.Misses)
		counter("shelleyd_store_writes_total", "Artifacts durably published (temp write, fsync, atomic rename).", ss.Writes)
		counter("shelleyd_store_errors_total", "Failed store filesystem operations, one per failed call (each degrades to recompute).", ss.Errors)
		counter("shelleyd_store_corrupt_total", "Entries that failed frame verification and were quarantined.", ss.Corrupt)
		counter("shelleyd_store_shed_total", "Write-behind requests dropped on a full queue.", ss.Shed)
		counter("shelleyd_store_evictions_total", "Entries evicted (LRU) to respect the store byte bound.", ss.Evictions)
		counter("shelleyd_store_body_hits_total", "Check requests answered from a persisted response body.", m.storeBodyHits.Load())
		counter("shelleyd_store_snapshot_imported_total", "Entries imported via PUT /v1/snapshot.", ss.Imported)
		counter("shelleyd_store_snapshot_skipped_total", "Snapshot records skipped on import (duplicate or damaged).", ss.ImportSkipped)
		gauge("shelleyd_store_entries", "Published entries in the store index.", int64(ss.Entries))
		gauge("shelleyd_store_bytes", "Total bytes of published entries.", ss.Bytes)
		degraded := int64(0)
		if st.Degraded() {
			degraded = 1
		}
		gauge("shelleyd_store_degraded", "1 when the store has seen any filesystem failure since boot (requests still succeed via recompute).", degraded)
	}

	stageFam := metricFamily{
		name: "shelleyd_pipeline_stage_total", kind: "counter",
		help: "Counters of the daemon's one analysis cache, shared by resident modules and watch sessions.",
	}
	for _, stg := range ps.Stages {
		for _, kv := range []struct {
			kind string
			v    uint64
		}{{"hits", stg.Hits}, {"misses", stg.Misses}, {"persist_hits", stg.PersistHits}} {
			stageFam.samples = append(stageFam.samples, metricSample{
				labels: []labelPair{{"stage", stg.Stage}, {"kind", kv.kind}},
				value:  float64(kv.v),
			})
		}
	}
	fams = append(fams, stageFam)

	if ms != nil {
		c := ms.counters
		counter("shelleyd_mine_ingested_traces_total", "Trace observations accepted into per-class corpora.", c.IngestedTraces)
		counter("shelleyd_mine_ingested_events_total", "Individual events accepted into per-class corpora.", c.IngestedEvents)
		counter("shelleyd_mine_shed_traces_total", "Trace observations dropped by a corpus or class bound (counted, never blocked).", c.ShedTraces)
		counter("shelleyd_mine_rounds_total", "Completed per-class mining rounds (L* plus drift diff).", c.Rounds)
		counter("shelleyd_mine_budget_tripped_total", "Mining rounds stopped by a resource budget or deadline.", c.BudgetTripped)
		counter("shelleyd_drift_flips_total", "Verdict transitions into DRIFT (one page per flip, not per scrape).", c.DriftFlips)
		counter("shelleyd_ingest_rejected_total", "Whole ingest frames refused by admission control (429/503 with Retry-After).", m.ingestRejected.Load())
		gauge("shelleyd_ingest_inflight_events", "Admitted ingest charge currently being appended.", m.ingestInflightEvents.Load())
		gauge("shelleyd_mine_classes", "Classes with a tracked corpus or restored mined model.", int64(len(ms.reports)))

		byVerdict := make(map[string]int, len(driftVerdicts))
		for _, r := range ms.reports {
			byVerdict[r.Verdict]++
		}
		driftFam := metricFamily{
			name: "shelleyd_drift_classes", kind: "gauge",
			help: "Tracked classes by current drift verdict.",
		}
		for _, v := range driftVerdicts {
			driftFam.samples = append(driftFam.samples, metricSample{
				labels: []labelPair{{"verdict", v}},
				value:  float64(byVerdict[v]),
			})
		}
		fams = append(fams, driftFam)
	}

	return fams
}

// render writes the exposition. pipelineStats are the counters of the
// daemon's one analysis cache, so cache behavior inside the daemon is
// scrapeable without a side channel; st (nil when persistence is off)
// contributes the shelleyd_store_* family; ms (nil without -mine) the
// mining families.
func (m *metrics) render(b *strings.Builder, pipelineStats pipeline.Stats, st *store.Store, ms *mineSnapshot) {
	for _, f := range m.families(pipelineStats, st, ms) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, s := range f.samples {
			b.WriteString(f.name)
			writeLabels(b, s.labels)
			b.WriteByte(' ')
			b.WriteString(formatMetricValue(s.value))
			b.WriteByte('\n')
		}
	}
}

func writeLabels(b *strings.Builder, labels []labelPair) {
	if len(labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.k)
		b.WriteString("=\"")
		b.WriteString(l.v)
		b.WriteString("\"")
	}
	b.WriteByte('}')
}

// formatMetricValue renders counts as integers (matching the historic
// %d exposition) and anything fractional as a minimal float.
func formatMetricValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sample converts the registry into one telemetry.Sample: scalar
// families become counter/gauge series (labeled samples keyed by their
// rendered name), per-endpoint histograms ride separately at full fine
// resolution. Called once per telemetry tick.
func (m *metrics) sample(ps pipeline.Stats, st *store.Store, ms *mineSnapshot) telemetry.Sample {
	out := telemetry.Sample{
		Counters: make(map[string]float64),
		Gauges:   make(map[string]float64),
		Hists:    make(map[string]telemetry.HistSample),
	}
	for _, f := range m.families(ps, st, ms) {
		// The request/duration families are carried by Hists below at
		// full resolution; skipping them here avoids duplicate series.
		if f.name == "shelleyd_requests_total" || f.name == "shelleyd_request_duration_bucket" {
			continue
		}
		for _, s := range f.samples {
			key := f.name
			if len(s.labels) > 0 {
				var lb strings.Builder
				writeLabels(&lb, s.labels)
				key += lb.String()
			}
			if f.kind == "gauge" {
				out.Gauges[key] = s.value
			} else {
				out.Counters[key] = s.value
			}
		}
	}
	for _, ep := range m.endpointsSorted() {
		var h telemetry.HistSample
		for i := range ep.lat {
			h.Buckets[i] = ep.lat[i].Load()
		}
		h.Total = ep.total.Load()
		h.Errors = ep.errors.Load()
		out.Hists[ep.name] = h
	}
	return out
}

// driftVerdicts is the fixed label order of the shelleyd_drift_classes
// gauge, so scrapes stay byte-stable round to round.
var driftVerdicts = []string{
	mine.VerdictPending, mine.VerdictConformant, mine.VerdictUnder,
	mine.VerdictDrift, mine.VerdictNoStatic, mine.VerdictError,
}
