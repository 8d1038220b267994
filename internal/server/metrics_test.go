package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/mine"
	"github.com/shelley-go/shelley/internal/pipeline"
	"github.com/shelley-go/shelley/internal/telemetry"
)

// goldenMetrics builds a registry with a deterministic, hand-placed set
// of observations covering every labeled family shape: multiple
// endpoints, multiple status codes, latencies spanning several coarse
// buckets plus the +Inf overflow, scalar counters, gauges, pipeline
// stages, and the mine families.
func goldenMetrics() (*metrics, pipeline.Stats, *mineSnapshot) {
	m := newMetrics()

	m.observe("check", 200, 50*time.Microsecond)
	m.observe("check", 200, 50*time.Microsecond)
	m.observe("check", 200, 400*time.Microsecond)
	m.observe("check", 200, 5*time.Millisecond)
	m.observe("check", 422, 80*time.Microsecond)
	m.observe("check", 500, 2*time.Second)
	m.observe("check", 504, 15*time.Second) // overflow bucket
	m.observe("trace", 200, 30*time.Millisecond)
	m.observe("trace", 400, 200*time.Millisecond)

	m.coalesced.Store(3)
	m.moduleHits.Store(7)
	m.moduleMisses.Store(2)
	m.bodyCacheHits.Store(4)
	m.moduleEvictions.Store(1)
	m.timeoutQueue.Store(1)
	m.timeoutWait.Store(2)
	m.saturated.Store(5)
	m.panics.Store(1)
	m.budgetExceeded.Store(2)
	m.batchItems.Store(9)
	m.batchItemErrors.Store(1)
	m.batchRejected.Store(1)
	m.batchCanceled.Store(1)
	m.jobStreamDetached.Store(1)
	m.batchBackpressure.Store(2)
	m.jobsSubmitted.Store(3)
	m.writeErrors.Store(1)
	m.exemplars.Store(6)
	m.batchInflightItems.Store(4)
	m.jobsActive.Store(1)
	m.queueDepth.Store(2)
	m.workersBusy.Store(3)
	m.inflight.Store(1)
	m.ingestRejected.Store(2)
	m.ingestInflightEvents.Store(8)
	m.goStats = func() goRuntimeStats {
		return goRuntimeStats{allocBytes: 1 << 20, allocObjects: 4096, gcCycles: 3, gcCPUSeconds: 0.25}
	}

	ps := (*pipeline.Cache)(nil).Stats() // all stage names, zero counts
	ps.Stages[0].Hits = 11
	ps.Stages[0].Misses = 2
	ps.Stages[1].PersistHits = 5

	ms := &mineSnapshot{
		counters: mine.Counters{
			IngestedEvents: 120,
			IngestedTraces: 40,
			ShedTraces:     3,
			Rounds:         6,
			BudgetTripped:  1,
			DriftFlips:     2,
		},
		reports: []mine.Report{
			{ClassFP: "a", Verdict: mine.VerdictConformant},
			{ClassFP: "b", Verdict: mine.VerdictDrift},
			{ClassFP: "c", Verdict: mine.VerdictPending},
		},
	}
	return m, ps, ms
}

// TestMetricsExpositionGolden pins the exact /metrics bytes for a fixed
// registry state. Any change to family names, HELP text, label order,
// or value formatting shows up as a diff here — renames (like the
// shelley_→shelleyd_ move) must be deliberate. Regenerate with:
//
//	go test ./internal/server -run TestMetricsExpositionGolden -update
func TestMetricsExpositionGolden(t *testing.T) {
	m, ps, ms := goldenMetrics()
	var b strings.Builder
	m.render(&b, ps, nil, ms)

	path := filepath.Join("..", "..", "testdata", "golden", "metrics.txt")
	got := []byte(b.String())
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update): %v", path, err)
	}
	if string(got) != string(want) {
		t.Errorf("exposition drifted from golden file (run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// TestMetricsPromlint is a promlint-style conformance pass over the
// full family enumeration: naming, HELP/TYPE presence, counter suffix
// conventions, label-order stability, and no duplicate families. It
// runs against the same fixed registry the golden test uses, so every
// family (including mine and pipeline) is exercised.
func TestMetricsPromlint(t *testing.T) {
	m, ps, ms := goldenMetrics()
	fams := m.families(ps, nil, ms)
	if len(fams) == 0 {
		t.Fatal("families() returned nothing")
	}

	seen := make(map[string]bool)
	for _, f := range fams {
		if seen[f.name] {
			t.Errorf("duplicate family %s", f.name)
		}
		seen[f.name] = true

		if !metricNameRe.MatchString(f.name) {
			t.Errorf("family %s: invalid metric name", f.name)
		}
		if !strings.HasPrefix(f.name, "shelleyd_") {
			// The un-prefixed shelley_* aliases were removed after their
			// one-release deprecation window; every family carries the
			// daemon namespace now.
			t.Errorf("family %s: missing shelleyd_ namespace prefix", f.name)
		}
		if f.help == "" {
			t.Errorf("family %s: empty HELP", f.name)
		}
		switch f.kind {
		case "counter":
			// Counters end _total; the one exception is the cumulative
			// histogram-bucket family, which follows the Prometheus
			// _bucket{le=...} convention instead.
			if !strings.HasSuffix(f.name, "_total") && !strings.HasSuffix(f.name, "_bucket") {
				t.Errorf("counter %s: name must end _total (or _bucket for cumulative histograms)", f.name)
			}
		case "gauge":
			if strings.HasSuffix(f.name, "_total") {
				t.Errorf("gauge %s: _total suffix is reserved for counters", f.name)
			}
		default:
			t.Errorf("family %s: unknown kind %q", f.name, f.kind)
		}

		// Every sample in a family must carry the same label keys in the
		// same order — that is what makes scrapes byte-stable.
		var keys []string
		for i, s := range f.samples {
			var sk []string
			for _, l := range s.labels {
				if !metricNameRe.MatchString(l.k) {
					t.Errorf("family %s: invalid label name %q", f.name, l.k)
				}
				if strings.ContainsAny(l.v, "\"\n\\") {
					t.Errorf("family %s: label %s=%q needs escaping the renderer does not do", f.name, l.k, l.v)
				}
				sk = append(sk, l.k)
			}
			if i == 0 {
				keys = sk
				continue
			}
			if strings.Join(sk, ",") != strings.Join(keys, ",") {
				t.Errorf("family %s: label keys %v differ from first sample's %v", f.name, sk, keys)
			}
		}
	}

	// The rendered text must introduce every family with HELP then TYPE
	// before its first sample, and never interleave families.
	var b strings.Builder
	m.render(&b, ps, nil, ms)
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	introduced := make(map[string]bool)
	current := ""
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if introduced[name] {
				t.Errorf("line %d: family %s introduced twice", i+1, name)
			}
			introduced[name] = true
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# TYPE "+name+" ") {
				t.Errorf("line %d: HELP %s not followed by its TYPE line", i+1, name)
			}
			current = name
			i++ // skip the TYPE line
			continue
		}
		name := line
		if j := strings.IndexAny(line, "{ "); j >= 0 {
			name = line[:j]
		}
		if name != current {
			t.Errorf("line %d: sample %s outside its family block (current %s)", i+1, name, current)
		}
		if !introduced[name] {
			t.Errorf("line %d: sample for %s before its HELP/TYPE", i+1, name)
		}
	}
}

// TestMetricsSampleMatchesFamilies pins the families→telemetry.Sample
// bridge: every scalar family lands in Counters/Gauges under its
// rendered key, and the per-endpoint fine histograms carry the same
// totals the request family shows.
func TestMetricsSampleMatchesFamilies(t *testing.T) {
	m, ps, ms := goldenMetrics()
	s := m.sample(ps, nil, ms)

	if got := s.Counters["shelleyd_panics_total"]; got != 1 {
		t.Errorf("panics counter = %v, want 1", got)
	}
	if got := s.Counters[`shelleyd_pipeline_stage_total{stage="`+ps.Stages[0].Stage+`",kind="hits"}`]; got != 11 {
		t.Errorf("labeled stage counter = %v, want 11", got)
	}
	if got := s.Gauges["shelleyd_queue_depth"]; got != 2 {
		t.Errorf("queue depth gauge = %v, want 2", got)
	}
	h, ok := s.Hists["check"]
	if !ok {
		t.Fatal("no check histogram in sample")
	}
	if h.Total != 7 || h.Errors != 2 {
		t.Errorf("check hist total/errors = %d/%d, want 7/2", h.Total, h.Errors)
	}
	var sum uint64
	for _, n := range h.Buckets {
		sum += n
	}
	if sum != h.Total {
		t.Errorf("bucket sum %d != total %d", sum, h.Total)
	}
	if s.Hists["trace"].Total != 2 {
		t.Errorf("trace hist total = %d, want 2", s.Hists["trace"].Total)
	}
	// The fine histogram must roll up to the same coarse counts the
	// exposition's _bucket family renders.
	var coarse [pipeline.NumBuckets]uint64
	for i, n := range h.Buckets {
		coarse[telemetry.RollupIndex(i)] += n
	}
	if coarse[pipeline.NumBuckets-1] != 2 { // the 2s and 15s observes, both >100ms
		t.Errorf("overflow coarse bucket = %d, want 2", coarse[pipeline.NumBuckets-1])
	}
}

// BenchmarkMetricsObserveParallel measures the per-request hot path
// under contention. The pre-refactor mutex registry ran ≈37 ns/op here;
// the atomic registry must not regress (it measures ≈4 ns/op).
func BenchmarkMetricsObserveParallel(b *testing.B) {
	m := newMetrics()
	ep := m.endpoint("check")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ep.observe(200, 250*time.Microsecond)
		}
	})
}

// BenchmarkMetricsObserveByName is the convenience path: one RLock-ed
// map lookup plus the atomic observe — what a handler without a
// pre-resolved pointer would pay.
func BenchmarkMetricsObserveByName(b *testing.B) {
	m := newMetrics()
	m.endpoint("check")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.observe("check", 200, 250*time.Microsecond)
		}
	})
}

// TestPipelineStageCountersMonotonic: shelleyd_pipeline_stage_total is
// a counter family, so no sample may go down — not when the module
// that did the work is evicted — and watch rounds count in it too,
// because resident modules and watch sessions share one cache.
func TestPipelineStageCountersMonotonic(t *testing.T) {
	t.Parallel()
	_, cl := startServer(t, Config{Workers: 2, MaxModules: 1, Watch: true})
	ctx := context.Background()
	scrape := func() map[string]float64 {
		t.Helper()
		text, err := cl.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		for _, stage := range (*pipeline.Cache)(nil).Stats().Stages {
			for _, kind := range []string{"hits", "misses"} {
				name := fmt.Sprintf("shelleyd_pipeline_stage_total{stage=%q,kind=%q}", stage.Stage, kind)
				v, ok := client.ParseMetric(text, name)
				if !ok {
					t.Fatalf("%s missing from /metrics", name)
				}
				out[name] = v
			}
		}
		return out
	}
	nonDecreasing := func(step string, before, after map[string]float64) {
		t.Helper()
		for name, v := range before {
			if after[name] < v {
				t.Errorf("%s: %s went from %v to %v", step, name, v, after[name])
			}
		}
	}

	// A does more pipeline work than B, so losing A's counts on its
	// eviction would show as a decrease.
	if _, err := cl.Check(ctx, client.CheckRequest{Source: syntheticSource(4, "A")}); err != nil {
		t.Fatal(err)
	}
	afterA := scrape()
	if _, err := cl.Check(ctx, client.CheckRequest{Source: syntheticSource(1, "B")}); err != nil {
		t.Fatal(err)
	}
	if v, _, err := cl.MetricValue(ctx, "shelleyd_module_cache_evictions_total"); err != nil || v < 1 {
		t.Fatalf("checking B evicted no module (evictions=%v, err=%v)", v, err)
	}
	afterB := scrape()
	nonDecreasing("evicting A", afterA, afterB)

	if _, err := cl.WatchPush(ctx, client.WatchRequest{Session: "s", Source: watchSource("op1")}); err != nil {
		t.Fatal(err)
	}
	afterWatch := scrape()
	nonDecreasing("watch push", afterB, afterWatch)
	reportMisses := `shelleyd_pipeline_stage_total{stage="report",kind="misses"}`
	if afterWatch[reportMisses] <= afterB[reportMisses] {
		t.Errorf("a watch push left %s at %v: session work is invisible", reportMisses, afterWatch[reportMisses])
	}
}

// TestGoRuntimeStatsAdvance: the runtime counters behind the
// shelleyd_go_* families are live and cumulative.
func TestGoRuntimeStatsAdvance(t *testing.T) {
	before := readGoRuntimeStats()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	runtime.GC()
	after := readGoRuntimeStats()
	if len(sink) != 64 || after.allocBytes < before.allocBytes+64*1024 || after.allocObjects < before.allocObjects+64 {
		t.Fatalf("allocation counters did not advance: %+v -> %+v", before, after)
	}
	if after.gcCycles <= before.gcCycles || after.gcCPUSeconds < before.gcCPUSeconds {
		t.Fatalf("GC counters did not advance: %+v -> %+v", before, after)
	}
}

// observe records one finished request by endpoint name — the
// convenience form for callers without a pre-resolved pointer.
func (m *metrics) observe(endpoint string, code int, elapsed time.Duration) {
	m.endpoint(endpoint).observe(code, elapsed)
}
