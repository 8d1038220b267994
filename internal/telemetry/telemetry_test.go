package telemetry_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/shelley-go/shelley/internal/telemetry"
)

func TestBucketAnchorsExact(t *testing.T) {
	anchors := []struct {
		d    time.Duration
		fine int
	}{
		{time.Microsecond, 0},
		{10 * time.Microsecond, 16},
		{100 * time.Microsecond, 32},
		{time.Millisecond, 48},
		{10 * time.Millisecond, 64},
		{100 * time.Millisecond, 80},
		{time.Second, 96},
		{10 * time.Second, 112},
	}
	for _, a := range anchors {
		if got := telemetry.BucketIndex(a.d); got != a.fine {
			t.Errorf("BucketIndex(%v) = %d, want %d", a.d, got, a.fine)
		}
		if got := telemetry.BucketBound(a.fine); got != a.d {
			t.Errorf("BucketBound(%d) = %v, want %v", a.fine, got, a.d)
		}
	}
	if telemetry.BucketIndex(time.Minute) != telemetry.NumLatBuckets-1 {
		t.Errorf("1m should land in the overflow bucket")
	}
	// Bounds are strictly increasing.
	for i := 1; i < telemetry.NumLatBuckets-1; i++ {
		if telemetry.BucketBound(i) <= telemetry.BucketBound(i-1) {
			t.Fatalf("bounds not increasing at %d: %v <= %v", i, telemetry.BucketBound(i), telemetry.BucketBound(i-1))
		}
	}
}

// coarseBucket is the six-column pipeline-stats bucketing computed
// directly: inclusive decade bounds 10µs..100ms, then overflow.
func coarseBucket(d time.Duration) int {
	for i, bound := range []time.Duration{10 * time.Microsecond, 100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond} {
		if d <= bound {
			return i
		}
	}
	return 5
}

// The fine scheme must roll up to the pipeline-stats columns exactly:
// for any duration, the coarse bucket of the fine bucket equals the
// coarse bucket computed directly.
func TestRollupMatchesPipelineBucketing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		d := time.Duration(rng.Int63n(int64(20 * time.Second)))
		fine := telemetry.BucketIndex(d)
		if got, want := telemetry.RollupIndex(fine), coarseBucket(d); got != want {
			t.Fatalf("d=%v fine=%d: RollupIndex=%d, direct=%d", d, fine, got, want)
		}
	}
	// Exact bounds, where off-by-one inclusivity bugs live.
	for _, d := range []time.Duration{10 * time.Microsecond, 100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond} {
		for _, dd := range []time.Duration{d - 1, d, d + 1} {
			fine := telemetry.BucketIndex(dd)
			if got, want := telemetry.RollupIndex(fine), coarseBucket(dd); got != want {
				t.Fatalf("boundary d=%v: rollup=%d direct=%d", dd, got, want)
			}
		}
	}
}

// Quantiles interpolated from bucket counts must stay within the
// geometric-bucket error bound (±7.5%, tested at 8% for slack) of the
// true sample quantiles.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		var counts [telemetry.NumLatBuckets]uint64
		samples := make([]float64, 0, 20000)
		for i := 0; i < 20000; i++ {
			// Log-uniform over 5µs..500ms — the daemon's real range.
			ns := 5e3 * math.Pow(1e5, rng.Float64())
			samples = append(samples, ns)
			counts[telemetry.BucketIndex(time.Duration(ns))]++
		}
		sort.Float64s(samples)
		for _, q := range []float64{0.50, 0.95, 0.99} {
			truth := samples[int(q*float64(len(samples)))-1]
			got := float64(telemetry.Quantile(&counts, q))
			if rel := math.Abs(got-truth) / truth; rel > 0.08 {
				t.Errorf("trial %d q%.0f: got %v true %v (%.1f%% off)",
					trial, q*100, time.Duration(got), time.Duration(truth), rel*100)
			}
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	var empty [telemetry.NumLatBuckets]uint64
	if got := telemetry.Quantile(&empty, 0.99); got != 0 {
		t.Errorf("empty histogram: got %v, want 0", got)
	}
	var over [telemetry.NumLatBuckets]uint64
	over[telemetry.NumLatBuckets-1] = 10
	if got := telemetry.Quantile(&over, 0.5); got != 10*time.Second {
		t.Errorf("overflow-only histogram: got %v, want 10s", got)
	}
	var one [telemetry.NumLatBuckets]uint64
	one[48] = 1 // (866µs, 1ms]
	got := telemetry.Quantile(&one, 0.99)
	if got < 866*time.Microsecond || got > time.Millisecond {
		t.Errorf("single-sample quantile %v outside its bucket", got)
	}
}

// TestQuantileFirstBucket pins the bucket-0 interpolation: the first
// bucket spans (0, 1µs], so with all mass there quantiles must
// interpolate linearly from 0 — the old geometric interpolation
// fabricated a lower bound of 1µs/10^(1/16) ≈ 866ns and could never
// report anything below it, overstating every sub-microsecond quantile.
func TestQuantileFirstBucket(t *testing.T) {
	var counts [telemetry.NumLatBuckets]uint64
	counts[0] = 100
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.10, 100 * time.Nanosecond},
		{0.50, 500 * time.Nanosecond},
		{0.99, 990 * time.Nanosecond},
		{1.00, time.Microsecond},
	} {
		got := telemetry.Quantile(&counts, tc.q)
		if got != tc.want {
			t.Errorf("q%.2f = %v, want %v", tc.q, got, tc.want)
		}
	}
	// Single observation: the q is the bucket's full span, still capped
	// by the upper bound.
	var single [telemetry.NumLatBuckets]uint64
	single[0] = 1
	if got := telemetry.Quantile(&single, 0.5); got <= 0 || got > time.Microsecond {
		t.Errorf("single-sample bucket-0 quantile %v outside (0, 1µs]", got)
	}
}

// fakeDaemon simulates cumulative process state for the engine to
// scrape.
type fakeDaemon struct {
	checks  uint64
	errors  uint64
	hist    [telemetry.NumLatBuckets]uint64
	gauge   float64
	counter float64
}

func (f *fakeDaemon) observe(d time.Duration, isErr bool) {
	f.checks++
	if isErr {
		f.errors++
	}
	f.hist[telemetry.BucketIndex(d)]++
}

func (f *fakeDaemon) sample() telemetry.Sample {
	return telemetry.Sample{
		Counters: map[string]float64{"jobs_total": f.counter},
		Gauges:   map[string]float64{"queue_depth": f.gauge},
		Hists: map[string]telemetry.HistSample{
			"check": {Total: f.checks, Errors: f.errors, Buckets: f.hist},
		},
	}
}

func TestEngineWindowedRatesAndQuantiles(t *testing.T) {
	fd := &fakeDaemon{}
	eng := telemetry.New(telemetry.Config{
		Tiers:  []telemetry.Tier{{Interval: time.Second, Slots: 600}, {Interval: 15 * time.Second, Slots: 480}},
		Source: fd.sample,
	})
	now := time.Unix(1_700_000_000, 0)
	// 120 s of 5 req/s at 200µs, with the last 10 s at 50ms.
	for sec := 0; sec < 120; sec++ {
		lat := 200 * time.Microsecond
		if sec >= 110 {
			lat = 50 * time.Millisecond
		}
		for i := 0; i < 5; i++ {
			fd.observe(lat, false)
		}
		fd.counter += 2
		fd.gauge = float64(sec % 7)
		now = now.Add(time.Second)
		eng.Tick(now)
	}
	st, ok := eng.Endpoint("check", 10*time.Second)
	if !ok {
		t.Fatal("no stats for check")
	}
	if st.Rate < 4.5 || st.Rate > 5.5 {
		t.Errorf("10s rate = %.2f, want ~5", st.Rate)
	}
	if st.P50 < 40*time.Millisecond || st.P50 > 60*time.Millisecond {
		t.Errorf("10s p50 = %v, want ~50ms (recent slow phase)", st.P50)
	}
	stLong, ok := eng.Endpoint("check", time.Minute)
	if !ok {
		t.Fatal("no 1m stats")
	}
	if stLong.P50 > time.Millisecond {
		t.Errorf("1m p50 = %v, want ~200µs (mostly fast)", stLong.P50)
	}
	// p99 over 1m: 10/60 seconds were slow → p99 is slow.
	if stLong.P99 < 40*time.Millisecond {
		t.Errorf("1m p99 = %v, want ~50ms", stLong.P99)
	}
	if v, ok := eng.Gauges()["queue_depth"]; !ok || v != float64(119%7) {
		t.Errorf("gauge = %.0f (ok=%v), want %d", v, ok, 119%7)
	}
	if eps := eng.Endpoints(); len(eps) != 1 || eps[0] != "check" {
		t.Errorf("Endpoints() = %v", eps)
	}
	// A 1h window clamps to the ~2min of history without error.
	stc, ok := eng.Endpoint("check", time.Hour)
	if !ok {
		t.Fatal("clamped window should still answer")
	}
	if stc.Window > 3*time.Minute {
		t.Errorf("clamped window = %v, want ≤ history span", stc.Window)
	}
}

func TestEngineCoarseTierServesLongWindows(t *testing.T) {
	fd := &fakeDaemon{}
	eng := telemetry.New(telemetry.Config{
		Tiers:  []telemetry.Tier{{Interval: time.Second, Slots: 60}, {Interval: 15 * time.Second, Slots: 480}},
		Source: fd.sample,
	})
	now := time.Unix(1_700_000_000, 0)
	// 30 min of steady 1 req/s; the fine tier only holds the last 60 s.
	for sec := 0; sec < 1800; sec++ {
		fd.observe(time.Millisecond, false)
		now = now.Add(time.Second)
		eng.Tick(now)
	}
	st, ok := eng.Endpoint("check", 20*time.Minute)
	if !ok {
		t.Fatal("no long-window stats")
	}
	if st.Window < 19*time.Minute {
		t.Errorf("20m window resolved to %v — coarse tier not used", st.Window)
	}
	if st.Rate < 0.9 || st.Rate > 1.1 {
		t.Errorf("20m rate = %.2f, want ~1", st.Rate)
	}
}

func TestSLOBurnAlertFiresAndClears(t *testing.T) {
	fd := &fakeDaemon{}
	eng := telemetry.New(telemetry.Config{
		Tiers: []telemetry.Tier{{Interval: time.Second, Slots: 600}},
		SLOs: []telemetry.SLO{
			{Name: "check-availability", Endpoint: "check", Target: 0.999},
			{Name: "check-latency", Endpoint: "check", Target: 0.99, Latency: time.Millisecond},
		},
		Source: fd.sample,
	})
	now := time.Unix(1_700_000_000, 0)
	tick := func(n int, lat time.Duration, errFrac float64) {
		for i := 0; i < n; i++ {
			for j := 0; j < 10; j++ {
				fd.observe(lat, float64(j) < errFrac*10)
			}
			now = now.Add(time.Second)
			eng.Tick(now)
		}
	}
	// Healthy traffic: nothing fires.
	tick(30, 200*time.Microsecond, 0)
	if alerts := eng.Alerts(); len(alerts) != 0 {
		t.Fatalf("healthy traffic fired alerts: %+v", alerts)
	}
	// 30% errors for 30 s: burn 300× the 0.1% budget → page.
	tick(30, 200*time.Microsecond, 0.3)
	alerts := eng.Alerts()
	if len(alerts) == 0 {
		t.Fatal("error storm fired no alert")
	}
	found := false
	for _, a := range alerts {
		if a.Key == "slo:check-availability" && a.Severity == "page" {
			found = true
			if a.Since.IsZero() {
				t.Error("alert has zero Since")
			}
		}
	}
	if !found {
		t.Fatalf("availability page missing: %+v", alerts)
	}
	firstSince := alerts[0].Since
	// Still erroring: Since must not reset.
	tick(5, 200*time.Microsecond, 0.3)
	for _, a := range eng.Alerts() {
		if a.Key == "slo:check-availability" && !a.Since.Equal(firstSince) {
			t.Errorf("Since reset from %v to %v while still firing", firstSince, a.Since)
		}
	}
	// Slow traffic breaches the latency SLO too.
	tick(30, 20*time.Millisecond, 0)
	latFiring := false
	for _, st := range eng.SLOStatuses() {
		if st.SLO.Name == "check-latency" && st.Firing != "" {
			latFiring = true
			if st.BudgetRemaining != 0 {
				t.Errorf("latency SLO fully burning but budget remaining %.2f", st.BudgetRemaining)
			}
		}
	}
	if !latFiring {
		t.Errorf("latency SLO not firing after slow phase: %+v", eng.SLOStatuses())
	}
	// Long healthy recovery: the short windows age the incident out.
	tick(600, 200*time.Microsecond, 0)
	for _, a := range eng.Alerts() {
		t.Errorf("alert still firing after recovery: %+v", a)
	}
}

func TestExternalAlertsAndSinceStability(t *testing.T) {
	eng := telemetry.New(telemetry.Config{})
	t0 := time.Unix(1_700_000_000, 0)
	eng.SetAlert(telemetry.Alert{Key: "drift:abc/Valve", Severity: "page", Since: t0, Message: "DRIFT", Counterexample: []string{"open", "open"}})
	eng.SetAlert(telemetry.Alert{Key: "drift:abc/Valve", Severity: "page", Since: t0.Add(time.Minute), Message: "DRIFT again"})
	alerts := eng.Alerts()
	if len(alerts) != 1 || !alerts[0].Since.Equal(t0) {
		t.Fatalf("Since not preserved across re-set: %+v", alerts)
	}
	if alerts[0].Message != "DRIFT again" {
		t.Errorf("message not refreshed: %q", alerts[0].Message)
	}
	eng.ClearAlert("drift:abc/Valve")
	if len(eng.Alerts()) != 0 {
		t.Error("alert survived ClearAlert")
	}
}

func TestExemplarRingBoundAndOrder(t *testing.T) {
	eng := telemetry.New(telemetry.Config{Exemplars: 4})
	for i := 0; i < 10; i++ {
		eng.AddExemplar(telemetry.Exemplar{TraceID: fmt.Sprintf("t%d", i), Code: 500})
	}
	got := eng.Exemplars()
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	for i, want := range []string{"t9", "t8", "t7", "t6"} {
		if got[i].TraceID != want {
			t.Errorf("exemplar[%d] = %s, want %s (newest first)", i, got[i].TraceID, want)
		}
	}
}

func TestEngineBeforeFirstTick(t *testing.T) {
	eng := telemetry.New(telemetry.Config{})
	if _, ok := eng.Endpoint("check", time.Minute); ok {
		t.Error("Endpoint answered before any tick")
	}
	if eng.Endpoints() != nil {
		t.Error("Endpoints non-nil before any tick")
	}
	if eng.Gauges() != nil {
		t.Error("Gauges answered before any tick")
	}
	if len(eng.SLOStatuses()) != 0 {
		t.Error("SLO statuses before any tick")
	}
}
