package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/telemetry"
)

// TestStatusDisabled404 pins the discoverability contract: a daemon
// running without telemetry answers /v1/status with 404 and a hint
// naming the flag that turns it on.
func TestStatusDisabled404(t *testing.T) {
	t.Parallel()
	_, cl := startServer(t, Config{Workers: 1})
	_, err := cl.Status(context.Background())
	if err == nil {
		t.Fatal("Status succeeded on a daemon without telemetry")
	}
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != 404 {
		t.Fatalf("Status without telemetry: %v, want 404 APIError", err)
	}
	if !strings.Contains(apiErr.Message, "-telemetry-interval") {
		t.Errorf("404 hint %q should name the enabling flag", apiErr.Message)
	}
}

// TestStatusTelemetryAcceptance is the tentpole's acceptance test. One
// daemon with a fast telemetry clock serves a deterministic latency
// ramp (pooled jobs sleep 10→100ms log-uniformly) followed by injected
// panics, and /v1/status must report:
//
//   - a rolling check p99 within 10% of the p99 the client measured
//     with its own wall clock,
//   - the latency SLO burning (every ramp request breaches 1ms) and the
//     availability SLO paging after the panics,
//   - the breaching requests in the exemplar ring with their span
//     trees — latency exemplars carrying the pipeline stages, panic
//     exemplars at least the root span (the panic fires before any
//     stage runs),
//   - sane gauges and since-boot status-code counts.
func TestStatusTelemetryAcceptance(t *testing.T) {
	const (
		interval = 50 * time.Millisecond
		rampN    = 100
		panicN   = 5
	)
	// sleeps is a log-uniform ramp from 10ms to 80ms (filling the fine
	// buckets across nearly a decade) topped by a dense plateau of the
	// 10 largest samples spread inside the (86.6ms, 100ms] bucket. The
	// p99 rank lands inside that well-populated bucket, so the engine's
	// within-bucket interpolation tracks the true quantile instead of
	// snapping to a sparse bucket's upper bound.
	sleeps := make([]time.Duration, rampN)
	for i := 0; i < rampN-10; i++ {
		sleeps[i] = time.Duration(float64(10*time.Millisecond) * math.Pow(8, float64(i)/float64(rampN-11)))
	}
	for i := rampN - 10; i < rampN; i++ {
		sleeps[i] = 86*time.Millisecond + time.Duration(i-(rampN-10))*1100*time.Microsecond
	}

	var mode atomic.Int32 // 0 pass-through, 1 ramp sleep, 2 panic
	var rampIdx atomic.Int32
	cfg := Config{
		Workers:           2,
		Telemetry:         true,
		TelemetryInterval: interval,
		SLOs: []telemetry.SLO{
			{Name: "check-availability", Endpoint: "check", Target: 0.999},
			{Name: "check-latency", Endpoint: "check", Target: 0.99, Latency: time.Millisecond},
		},
		runHook: func() {
			switch mode.Load() {
			case 1:
				time.Sleep(sleeps[int(rampIdx.Add(1)-1)%len(sleeps)])
			case 2:
				panic("injected telemetry panic")
			}
		},
	}
	_, cl := startServer(t, cfg)
	ctx := context.Background()

	// Phase 1: the ramp. Distinct sources defeat the module cache and
	// the response cells, so every request is a pooled cold check that runs
	// the hook. The client measures each request with its own clock.
	mode.Store(1)
	measured := make([]time.Duration, 0, rampN)
	for i := 0; i < rampN; i++ {
		src := syntheticSource(1, fmt.Sprintf("Ramp%d", i))
		t0 := time.Now()
		if _, err := cl.Check(ctx, client.CheckRequest{Source: src}); err != nil {
			t.Fatalf("ramp check %d: %v", i, err)
		}
		measured = append(measured, time.Since(t0))
	}
	mode.Store(0)
	time.Sleep(3 * interval) // let the engine snapshot the tail of the ramp

	sort.Slice(measured, func(i, j int) bool { return measured[i] < measured[j] })
	clientP99 := measured[int(math.Ceil(0.99*float64(len(measured))))-1]

	resp, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	check := findEndpoint(t, resp, "check")
	win, ok := check.Windows["10s"]
	if !ok {
		t.Fatalf("check endpoint has no 10s window: %+v", check.Windows)
	}
	if win.Total < rampN {
		t.Fatalf("10s window total = %d, want >= %d (ramp must fit the window)", win.Total, rampN)
	}
	if win.Rate <= 0 {
		t.Errorf("10s rolling rate = %v, want > 0", win.Rate)
	}
	if diff := math.Abs(float64(win.P99)-float64(clientP99)) / float64(clientP99); diff > 0.10 {
		t.Errorf("server p99 %v vs client-measured p99 %v: %.1f%% apart, want <= 10%%",
			win.P99, clientP99, diff*100)
	}
	if win.P50 >= win.P99 {
		t.Errorf("p50 %v >= p99 %v", win.P50, win.P99)
	}
	if check.Codes["200"] < rampN {
		t.Errorf("since-boot 200 count = %d, want >= %d", check.Codes["200"], rampN)
	}

	// The latency SLO (99% under 1ms) is torched by the ramp: every
	// request took >= 10ms, so the burn alert must be firing and the
	// budget gone.
	lat := findSLO(t, resp, "check-latency")
	if lat.Firing == "" {
		t.Errorf("check-latency SLO not firing after 100%% breach: %+v", lat)
	}
	if lat.BudgetRemaining != 0 {
		t.Errorf("check-latency budget remaining = %v, want 0", lat.BudgetRemaining)
	}
	if !hasAlert(resp, "slo:check-latency") {
		t.Errorf("no slo:check-latency alert in %+v", resp.Alerts)
	}
	// The availability SLO is clean so far.
	if avail := findSLO(t, resp, "check-availability"); avail.Firing != "" {
		t.Errorf("check-availability firing before any error: %+v", avail)
	}

	// Breaching requests are in the exemplar ring with their span
	// trees: a completed slow check carries the root plus its pipeline
	// stage spans.
	exLat := findExemplar(t, resp, "latency")
	if exLat.Code != 200 || exLat.Duration < 10*time.Millisecond {
		t.Errorf("latency exemplar %+v: want a slow 200", exLat)
	}
	assertSpanTree(t, exLat, 2)

	// Phase 2: injected panics flip availability.
	mode.Store(2)
	for i := 0; i < panicN; i++ {
		_, err := cl.Check(ctx, client.CheckRequest{Source: syntheticSource(1, fmt.Sprintf("Boom%d", i))})
		apiErr, ok := err.(*client.APIError)
		if !ok || apiErr.StatusCode != 500 {
			t.Fatalf("panic check %d: %v, want 500", i, err)
		}
	}
	mode.Store(0)
	// The burn windows longer than the fine ring are served from the
	// 15x coarse tier, so wait out one coarse interval for the errors
	// to reach it.
	time.Sleep(16 * interval)

	resp, err = cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	avail := findSLO(t, resp, "check-availability")
	// 5 errors over ~105 requests is a ~4.7% bad fraction against a
	// 0.1% budget — far past the 14.4x page threshold on every clamped
	// window.
	if avail.Firing != "page" {
		t.Errorf("check-availability firing = %q after panics, want page (%+v)", avail.Firing, avail)
	}
	if !hasAlert(resp, "slo:check-availability") {
		t.Errorf("no slo:check-availability alert in %+v", resp.Alerts)
	}
	exPanic := findExemplar(t, resp, "panic")
	if exPanic.Code != 500 {
		t.Errorf("panic exemplar code = %d, want 500", exPanic.Code)
	}
	assertSpanTree(t, exPanic, 1)
	if root := exPanic.Spans[0]; root.Attrs["status"] != "500" {
		t.Errorf("panic exemplar root span attrs = %v, want status=500", root.Attrs)
	}

	if len(resp.Gauges) == 0 {
		t.Error("gauges map is empty")
	}
	for _, g := range []string{"shelleyd_queue_depth", "shelleyd_workers_busy", "shelleyd_inflight_requests"} {
		if _, ok := resp.Gauges[g]; !ok {
			t.Errorf("gauge %s missing from status", g)
		}
	}
	if resp.UptimeSec <= 0 || resp.Interval != interval {
		t.Errorf("uptime %v / interval %v, want > 0 and %v", resp.UptimeSec, resp.Interval, interval)
	}
	if v, err := cl.Metrics(ctx); err != nil {
		t.Fatal(err)
	} else if n, ok := client.ParseMetric(v, "shelleyd_exemplars_total"); !ok || n == 0 {
		t.Errorf("shelleyd_exemplars_total = %v (present %v), want > 0", n, ok)
	}
}

// TestStatusDriftAlert wires the mining subsystem's verdict flips into
// the alert surface: a DRIFT flip must appear on /v1/status as a page
// carrying the minimized counterexample.
func TestStatusDriftAlert(t *testing.T) {
	t.Parallel()
	srv, cl := startServer(t, Config{
		Workers: 2, Mine: true, MineInterval: time.Hour,
		Telemetry: true, TelemetryInterval: 50 * time.Millisecond,
	})
	ctx := context.Background()
	source, classFP, spec := valveSpec(t)

	if _, err := cl.Check(ctx, client.CheckRequest{Source: source}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var events []client.IngestEvent
	for i := 0; i < 32; i++ {
		tr, ok := spec.RandomAccepted(rng, 12)
		if !ok {
			t.Fatal("valve spec accepts nothing within length 12")
		}
		events = append(events, client.IngestEvent{
			ClassFP: classFP, Device: fmt.Sprintf("dev-%d", i%8), Events: tr, Status: "ok",
		})
	}
	if _, err := cl.Ingest(ctx, events); err != nil {
		t.Fatal(err)
	}
	if st := srv.mineOnce(); st.Errors != 0 || st.Mined != 1 {
		t.Fatalf("first round stats %+v", st)
	}
	resp, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hasAlert(resp, "drift:"+classFP) {
		t.Fatalf("drift alert firing on conforming traffic: %+v", resp.Alerts)
	}

	drifting := offModelTrace(t, spec)
	if _, err := cl.Ingest(ctx, []client.IngestEvent{{ClassFP: classFP, Device: "rogue", Events: drifting, Status: "ok"}}); err != nil {
		t.Fatal(err)
	}
	if st := srv.mineOnce(); st.Errors != 0 || st.Mined != 1 {
		t.Fatalf("drift round stats %+v", st)
	}
	resp, err = cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var alert *client.AlertStatus
	for i := range resp.Alerts {
		if resp.Alerts[i].Key == "drift:"+classFP {
			alert = &resp.Alerts[i]
		}
	}
	if alert == nil {
		t.Fatalf("no drift alert for %s in %+v", classFP, resp.Alerts)
	}
	if alert.Severity != "page" {
		t.Errorf("drift alert severity = %q, want page", alert.Severity)
	}
	if len(alert.Counterexample) == 0 || spec.Accepts(alert.Counterexample) {
		t.Errorf("drift alert counterexample %v should be non-empty and rejected by the spec", alert.Counterexample)
	}
	if !strings.Contains(alert.Message, classFP) {
		t.Errorf("drift alert message %q should name the class", alert.Message)
	}
}

// TestStatusHTMLDashboard renders the operator dashboard with alerts
// and exemplars populated and checks it is a self-contained page.
func TestStatusHTMLDashboard(t *testing.T) {
	var boom atomic.Bool
	srv, cl := startServer(t, Config{
		Workers: 1, Telemetry: true, TelemetryInterval: 20 * time.Millisecond,
		runHook: func() {
			if boom.Load() {
				panic("dashboard panic")
			}
		},
	})
	ctx := context.Background()
	if _, err := cl.Check(ctx, client.CheckRequest{Source: syntheticSource(1, "Dash")}); err != nil {
		t.Fatal(err)
	}
	boom.Store(true)
	if _, err := cl.Check(ctx, client.CheckRequest{Source: syntheticSource(1, "DashBoom")}); err == nil {
		t.Fatal("panicking check succeeded")
	}
	boom.Store(false)
	time.Sleep(60 * time.Millisecond)

	req := httptest.NewRequest("GET", "/v1/status?format=html", nil)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	res := w.Result()
	if res.StatusCode != 200 {
		t.Fatalf("dashboard status = %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("dashboard content type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{"<!doctype html", "shelleyd", "Endpoints", "Exemplars", "http-equiv=\"refresh\"", ">panic<"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if strings.Contains(body, "http://") || strings.Contains(body, "<script") {
		t.Error("dashboard must be self-contained: no external assets, no scripts")
	}
}

func findEndpoint(t *testing.T, resp *client.StatusResponse, name string) client.EndpointStatus {
	t.Helper()
	for _, ep := range resp.Endpoints {
		if ep.Endpoint == name {
			return ep
		}
	}
	t.Fatalf("endpoint %s not in status (%d endpoints)", name, len(resp.Endpoints))
	return client.EndpointStatus{}
}

func findSLO(t *testing.T, resp *client.StatusResponse, name string) client.SLOStatus {
	t.Helper()
	for _, s := range resp.SLOs {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("SLO %s not in status (%+v)", name, resp.SLOs)
	return client.SLOStatus{}
}

func hasAlert(resp *client.StatusResponse, key string) bool {
	for _, a := range resp.Alerts {
		if a.Key == key {
			return true
		}
	}
	return false
}

func findExemplar(t *testing.T, resp *client.StatusResponse, reason string) client.ExemplarStatus {
	t.Helper()
	for _, x := range resp.Exemplars {
		if x.Reason == reason {
			return x
		}
	}
	t.Fatalf("no %s exemplar among %d retained", reason, len(resp.Exemplars))
	return client.ExemplarStatus{}
}

// assertSpanTree checks an exemplar carries a well-formed span tree:
// at least minSpans spans, exactly one root (the http.check request
// span), every child's parent present, and spans in start order.
func assertSpanTree(t *testing.T, x client.ExemplarStatus, minSpans int) {
	t.Helper()
	if len(x.Spans) < minSpans {
		t.Fatalf("%s exemplar has %d spans, want >= %d", x.Reason, len(x.Spans), minSpans)
	}
	ids := make(map[string]bool, len(x.Spans))
	roots := 0
	for _, s := range x.Spans {
		ids[s.SpanID] = true
		if s.ParentID == "" {
			roots++
			if s.Name != "http.check" {
				t.Errorf("root span name = %q, want http.check", s.Name)
			}
		}
	}
	if roots != 1 {
		t.Errorf("%s exemplar has %d root spans, want 1", x.Reason, roots)
	}
	for _, s := range x.Spans {
		if s.ParentID != "" && !ids[s.ParentID] {
			t.Errorf("span %s has parent %s outside the tree", s.Name, s.ParentID)
		}
	}
	for i := 1; i < len(x.Spans); i++ {
		if x.Spans[i].Start.Before(x.Spans[i-1].Start) {
			t.Errorf("spans not in start order at %d", i)
		}
	}
}
