package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/client"
)

// startServer boots a daemon on a free port and returns a client for
// it, tearing both down with the test.
func startServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	srv := New(cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New("http://" + addr)
	if err := cl.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, cl
}

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// syntheticSource builds a module with one base class and n distinct
// composite classes; tag makes whole sources distinct from each other.
// Cold-checking it costs real pipeline work per class, which is what
// the saturation, drain, and coalescing tests lean on.
func syntheticSource(n int, tag string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `@sys
class Dev%s:
    @op_initial
    def acquire(self):
        return ["release"]

    @op_final
    def release(self):
        return ["acquire"]

`, tag)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "@sys([\"d\"])\nclass Ctl%s%d:\n    def __init__(self):\n        self.d = Dev%s()\n\n", tag, i, tag)
		fmt.Fprintf(&b, "    @op_initial_final\n    def go(self):\n        self.d.acquire()\n        self.d.release()\n        return []\n\n")
	}
	return b.String()
}

// directReports is the ground truth: reports from a direct library
// call, marshaled exactly like the server marshals them.
func directReports(t *testing.T, source string) []byte {
	t.Helper()
	mod, err := shelley.LoadSource(source)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := mod.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckEndpointMatchesDirectLibrary(t *testing.T) {
	_, cl := startServer(t, Config{})
	ctx := context.Background()
	source := readTestdata(t, "valve.py") + "\n" + readTestdata(t, "badsector.py")
	want := directReports(t, source)

	resp, err := cl.Check(ctx, client.CheckRequest{Source: source})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Error("BadSector has findings; OK should be false")
	}
	if resp.Fingerprint != client.Fingerprint(source) {
		t.Errorf("fingerprint = %q", resp.Fingerprint)
	}
	got, _ := json.Marshal(resp.Reports)
	if !bytes.Equal(got, want) {
		t.Errorf("server reports differ from direct CheckAll:\nserver: %s\ndirect: %s", got, want)
	}

	// Cache-only re-check by fingerprint: same bytes, no source upload.
	resp2, err := cl.Check(ctx, client.CheckRequest{Fingerprint: resp.Fingerprint})
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := json.Marshal(resp2.Reports)
	if !bytes.Equal(got2, want) {
		t.Error("fingerprint re-check returned different reports")
	}

	// Single-class filter.
	one, err := cl.Check(ctx, client.CheckRequest{Fingerprint: resp.Fingerprint, Class: "Valve"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Reports) != 1 || one.Reports[0].Class != "Valve" || !one.OK {
		t.Errorf("class-filtered check = %+v", one)
	}
}

func TestCheckErrorMapping(t *testing.T) {
	_, cl := startServer(t, Config{})
	ctx := context.Background()

	cases := []struct {
		name string
		req  client.CheckRequest
		code int
	}{
		{"empty request", client.CheckRequest{}, 400},
		{"mismatched fingerprint", client.CheckRequest{Source: "x=1", Fingerprint: "sha256:feed"}, 400},
		{"unknown fingerprint", client.CheckRequest{Fingerprint: "sha256:deadbeef"}, 404},
		{"unparsable source", client.CheckRequest{Source: "@sys\nclass X:\n  def"}, 422},
		{"unknown class", client.CheckRequest{Source: readTestdata(t, "valve.py"), Class: "Nope"}, 404},
	}
	for _, tc := range cases {
		_, err := cl.Check(ctx, tc.req)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Errorf("%s: err = %v, want APIError", tc.name, err)
			continue
		}
		if apiErr.StatusCode != tc.code {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, apiErr.StatusCode, tc.code, apiErr.Message)
		}
	}

	// A module whose composite references a class that is not defined
	// anywhere: loads fine, fails analysis → 422.
	_, err := cl.Check(ctx, client.CheckRequest{Source: readTestdata(t, "badsector.py")})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 422 {
		t.Errorf("unresolved subsystem: err = %v, want 422", err)
	}

	// A NUL byte between two classes is a lexical error at its line and
	// column, not an end of file that drops the second class.
	valve := readTestdata(t, "valve.py")
	_, err = cl.Check(ctx, client.CheckRequest{Source: valve + "\x00" + readTestdata(t, "sector.py")})
	want := fmt.Sprintf("%d:1: source code cannot contain null bytes", strings.Count(valve, "\n")+1)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 422 || !strings.Contains(apiErr.Message, want) {
		t.Errorf("NUL byte: err = %v, want 422 naming %q", err, want)
	}
}

func TestInferEndpoint(t *testing.T) {
	_, cl := startServer(t, Config{})
	ctx := context.Background()
	source := readTestdata(t, "valve.py")

	resp, err := cl.Infer(ctx, client.InferRequest{Source: source, Class: "Valve"})
	if err != nil {
		t.Fatal(err)
	}
	mod, _ := shelley.LoadSource(source)
	valve, _ := mod.Class("Valve")
	wantOps := valve.Operations()
	if len(resp.Behaviors) != len(wantOps) {
		t.Fatalf("behaviors = %d, want %d", len(resp.Behaviors), len(wantOps))
	}
	for i, op := range wantOps {
		raw, _ := valve.Behavior(op)
		simp, _ := valve.BehaviorSimplified(op)
		if resp.Behaviors[i] != (client.OperationBehavior{Operation: op, Behavior: raw, Simplified: simp}) {
			t.Errorf("behavior[%d] = %+v", i, resp.Behaviors[i])
		}
	}

	one, err := cl.Infer(ctx, client.InferRequest{Fingerprint: resp.Fingerprint, Class: "Valve", Operation: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Behaviors) != 1 || one.Behaviors[0].Operation != "test" {
		t.Errorf("single-op infer = %+v", one.Behaviors)
	}

	if _, err := cl.Infer(ctx, client.InferRequest{Source: source, Class: "Valve", Operation: "nope"}); err == nil {
		t.Error("unknown operation should fail")
	}
	if _, err := cl.Infer(ctx, client.InferRequest{Source: source}); err == nil {
		t.Error("missing class should fail")
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, cl := startServer(t, Config{})
	ctx := context.Background()
	source := readTestdata(t, "valve.py")

	accepted, err := cl.Trace(ctx, client.TraceRequest{Source: source, Class: "Valve", Trace: []string{"test", "open", "close"}})
	if err != nil {
		t.Fatal(err)
	}
	if !accepted.Accepted {
		t.Error("test,open,close is a valid complete Valve usage")
	}
	rejected, err := cl.Trace(ctx, client.TraceRequest{Source: source, Class: "Valve", Trace: []string{"open"}})
	if err != nil {
		t.Fatal(err)
	}
	if rejected.Accepted {
		t.Error("open alone must be rejected (test is the initial op)")
	}

	// Replay of a checker counterexample against live subsystems: the
	// paper's BadSector bug, flattened.
	composite := source + "\n" + readTestdata(t, "badsector.py")
	replay, err := cl.Trace(ctx, client.TraceRequest{
		Source: composite, Class: "BadSector",
		Trace: []string{"a.test", "a.open"}, Replay: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if replay.ReplayError == "" {
		t.Error("incomplete usage should report a replay error")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv, cl := startServer(t, Config{})
	ctx := context.Background()
	if err := cl.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Check(ctx, client.CheckRequest{Source: readTestdata(t, "valve.py")}); err != nil {
		t.Fatal(err)
	}
	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`shelleyd_requests_total{endpoint="check",code="200"} 1`,
		"shelleyd_module_cache_misses_total 1",
		"shelleyd_queue_depth 0",
		`shelleyd_pipeline_stage_total{stage="report",kind="misses"}`,
		"shelleyd_request_duration_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}

	// Draining flips healthz to 503.
	shutCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	if err := cl.Healthz(ctx); err == nil {
		t.Error("healthz should fail after shutdown")
	}
}

// TestServerSaturationAndQueueTimeout pins the load-shedding contract:
// a full queue answers 503 immediately, and a job that outlives its
// budget in the queue answers 504. The job hook holds the single
// worker at a barrier so queue occupancy is deterministic.
func TestServerSaturationAndQueueTimeout(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	_, cl := startServer(t, Config{
		Workers: 1, QueueDepth: 1, RequestTimeout: 30 * time.Second,
		jobHook: func() { entered <- struct{}{}; <-release },
	})
	ctx := context.Background()

	var wg sync.WaitGroup
	results := make([]error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, results[0] = cl.Check(ctx, client.CheckRequest{Source: syntheticSource(4, "slow")})
	}()
	<-entered // the worker now holds job 1; the queue is empty
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, results[1] = cl.Check(ctx, client.CheckRequest{Source: syntheticSource(4, "fill")})
	}()
	waitMetric(t, cl, "shelleyd_queue_depth", 1) // job 2 fills the only slot

	_, err := cl.Check(ctx, client.CheckRequest{Source: syntheticSource(3, "extra")})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 503 {
		t.Errorf("overflow request: err = %v, want 503", err)
	}
	close(release)
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Errorf("admitted request %d failed: %v", i, err)
		}
	}

	// Queue expiry: with a nanosecond budget the job is dead by the
	// time a worker dequeues it.
	_, cl2 := startServer(t, Config{Workers: 1, QueueDepth: 4, RequestTimeout: time.Nanosecond})
	_, err = cl2.Check(ctx, client.CheckRequest{Source: syntheticSource(2, "dead")})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 504 {
		t.Errorf("expired request: err = %v, want 504", err)
	}
}

// waitHealthzDown polls until healthz reports draining.
func waitHealthzDown(t *testing.T, cl *client.Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := cl.Healthz(context.Background()); err != nil {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("healthz never flipped to draining")
}

// waitMetric polls /metrics until name reaches at least want.
func waitMetric(t *testing.T, cl *client.Client, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		text, err := cl.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := client.ParseMetric(text, name); ok && v >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("metric %s never reached %v", name, want)
}

// TestServerConcurrentClientsRace is the acceptance test: ≥100
// concurrent clients mixing identical and distinct sources against a
// live daemon; every response must be byte-identical to a direct
// Module.CheckAll, the coalesce/cache-hit counters must be observed
// nonzero, and a drain mid-traffic must not drop any admitted request.
// Run with -race in CI.
func TestServerConcurrentClientsRace(t *testing.T) {
	const (
		identicalClients = 60
		distinctClients  = 48
		distinctSources  = 8
	)
	// The job hook holds the workers until every client is inside a
	// handler, so identical requests are guaranteed to overlap — the
	// coalesce counter becomes deterministic instead of a scheduling
	// coin flip.
	release := make(chan struct{})
	_, cl := startServer(t, Config{
		Workers: 2, QueueDepth: identicalClients + distinctClients,
		RequestTimeout: 60 * time.Second, CheckWorkers: 2,
		jobHook: func() { <-release },
	})
	ctx := context.Background()

	shared := syntheticSource(40, "shared")
	wantShared := directReports(t, shared)
	distinct := make([]string, distinctSources)
	wantDistinct := make([][]byte, distinctSources)
	for i := range distinct {
		distinct[i] = syntheticSource(6, fmt.Sprintf("v%d", i))
		wantDistinct[i] = directReports(t, distinct[i])
	}

	start := make(chan struct{})
	errs := make([]error, identicalClients+distinctClients)
	var wg sync.WaitGroup
	worker := func(slot int, source string, want []byte) {
		defer wg.Done()
		<-start
		resp, err := cl.Check(ctx, client.CheckRequest{Source: source})
		if err != nil {
			errs[slot] = err
			return
		}
		got, err := json.Marshal(resp.Reports)
		if err != nil {
			errs[slot] = err
			return
		}
		if !bytes.Equal(got, want) {
			errs[slot] = fmt.Errorf("reports differ from direct CheckAll:\nserver: %s\ndirect: %s", got, want)
		}
	}
	for i := 0; i < identicalClients; i++ {
		wg.Add(1)
		go worker(i, shared, wantShared)
	}
	for i := 0; i < distinctClients; i++ {
		wg.Add(1)
		go worker(identicalClients+i, distinct[i%distinctSources], wantDistinct[i%distinctSources])
	}
	close(start)
	// Let every client reach its handler (blocked on the held pool or
	// coalesced onto a held leader), then release the workers.
	waitMetric(t, cl, "shelleyd_inflight_requests", identicalClients+distinctClients)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coalesced, _ := client.ParseMetric(text, "shelleyd_coalesced_total")
	moduleHits, _ := client.ParseMetric(text, "shelleyd_module_cache_hits_total")
	if coalesced == 0 {
		t.Error("coalesced = 0; identical in-flight requests must share one execution")
	}
	if moduleHits == 0 {
		t.Error("module cache hits = 0; 60 identical uploads must share one resident module")
	}
	t.Logf("coalesced=%v moduleHits=%v", coalesced, moduleHits)
}

// TestServerShutdownDrainsInFlight verifies the drain contract behind
// SIGTERM: once every request is inside a handler, Shutdown must let
// all of them complete and deliver correct bodies — none dropped.
func TestServerShutdownDrainsInFlight(t *testing.T) {
	const (
		inFlight = 24
		workers  = 2
	)
	release := make(chan struct{})
	var held atomic.Int32
	srv, cl := startServer(t, Config{
		Workers: workers, QueueDepth: inFlight + 8, RequestTimeout: 60 * time.Second,
		jobHook: func() { held.Add(1); <-release },
	})
	ctx := context.Background()

	sources := make([]string, inFlight)
	want := make([][]byte, inFlight)
	for i := range sources {
		sources[i] = syntheticSource(10, fmt.Sprintf("drain%d", i))
		want[i] = directReports(t, sources[i])
	}

	errs := make([]error, inFlight)
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cl.Check(ctx, client.CheckRequest{Source: sources[i]})
			if err != nil {
				errs[i] = err
				return
			}
			got, _ := json.Marshal(resp.Reports)
			if !bytes.Equal(got, want[i]) {
				errs[i] = fmt.Errorf("reports differ after drain")
			}
		}(i)
	}

	// Wait until every request is admitted to the pool, then drain
	// mid-traffic: Shutdown starts while all 24 are in flight, the
	// workers are released only after draining has begun. Being inside
	// a handler is not enough: a request that has not yet reached the
	// pool is refused once draining starts, and the pool promises to
	// finish only the work it admitted. Every worker holds one job and
	// the queue holds the rest.
	deadline := time.Now().Add(10 * time.Second)
	for held.Load() < workers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers picked up a job", held.Load(), workers)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitMetric(t, cl, "shelleyd_queue_depth", inFlight-workers)
	shutDone := make(chan error, 1)
	shutCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	go func() { shutDone <- srv.Shutdown(shutCtx) }()
	waitHealthzDown(t, cl)
	close(release)
	if err := <-shutDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("in-flight request %d dropped by drain: %v", i, err)
		}
	}

	// After drain, new work is refused.
	if _, err := cl.Check(ctx, client.CheckRequest{Source: sources[0]}); err == nil {
		t.Error("check after shutdown should fail")
	}
}

// TestModuleCacheEviction keeps residency bounded.
func TestModuleCacheEviction(t *testing.T) {
	met := newMetrics()
	mc := newModuleCache(2, met, shelley.NewCache())
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		src := syntheticSource(1, fmt.Sprintf("ev%d", i))
		if _, _, err := mc.get(ctx, client.Fingerprint(src), src); err != nil {
			t.Fatal(err)
		}
	}
	mc.mu.Lock()
	n := len(mc.entries)
	mc.mu.Unlock()
	if n > 2 {
		t.Errorf("resident modules = %d, want ≤ 2", n)
	}
	if met.moduleEvictions.Load() == 0 {
		t.Error("evictions not counted")
	}
	// Evicted modules reload transparently from source.
	src := syntheticSource(1, "ev0")
	if _, _, err := mc.get(ctx, client.Fingerprint(src), src); err != nil {
		t.Fatal(err)
	}
}

// Addr returns the bound address after Start.
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}
