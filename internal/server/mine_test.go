package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/mine"
	"github.com/shelley-go/shelley/internal/store"
)

// valveSpec loads testdata/valve.py directly and returns its source,
// class fingerprint, and spec DFA — the ground truth the mining tests
// sample conforming traffic from and judge verdicts against.
func valveSpec(t *testing.T) (source, classFP string, spec *shelley.DFA) {
	t.Helper()
	source = readTestdata(t, "valve.py")
	mod, err := shelley.LoadSource(source)
	if err != nil {
		t.Fatal(err)
	}
	cls, ok := mod.Class("Valve")
	if !ok {
		t.Fatal("Valve class missing from valve.py")
	}
	spec, err = cls.SpecDFA("")
	if err != nil {
		t.Fatal(err)
	}
	return source, client.Fingerprint(source) + "/Valve", spec
}

// offModelTrace returns a shortest non-empty trace the spec rejects.
func offModelTrace(t *testing.T, spec *shelley.DFA) []string {
	t.Helper()
	for _, cand := range spec.Complement().EnumerateAccepted(4) {
		if len(cand) > 0 {
			return cand
		}
	}
	t.Fatal("spec accepts every short trace; cannot inject drift")
	return nil
}

func TestIngestAndDrift404WithoutMine(t *testing.T) {
	t.Parallel()
	_, cl := startServer(t, Config{Workers: 1})
	ctx := context.Background()
	if _, err := cl.Ingest(ctx, []client.IngestEvent{{ClassFP: "x/Y", Events: []string{"a"}}}); err == nil {
		t.Fatal("ingest succeeded on a daemon without -mine")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 404 {
		t.Fatalf("ingest without mining: %v, want 404", err)
	}
	if _, err := cl.Drift(ctx, ""); err == nil {
		t.Fatal("drift succeeded on a daemon without -mine")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 404 {
		t.Fatalf("drift without mining: %v, want 404", err)
	}
}

// TestMineDriftEndToEnd is the subsystem's happy-path acceptance test:
// conforming fleet traffic mines to a healthy verdict, one drifting
// device flips it to DRIFT with a minimal counterexample the static
// model rejects, and both states are visible through /v1/drift and
// /metrics.
func TestMineDriftEndToEnd(t *testing.T) {
	t.Parallel()
	// A long interval keeps the background loop out of the way; rounds
	// run deterministically via mineOnce.
	srv, cl := startServer(t, Config{Workers: 2, Mine: true, MineInterval: time.Hour})
	ctx := context.Background()
	source, classFP, spec := valveSpec(t)

	// Make the module resident so the miner can resolve the static model.
	if _, err := cl.Check(ctx, client.CheckRequest{Source: source}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	var events []client.IngestEvent
	for i := 0; i < 32; i++ {
		tr, ok := spec.RandomAccepted(rng, 12)
		if !ok {
			t.Fatal("valve spec accepts nothing within length 12")
		}
		events = append(events, client.IngestEvent{
			ClassFP: classFP,
			Device:  fmt.Sprintf("dev-%d", i%8),
			Events:  tr,
			Status:  "ok",
		})
	}
	resp, err := cl.Ingest(ctx, events)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Received != len(events) || resp.Accepted == 0 {
		t.Fatalf("ingest response %+v for %d conforming observations", resp, len(events))
	}

	if st := srv.mineOnce(); st.Errors != 0 || st.Mined != 1 {
		t.Fatalf("first round stats %+v", st)
	}
	dr, err := cl.Drift(ctx, classFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Reports) != 1 {
		t.Fatalf("drift reports %+v, want exactly one for %s", dr.Reports, classFP)
	}
	rep := dr.Reports[0]
	if rep.Verdict != mine.VerdictConformant && rep.Verdict != mine.VerdictUnder {
		t.Fatalf("conforming traffic verdict %q (%+v)", rep.Verdict, rep)
	}

	// One drifting device, one off-model trace.
	drifting := offModelTrace(t, spec)
	if _, err := cl.Ingest(ctx, []client.IngestEvent{{ClassFP: classFP, Device: "rogue", Events: drifting, Status: "ok"}}); err != nil {
		t.Fatal(err)
	}
	if st := srv.mineOnce(); st.Errors != 0 || st.Mined != 1 {
		t.Fatalf("drift round stats %+v", st)
	}
	dr, err = cl.Drift(ctx, classFP)
	if err != nil {
		t.Fatal(err)
	}
	rep = dr.Reports[0]
	if rep.Verdict != mine.VerdictDrift {
		t.Fatalf("injected off-model trace %v: verdict %q, want DRIFT (%+v)", drifting, rep.Verdict, rep)
	}
	if len(rep.Counterexample) == 0 || spec.Accepts(rep.Counterexample) {
		t.Fatalf("DRIFT counterexample %v should be non-empty and rejected by the spec", rep.Counterexample)
	}
	if len(rep.Counterexample) > len(drifting) {
		t.Fatalf("counterexample %v longer than injected trace %v", rep.Counterexample, drifting)
	}

	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for metric, want := range map[string]float64{
		`shelleyd_drift_classes{verdict="DRIFT"}`: 1,
		"shelleyd_drift_flips_total":              1,
		"shelleyd_mine_classes":                   1,
	} {
		if v, ok := client.ParseMetric(metrics, metric); !ok || v != want {
			t.Fatalf("%s = %v (present %v), want %v", metric, v, ok, want)
		}
	}
	if v, ok := client.ParseMetric(metrics, "shelleyd_mine_ingested_traces_total"); !ok || v == 0 {
		t.Fatalf("shelleyd_mine_ingested_traces_total = %v (present %v), want > 0", v, ok)
	}
}

// TestDriftFlaggedWithinOneInterval exercises the real background loop:
// with the module resident and drifting traffic ingested, the verdict
// must flip to DRIFT within a couple of mining intervals — no manual
// round driving.
func TestDriftFlaggedWithinOneInterval(t *testing.T) {
	t.Parallel()
	interval := 25 * time.Millisecond
	_, cl := startServer(t, Config{Workers: 2, Mine: true, MineInterval: interval})
	ctx := context.Background()
	source, classFP, spec := valveSpec(t)
	if _, err := cl.Check(ctx, client.CheckRequest{Source: source}); err != nil {
		t.Fatal(err)
	}
	events := []client.IngestEvent{
		{ClassFP: classFP, Device: "dev-0", Events: []string{"test", "clean"}, Status: "ok"},
		{ClassFP: classFP, Device: "rogue", Events: offModelTrace(t, spec), Status: "ok"},
	}
	if _, err := cl.Ingest(ctx, events); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		dr, err := cl.Drift(ctx, classFP)
		if err != nil {
			t.Fatal(err)
		}
		if len(dr.Reports) == 1 && dr.Reports[0].Verdict == mine.VerdictDrift {
			if len(dr.Reports[0].Counterexample) == 0 {
				t.Fatalf("DRIFT without counterexample: %+v", dr.Reports[0])
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("drift not flagged %v after ingest (interval %v): %+v", 10*time.Second, interval, dr.Reports)
		}
		time.Sleep(interval / 2)
	}
}

// TestIngestShedsNeverBlocks pins the overload contract from both
// directions at the production limits: a frame charging maxClientEvents
// is admitted, one charging a single event more — larger than the
// client's whole share, inadmissible even against an idle window, so
// retrying could never succeed — is refused whole with a terminal 413
// and no Retry-After (nothing ingested, nothing blocked), and corpus
// overflow past mine's default MaxTraces sheds observations while the
// request still answers 200 immediately.
func TestIngestShedsNeverBlocks(t *testing.T) {
	t.Parallel()
	_, cl := startServer(t, Config{Workers: 1, Mine: true, MineInterval: time.Hour})
	ctx := context.Background()

	// maxClientEvents in lines of 4096 events, the per-line cap.
	long := make([]string, 4096)
	for i := range long {
		long[i] = "a"
	}
	var full []client.IngestEvent
	for n := 0; n < maxClientEvents; n += len(long) {
		full = append(full, client.IngestEvent{ClassFP: "fp/W", Events: long})
	}
	if _, err := cl.Ingest(ctx, full); err != nil {
		t.Fatalf("frame charging maxClientEvents: %v", err)
	}
	start := time.Now()
	_, err := cl.Ingest(ctx, append(full, client.IngestEvent{ClassFP: "fp/W", Events: []string{"a"}}))
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("never-admissible frame: %v, want 413", err)
	}
	if apiErr.RetryAfter != 0 || apiErr.Temporary() {
		t.Fatalf("413 RetryAfter=%v Temporary=%v; a terminal refusal must not invite retries", apiErr.RetryAfter, apiErr.Temporary())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("refusal took %v; ingest must shed, not block", elapsed)
	}

	// Distinct traces beyond the corpus bound shed inside an admitted
	// frame. Each spells its index in binary over two operations, so
	// the corpus's symbol bound is not what sheds them.
	const maxTraces = 4096 // mine.CorpusConfig's default MaxTraces
	var distinct []client.IngestEvent
	for i := 0; i < maxTraces+4; i++ {
		var tr []string
		for bit := 0; bit < 13; bit++ {
			tr = append(tr, string(rune('a'+i>>bit&1)))
		}
		distinct = append(distinct, client.IngestEvent{ClassFP: "fp/V", Events: tr})
	}
	resp, err := cl.Ingest(ctx, distinct)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != maxTraces || resp.Shed != 4 {
		t.Fatalf("corpus bound MaxTraces=%d: response %+v, want %d accepted / 4 shed", maxTraces, resp, maxTraces)
	}
}

// TestIngestFrameAndWindowLimits: a frame of maxIngestBytes is read,
// one byte more answers 400; and the global ingest window takes
// maxIngestInflight events from several clients before refusing the
// next with 503.
func TestIngestFrameAndWindowLimits(t *testing.T) {
	t.Parallel()
	srv, _ := startServer(t, Config{Workers: 1, Mine: true, MineInterval: time.Hour})
	line := `{"class_fp":"fp/V","events":["a"]}` + "\n"
	frame := line + strings.Repeat("\n", maxIngestBytes-len(line))
	for _, tc := range []struct {
		frame string
		want  int
	}{{frame, http.StatusOK}, {frame + "\n", http.StatusBadRequest}} {
		resp, err := http.Post("http://"+srv.Addr()+"/v1/ingest", "application/x-ndjson", strings.NewReader(tc.frame))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("frame of %d bytes: %d %s, want %d", len(tc.frame), resp.StatusCode, body, tc.want)
		}
	}

	var releases []func()
	for c := 0; c < maxIngestInflight/maxClientEvents; c++ {
		release, status, _ := srv.ingestAdm.admit(fmt.Sprint("client", c), maxClientEvents)
		if status != 0 {
			t.Fatalf("client %d's full share refused with %d", c, status)
		}
		releases = append(releases, release)
	}
	if _, status, retryAfter := srv.ingestAdm.admit("late", 1); status != http.StatusServiceUnavailable || retryAfter < 1 {
		t.Fatalf("event past maxIngestInflight: status %d, Retry-After %d; want 503 with a hint", status, retryAfter)
	}
	for _, release := range releases {
		release()
	}
}

// TestMineSoakConformingFleet is the acceptance soak: 64 devices
// streaming conforming valve traffic concurrently against the real
// mining loop must never produce a DRIFT verdict — the three-layer
// equivalence oracle guarantees the mined model is exactly the observed
// sub-language of the spec. Runs under -race in CI.
func TestMineSoakConformingFleet(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("soak test")
	}
	srv, cl := startServer(t, Config{Workers: 2, Mine: true, MineInterval: 10 * time.Millisecond})
	ctx := context.Background()
	source, classFP, spec := valveSpec(t)
	if _, err := cl.Check(ctx, client.CheckRequest{Source: source}); err != nil {
		t.Fatal(err)
	}

	const devices = 64
	var wg sync.WaitGroup
	errs := make(chan error, devices)
	addr := "http://" + srv.Addr()
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(d) + 100))
			dcl := client.New(addr,
				client.WithToken(fmt.Sprintf("device-%d", d)),
				client.WithRetry(client.RetryPolicy{}))
			for i := 0; i < 12; i++ {
				tr, ok := spec.RandomAccepted(rng, 16)
				if !ok {
					errs <- fmt.Errorf("device %d: no accepted trace", d)
					return
				}
				if _, err := dcl.Ingest(ctx, []client.IngestEvent{{
					ClassFP: classFP,
					Device:  fmt.Sprintf("dev-%02d", d),
					Events:  tr,
					Status:  "ok",
				}}); err != nil {
					errs <- fmt.Errorf("device %d: %w", d, err)
					return
				}
				// Interleave with the mining loop so rounds observe the
				// corpus mid-growth, not only at rest.
				time.Sleep(time.Millisecond)
			}
		}(d)
	}

	// Poll verdicts while the fleet streams: DRIFT at any point fails.
	soakDone := make(chan struct{})
	go func() { wg.Wait(); close(soakDone) }()
	for polling := true; polling; {
		select {
		case <-soakDone:
			polling = false
		case <-time.After(20 * time.Millisecond):
		}
		dr, err := cl.Drift(ctx, classFP)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range dr.Reports {
			if rep.Verdict == mine.VerdictDrift {
				t.Fatalf("conforming fleet drifted mid-soak: %+v", rep)
			}
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Let the loop settle the final corpus, then check the terminal state.
	time.Sleep(50 * time.Millisecond)
	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := client.ParseMetric(metrics, "shelleyd_drift_flips_total"); v != 0 {
		t.Fatalf("shelleyd_drift_flips_total = %v after conforming soak, want 0", v)
	}
	if v, ok := client.ParseMetric(metrics, "shelleyd_mine_rounds_total"); !ok || v == 0 {
		t.Fatalf("shelleyd_mine_rounds_total = %v (present %v); the loop never mined", v, ok)
	}
	dr, err := cl.Drift(ctx, classFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Reports) != 1 {
		t.Fatalf("reports %+v, want one", dr.Reports)
	}
	if v := dr.Reports[0].Verdict; v != mine.VerdictConformant && v != mine.VerdictUnder {
		t.Fatalf("terminal verdict %q (%+v)", v, dr.Reports[0])
	}
	if dr.Reports[0].Devices == 0 {
		t.Fatalf("no devices recorded: %+v", dr.Reports[0])
	}
}

// TestMinedModelsSurviveRestart: a daemon with a store persists mined
// models and verdicts; a fresh daemon over the same store serves them
// warm before any new traffic, and fresh traffic clears the warm flag.
func TestMinedModelsSurviveRestart(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	source, classFP, spec := valveSpec(t)
	drifting := offModelTrace(t, spec)

	srv1, cl1 := startServer(t, Config{Workers: 1, Mine: true, MineInterval: time.Hour, Store: st})
	ctx := context.Background()
	if _, err := cl1.Check(ctx, client.CheckRequest{Source: source}); err != nil {
		t.Fatal(err)
	}
	events := []client.IngestEvent{
		{ClassFP: classFP, Device: "dev-0", Events: []string{"test", "clean"}, Status: "ok"},
		{ClassFP: classFP, Device: "rogue", Events: drifting, Status: "ok"},
	}
	if _, err := cl1.Ingest(ctx, events); err != nil {
		t.Fatal(err)
	}
	if rs := srv1.mineOnce(); rs.Errors != 0 {
		t.Fatalf("round stats %+v", rs)
	}
	dr, err := cl1.Drift(ctx, classFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Reports) != 1 || dr.Reports[0].Verdict != mine.VerdictDrift {
		t.Fatalf("pre-restart reports %+v, want DRIFT", dr.Reports)
	}
	shutCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if err := srv1.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	cancel()
	st.Close()

	// Process restart: new store over the same directory, new daemon.
	st2, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	srv2, cl2 := startServer(t, Config{Workers: 1, Mine: true, MineInterval: time.Hour, Store: st2})
	dr, err = cl2.Drift(ctx, classFP)
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Reports) != 1 {
		t.Fatalf("post-restart reports %+v, want one", dr.Reports)
	}
	rep := dr.Reports[0]
	if rep.Verdict != mine.VerdictDrift || !rep.Warm {
		t.Fatalf("post-restart report %+v, want warm DRIFT", rep)
	}
	if len(rep.Counterexample) == 0 {
		t.Fatalf("restored DRIFT lost its counterexample: %+v", rep)
	}

	// Fresh traffic re-mines the class and clears the warm flag. The
	// module must be made resident again (residency is per-process), and
	// a fingerprint-shaped re-check would be satisfied straight from the
	// durable store without loading anything — so ask for a class-scoped
	// check srv1 never ran, which misses the body caches and forces a
	// real load.
	if _, err := cl2.Check(ctx, client.CheckRequest{Source: source, Class: "Valve"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.Ingest(ctx, events); err != nil {
		t.Fatal(err)
	}
	if rs := srv2.mineOnce(); rs.Errors != 0 {
		t.Fatalf("post-restart round stats %+v", rs)
	}
	dr, err = cl2.Drift(ctx, classFP)
	if err != nil {
		t.Fatal(err)
	}
	if rep := dr.Reports[0]; rep.Warm || rep.Verdict != mine.VerdictDrift {
		t.Fatalf("re-mined report %+v, want fresh DRIFT", rep)
	}
}

// postIngestRaw POSTs a raw NDJSON frame straight at /v1/ingest,
// bypassing the client's encoder so tests can inject hostile lines.
func postIngestRaw(srv *Server, frame string) (*client.IngestResponse, error) {
	httpResp, err := http.Post("http://"+srv.Addr()+"/v1/ingest", "application/x-ndjson", strings.NewReader(frame))
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return nil, err
	}
	if httpResp.StatusCode != 200 {
		return nil, fmt.Errorf("ingest: %d %s", httpResp.StatusCode, raw)
	}
	var resp client.IngestResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// TestIngestMalformedLinesSkipped: hostile lines inside a frame are
// counted and skipped without failing the well-formed remainder.
func TestIngestMalformedLinesSkipped(t *testing.T) {
	t.Parallel()
	srv, _ := startServer(t, Config{Workers: 1, Mine: true, MineInterval: time.Hour})
	frame := strings.Join([]string{
		`{"class_fp":"fp/V","device":"d0","events":["a"],"status":"ok"}`,
		`not json at all`,
		`{"class_fp":"","events":["a"]}`,
		`{"class_fp":"fp/V","events":["b"],"status":"ok"}`,
	}, "\n") + "\n"
	resp, err := postIngestRaw(srv, frame)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Received != 2 || resp.Accepted != 2 || resp.Malformed != 2 {
		t.Fatalf("mixed frame response %+v, want 2 accepted / 2 malformed", resp)
	}
}
