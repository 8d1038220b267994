package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shelley-go/shelley/client"
)

// waitGauge polls /metrics until name is exactly want (waitMetric's >=
// cannot express "gauge back to zero").
func waitGauge(t *testing.T, cl *client.Client, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		text, err := cl.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := client.ParseMetric(text, name); ok && v == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("metric %s never settled at %v", name, want)
}

// checkBody fetches the raw /v1/check response body for an item — the
// ground truth a batch record's Check field must match byte for byte.
func checkBody(t *testing.T, addr string, req client.CheckRequest) []byte {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+addr+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/check = %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// TestBatchStreamsIncrementally is the tentpole's streaming proof: the
// first record must reach the client while a later item is still
// executing. The job hook blocks the second item's pooled job until the
// test has consumed the first record off the wire, so a buffered
// (non-incremental) implementation would deadlock rather than pass.
func TestBatchStreamsIncrementally(t *testing.T) {
	release := make(chan struct{})
	var jobs atomic.Int64
	srv, _ := startServer(t, Config{
		Workers: 1,
		jobHook: func() {
			if jobs.Add(1) == 2 {
				<-release
			}
		},
	})
	cl := client.New("http://" + srv.Addr())

	stream, err := cl.CheckBatch(context.Background(), client.BatchRequest{Items: []client.BatchItem{
		{ID: "first", Source: syntheticSource(1, "IncA")},
		{ID: "second", Source: syntheticSource(1, "IncB")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	rec, err := stream.Next()
	if err != nil {
		t.Fatalf("first record: %v", err)
	}
	if rec.ID != "first" || rec.Status != http.StatusOK {
		t.Fatalf("first record = %+v", rec)
	}
	// The first record is in hand while item two is still blocked at
	// the barrier: the stream is incremental. Release and drain.
	close(release)
	rec, err = stream.Next()
	if err != nil || rec.ID != "second" || rec.Status != http.StatusOK {
		t.Fatalf("second record = %+v, %v", rec, err)
	}
	if _, err := stream.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF after terminal record, got %v", err)
	}
	sum := stream.Summary()
	if sum == nil || !sum.Done || sum.Total != 2 || sum.Succeeded != 2 || sum.Failed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
}

// TestBatchRecordErrorsDontFailBatch pins the per-item error surface:
// invalid items produce non-200 records with the same status codes the
// single-shot endpoints answer, the stream keeps flowing, and the
// terminal record tallies them. An item's source is accepted at
// maxSourceBytes and refused with 413 one byte past it.
func TestBatchRecordErrorsDontFailBatch(t *testing.T) {
	srv, cl := startServer(t, Config{Workers: 2})
	bcl := client.New("http://" + srv.Addr())
	good := syntheticSource(1, "RecOK")
	atLimit := good + "\n#" + strings.Repeat("p", maxSourceBytes-len(good)-2)
	oversize := atLimit + "p"

	stream, err := bcl.CheckBatch(context.Background(), client.BatchRequest{Items: []client.BatchItem{
		{Source: good},
		{}, // neither source nor fingerprint
		{Fingerprint: "sha256:0000000000000000000000000000000000000000000000000000000000000000"},
		{Source: good, Fingerprint: "sha256:wrong"},
		{Source: good, Class: "NoSuchClass"},
		{Source: oversize},
		{Source: atLimit},
	}})
	if err != nil {
		t.Fatal(err)
	}
	records, err := stream.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{0: 200, 1: 400, 2: 404, 3: 400, 4: 404, 5: 413, 6: 200}
	if len(records) != len(want) {
		t.Fatalf("got %d records, want %d", len(records), len(want))
	}
	for _, rec := range records {
		if rec.Status != want[rec.Index] {
			t.Errorf("item %d: status = %d (%s), want %d", rec.Index, rec.Status, rec.Error, want[rec.Index])
		}
		if rec.Status != 200 && rec.Error == "" {
			t.Errorf("item %d: non-200 record without error text", rec.Index)
		}
	}
	sum := stream.Summary()
	if sum.Total != 7 || sum.Succeeded != 2 || sum.Failed != 5 {
		t.Fatalf("summary = %+v", sum)
	}
	waitMetric(t, cl, "shelleyd_batch_item_errors_total", 5)
}

// TestBatchBudgetRecordIs422 is the mid-batch budget refusal: a
// pathological item under a tight budget yields a 422 record while its
// neighbors verify normally.
func TestBatchBudgetRecordIs422(t *testing.T) {
	srv, cl := startServer(t, Config{Workers: 1, Limits: tightLimits()})
	bcl := client.New("http://" + srv.Addr())
	good := syntheticSource(1, "Bud")
	detblow := readTestdata(t, "pathological/detblow.py")

	stream, err := bcl.CheckBatch(context.Background(), client.BatchRequest{Items: []client.BatchItem{
		{Source: good}, {Source: detblow}, {Fingerprint: client.Fingerprint(good)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	records, err := stream.Collect()
	if err != nil {
		t.Fatal(err)
	}
	byIndex := map[int]client.BatchRecord{}
	for _, rec := range records {
		byIndex[rec.Index] = rec
	}
	if byIndex[0].Status != 200 || byIndex[2].Status != 200 {
		t.Fatalf("good items: %+v / %+v", byIndex[0], byIndex[2])
	}
	if byIndex[1].Status != 422 || !strings.Contains(byIndex[1].Error, "budget") {
		t.Fatalf("pathological item: status=%d error=%q, want 422 budget error", byIndex[1].Status, byIndex[1].Error)
	}
	if sum := stream.Summary(); sum.Succeeded != 2 || sum.Failed != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	waitMetric(t, cl, "shelleyd_budget_exceeded_total", 1)
}

// TestBatchRequestValidation pins the whole-batch refusals that happen
// before any record is streamed: a batch of maxBatchItems streams, one
// more item answers 413.
func TestBatchRequestValidation(t *testing.T) {
	srv, _ := startServer(t, Config{Workers: 1})
	bcl := client.New("http://" + srv.Addr())
	ctx := context.Background()

	_, err := bcl.CheckBatch(ctx, client.BatchRequest{})
	if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 400 {
		t.Fatalf("empty batch: %v, want 400", err)
	}

	full := client.BatchRequest{Items: make([]client.BatchItem, maxBatchItems)}
	stream, err := bcl.CheckBatch(ctx, full)
	if err != nil {
		t.Fatalf("batch of maxBatchItems: %v", err)
	}
	if recs, err := stream.Collect(); err != nil || len(recs) != maxBatchItems {
		t.Fatalf("batch of maxBatchItems: %d records, %v", len(recs), err)
	}

	big := client.BatchRequest{Items: make([]client.BatchItem, maxBatchItems+1)}
	_, err = bcl.CheckBatch(ctx, big)
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != 413 {
		t.Fatalf("oversized batch: %v, want 413", err)
	}
	if !strings.Contains(apiErr.Message, "/v1/jobs") {
		t.Fatalf("413 should point at the async job mode, got %q", apiErr.Message)
	}

	srv.draining.Store(true)
	_, err = bcl.CheckBatch(ctx, client.BatchRequest{Items: []client.BatchItem{{Fingerprint: "sha256:x"}}})
	srv.draining.Store(false)
	if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != 503 || apiErr.RetryAfter <= 0 {
		t.Fatalf("draining batch: %v, want 503 with Retry-After", err)
	}
}

// TestBatchMatchesSequentialCheckRace is the ordering/consistency
// acceptance test: 64 concurrent clients stream overlapping batches
// whose items share fingerprints; every 200 record must embed a body
// byte-identical to a sequential /v1/check of the same item, the
// cross-request coalesce counter must move, and no stream may suffer
// NDJSON framing corruption. Run with -race in CI.
func TestBatchMatchesSequentialCheckRace(t *testing.T) {
	const (
		clients = 64
		sources = 8
	)
	var hold atomic.Bool
	release := make(chan struct{})
	srv, cl := startServer(t, Config{
		Workers: 4, RequestTimeout: 60 * time.Second,
		jobHook: func() {
			if hold.Load() {
				<-release
			}
		},
	})
	addr := srv.Addr()

	srcs := make([]string, sources)
	for i := range srcs {
		srcs[i] = syntheticSource(2, fmt.Sprintf("Race%d", i))
	}

	// Hold the workers so all 512 items are in flight together before
	// any source has ever been verified: 8 coalescing keys across 512
	// cold calls makes the coalesce counter a certainty, not a
	// scheduling coin flip. (Priming first would defeat the point — a
	// warm repeat is a body-cache hit that never reaches the pool.)
	hold.Store(true)
	got := make([][][]byte, clients)
	for c := range got {
		got[c] = make([][]byte, sources)
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			bcl := client.New("http://"+addr, client.WithToken(fmt.Sprintf("race-%d", c)))
			items := make([]client.BatchItem, sources)
			for i := range items {
				src := (c + i) % sources // rotate so batches overlap, not align
				items[i] = client.BatchItem{ID: fmt.Sprint(src), Source: srcs[src]}
			}
			stream, err := bcl.CheckBatch(context.Background(), client.BatchRequest{Items: items})
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", c, err)
				return
			}
			records, err := stream.Collect()
			if err != nil {
				errs <- fmt.Errorf("client %d: collect: %w", c, err)
				return
			}
			if sum := stream.Summary(); sum.Total != sources || sum.Succeeded != sources {
				errs <- fmt.Errorf("client %d: summary %+v", c, sum)
				return
			}
			for _, rec := range records {
				src := (c + rec.Index) % sources
				if rec.ID != fmt.Sprint(src) {
					errs <- fmt.Errorf("client %d item %d: ID %q does not match index", c, rec.Index, rec.ID)
					return
				}
				if rec.Status != http.StatusOK {
					errs <- fmt.Errorf("client %d item %d: status %d: %s", c, rec.Index, rec.Status, rec.Error)
					return
				}
				got[c][rec.Index] = rec.Check
			}
		}(c)
	}
	waitMetric(t, cl, "shelleyd_batch_inflight_items", clients*sources)
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Sequential ground truth, collected after the race: a /v1/check of
	// each source must be byte-identical to every batch record that
	// embedded it — one coalesced execution, one encoder, one memoized
	// body, regardless of which path served it.
	want := make([][]byte, sources)
	for i := range want {
		want[i] = checkBody(t, addr, client.CheckRequest{Source: srcs[i]})
	}
	for c := range got {
		for i, check := range got[c] {
			src := (c + i) % sources
			if check != nil && !bytes.Equal(check, want[src]) {
				t.Errorf("client %d item %d: batch record differs from sequential /v1/check:\nbatch: %s\ncheck: %s",
					c, i, check, want[src])
			}
		}
	}
	waitMetric(t, cl, "shelleyd_coalesced_total", 1)
	waitMetric(t, cl, "shelleyd_batch_items_total", clients*sources)
	waitGauge(t, cl, "shelleyd_batch_inflight_items", 0) // admission fully released
}

// TestBatchAdmissionPreventsStarvation is the hostile load test at the
// production windows: a noisy client holding two full batches has spent
// its share of maxClientItems and draws 429s with a backoff hint, while
// polite clients' batches are admitted and complete untouched, and once
// maxBatchInflight items are in flight the next batch draws 503.
func TestBatchAdmissionPreventsStarvation(t *testing.T) {
	var hold atomic.Bool
	release := make(chan struct{})
	srv, cl := startServer(t, Config{
		Workers: 2, RequestTimeout: 60 * time.Second,
		jobHook: func() {
			if hold.Load() {
				<-release
			}
		},
	})
	addr := "http://" + srv.Addr()
	hostile := client.New(addr, client.WithToken("hostile"))
	ctx := context.Background()

	// Every item of a batch is the same source, so its items coalesce
	// on one cell whose pooled job the hook holds.
	batch := func(tag string) client.BatchRequest {
		items := make([]client.BatchItem, maxBatchItems)
		for i := range items {
			items[i] = client.BatchItem{Source: syntheticSource(1, tag)}
		}
		return client.BatchRequest{Items: items}
	}

	hold.Store(true)
	type result struct {
		sum *client.BatchRecord
		err error
	}
	done := make(chan result, 4)
	run := func(c *client.Client, req client.BatchRequest) {
		stream, err := c.CheckBatch(ctx, req)
		if err != nil {
			done <- result{nil, err}
			return
		}
		if _, err := stream.Collect(); err != nil {
			done <- result{nil, err}
			return
		}
		done <- result{stream.Summary(), nil}
	}
	go run(hostile, batch("Hog"))
	go run(hostile, batch("Hog"))
	waitMetric(t, cl, "shelleyd_batch_inflight_items", maxClientItems)

	// The hostile client's share is spent: one more item refuses with
	// 429 and a jittered backoff hint.
	_, err := hostile.CheckBatch(ctx, client.BatchRequest{Items: []client.BatchItem{{Fingerprint: "sha256:x"}}})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hostile overflow: %v, want 429", err)
	}
	if apiErr.RetryAfter < time.Second {
		t.Fatalf("429 Retry-After = %v, want >= 1s", apiErr.RetryAfter)
	}
	if !apiErr.Temporary() {
		t.Fatal("429 should be Temporary")
	}

	// Polite clients are unaffected by the noisy neighbor: their
	// batches are admitted into the rest of the global window.
	go run(client.New(addr, client.WithToken("polite")), batch("Nice"))
	go run(client.New(addr, client.WithToken("other")), batch("Other"))
	waitMetric(t, cl, "shelleyd_batch_inflight_items", maxBatchInflight)

	// The global window is now full: a fresh client refuses with 503 —
	// the daemon, not the client, is the bottleneck.
	_, err = client.New(addr, client.WithToken("late")).CheckBatch(ctx, client.BatchRequest{Items: []client.BatchItem{{Fingerprint: "sha256:x"}}})
	if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != http.StatusServiceUnavailable || apiErr.RetryAfter < time.Second {
		t.Fatalf("global overflow: %v, want 503 with Retry-After >= 1s", err)
	}

	close(release)
	for i := 0; i < 4; i++ {
		res := <-done
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.sum.Total != maxBatchItems || res.sum.Succeeded != maxBatchItems {
			t.Fatalf("admitted batch did not complete cleanly: %+v", res.sum)
		}
	}
	waitMetric(t, cl, "shelleyd_batch_admission_rejected_total", 2)
	waitGauge(t, cl, "shelleyd_batch_inflight_items", 0)
}

// TestJobSubmitPollAndStream exercises the async mode end to end: a
// batch past the synchronous window is refused with 413, submitted as a
// job instead, observable mid-run by poll and by live stream, and
// complete with the full record log.
func TestJobSubmitPollAndStream(t *testing.T) {
	const n = maxBatchItems + 1
	var hold atomic.Bool
	release := make(chan struct{})
	srv, cl := startServer(t, Config{
		Workers: 2,
		jobHook: func() {
			if hold.Load() {
				<-release
			}
		},
	})
	bcl := client.New("http://" + srv.Addr())
	ctx := context.Background()

	items := make([]client.BatchItem, n)
	for i := range items {
		items[i] = client.BatchItem{ID: fmt.Sprint(i), Source: syntheticSource(1, fmt.Sprintf("Job%d", i%8))}
	}
	req := client.BatchRequest{Items: items}

	// Past the sync window: /v1/check-batch refuses and points here.
	if _, err := bcl.CheckBatch(ctx, req); err == nil {
		t.Fatalf("%d-item batch should exceed the %d-item sync window", n, maxBatchItems)
	}

	hold.Store(true)
	acc, err := bcl.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(acc.Job, "job-") || acc.Total != n {
		t.Fatalf("accepted = %+v", acc)
	}

	// A live tail attaches while the job runs...
	stream, err := bcl.JobStream(ctx, acc.Job)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	// ...and a poll sees it running.
	st, err := bcl.Job(ctx, acc.Job, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "running" || st.Total != n {
		t.Fatalf("mid-run status = %+v", st)
	}

	close(release)
	records, err := stream.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != n {
		t.Fatalf("streamed %d records, want %d", len(records), n)
	}
	if sum := stream.Summary(); !sum.Done || sum.Succeeded != n {
		t.Fatalf("stream summary = %+v", sum)
	}

	// The finished job polls done with the full record log, and a fresh
	// stream replays it from the start.
	st, err = bcl.Job(ctx, acc.Job, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Completed != n || st.Failed != 0 || len(st.Records) != n {
		t.Fatalf("final status = %+v", st)
	}
	replay, err := bcl.JobStream(ctx, acc.Job)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := replay.Collect()
	if err != nil || len(replayed) != n {
		t.Fatalf("replay: %d records, %v", len(replayed), err)
	}

	if _, err := bcl.Job(ctx, "job-doesnotexist", false); err == nil {
		t.Fatal("unknown job should 404")
	}
	waitMetric(t, cl, "shelleyd_jobs_total", 1)
	waitMetric(t, cl, "shelleyd_batch_items_total", n)
}

// TestBatchClientCancelReleasesGoroutines: a client abandoning its
// stream mid-batch must not strand server goroutines or poison the
// daemon — remaining items resolve as canceled records (counted), the
// runner exits, and the next request is served normally.
func TestBatchClientCancelReleasesGoroutines(t *testing.T) {
	var hold atomic.Bool
	release := make(chan struct{})
	srv, cl := startServer(t, Config{
		Workers: 1, RequestTimeout: 60 * time.Second,
		jobHook: func() {
			if hold.Load() {
				<-release
			}
		},
	})
	bcl := client.New("http://" + srv.Addr())

	// Settle, then baseline.
	if _, err := bcl.CheckBatch(context.Background(), client.BatchRequest{Items: []client.BatchItem{{Source: syntheticSource(1, "Warm")}}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	hold.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	stream, err := bcl.CheckBatch(ctx, client.BatchRequest{Items: []client.BatchItem{
		{Source: syntheticSource(1, "CanA")},
		{Source: syntheticSource(1, "CanB")},
		{Source: syntheticSource(1, "CanC")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	waitMetric(t, cl, "shelleyd_batch_inflight_items", 3)
	cancel()
	stream.Close()
	waitMetric(t, cl, "shelleyd_batch_streams_canceled_total", 1)
	close(release)

	// Admission must drain (the handler's deferred release ran) and the
	// goroutines must return to baseline.
	waitGauge(t, cl, "shelleyd_batch_inflight_items", 0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, baseline %d: canceled batch stranded work", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Daemon still fully serviceable.
	resp, err := client.New("http://"+srv.Addr()).Check(context.Background(), client.CheckRequest{Source: syntheticSource(1, "After")})
	if err != nil || !resp.OK {
		t.Fatalf("check after canceled batch: %+v, %v", resp, err)
	}
}

// TestJobLargerThanClientShareAdmits: a job of maxJobItems, far past
// the per-client item share, must still be admitted and run to
// completion — its admission charge is its peak pool occupancy (at
// most Workers items), not its full item count. The /v1/check-batch 413
// path sends exactly such batches to /v1/jobs, so refusing them with a
// retryable 429 whose Retry-After could never succeed would be a trap.
// One item more answers 413.
func TestJobLargerThanClientShareAdmits(t *testing.T) {
	srv, cl := startServer(t, Config{Workers: 2})
	bcl := client.New("http://" + srv.Addr())
	ctx := context.Background()

	items := make([]client.BatchItem, maxJobItems+1)
	for i := range items {
		items[i] = client.BatchItem{ID: fmt.Sprint(i), Source: syntheticSource(1, fmt.Sprintf("BigJob%d", i%32))}
	}
	_, err := bcl.SubmitJob(ctx, client.BatchRequest{Items: items})
	if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("job of maxJobItems+1: %v, want 413", err)
	}
	items = items[:maxJobItems]
	acc, err := bcl.SubmitJob(ctx, client.BatchRequest{Items: items})
	if err != nil {
		t.Fatalf("job larger than the client share was refused: %v", err)
	}
	stream, err := bcl.JobStream(ctx, acc.Job)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	records, err := stream.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != maxJobItems {
		t.Fatalf("streamed %d records, want %d", len(records), maxJobItems)
	}
	if sum := stream.Summary(); !sum.Done || sum.Succeeded != maxJobItems || sum.Failed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	// The runner's deferred release ran: the admission charge drains.
	waitGauge(t, cl, "shelleyd_batch_inflight_items", 0)
}

// TestJobStoreHoldsMaxJobs: maxJobs running jobs are retained, the next
// submission answers 503 with a Retry-After while none has finished,
// and once they finish a new job evicts the oldest completed one.
func TestJobStoreHoldsMaxJobs(t *testing.T) {
	var hold atomic.Bool
	release := make(chan struct{})
	srv, _ := startServer(t, Config{
		Workers: 1,
		jobHook: func() {
			if hold.Load() {
				<-release
			}
		},
	})
	bcl := client.New("http://" + srv.Addr())
	ctx := context.Background()
	job := client.BatchRequest{Items: []client.BatchItem{{Source: syntheticSource(1, "Held")}}}

	hold.Store(true)
	ids := make([]string, maxJobs)
	for i := range ids {
		acc, err := bcl.SubmitJob(ctx, job)
		if err != nil {
			t.Fatalf("job %d of maxJobs: %v", i+1, err)
		}
		ids[i] = acc.Job
	}
	_, err := bcl.SubmitJob(ctx, job)
	if apiErr, ok := err.(*client.APIError); !ok || apiErr.StatusCode != http.StatusServiceUnavailable || apiErr.RetryAfter <= 0 {
		t.Fatalf("job past maxJobs, all running: %v, want 503 with Retry-After", err)
	}

	hold.Store(false)
	close(release)
	for _, id := range ids {
		stream, err := bcl.JobStream(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stream.Collect(); err != nil {
			t.Fatal(err)
		}
		stream.Close()
	}
	if _, err := bcl.SubmitJob(ctx, job); err != nil {
		t.Fatalf("job past maxJobs, all done: %v", err)
	}
	if _, err := bcl.Job(ctx, ids[0], false); err == nil {
		t.Fatal("the oldest completed job should have been evicted")
	}
	if _, err := bcl.Job(ctx, ids[1], false); err != nil {
		t.Fatalf("the second job should still be retained: %v", err)
	}
}

// TestBatchRunnerParksAtMostWorkers: a held batch occupies at most
// Workers item goroutines (plus its launcher), not one per item.
func TestBatchRunnerParksAtMostWorkers(t *testing.T) {
	var hold atomic.Bool
	release := make(chan struct{})
	srv, cl := startServer(t, Config{
		Workers: 2, RequestTimeout: 60 * time.Second,
		jobHook: func() {
			if hold.Load() {
				<-release
			}
		},
	})
	bcl := client.New("http://" + srv.Addr())
	time.Sleep(50 * time.Millisecond)
	runtime.GC()
	baseline := runtime.NumGoroutine()

	hold.Store(true)
	items := make([]client.BatchItem, maxBatchItems)
	for i := range items {
		items[i] = client.BatchItem{Source: syntheticSource(1, "Parked")}
	}
	done := make(chan error, 1)
	go func() {
		stream, err := bcl.CheckBatch(context.Background(), client.BatchRequest{Items: items})
		if err == nil {
			_, err = stream.Collect()
		}
		done <- err
	}()
	waitMetric(t, cl, "shelleyd_batch_inflight_items", maxBatchItems)
	waitMetric(t, cl, "shelleyd_coalesced_total", 1) // the second item waits on the held first
	// The handler, its connection, the client side and the launcher
	// with its Workers item goroutines: a small constant, however many
	// items the batch has.
	if n := runtime.NumGoroutine(); n > baseline+16 {
		t.Errorf("a held %d-item batch at Workers 2 runs %d goroutines over a baseline of %d", maxBatchItems, n-baseline, baseline)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestShutdownUnblocksBatchBackpressure: a /v1/check-batch handler
// blocked in a backpressure send must unwind when a drain's budget
// expires — before the pool closes its queue — answering its remaining
// items as drain records instead of panicking the daemon with a send
// on a closed channel (http.Server.Shutdown never cancels request
// contexts, so only the server's drain context can free it).
func TestShutdownUnblocksBatchBackpressure(t *testing.T) {
	var hold atomic.Bool
	var hooked atomic.Int64
	release := make(chan struct{})
	srv, cl := startServer(t, Config{
		Workers: 1, QueueDepth: 1, RequestTimeout: 60 * time.Second,
		jobHook: func() {
			hooked.Add(1)
			if hold.Load() {
				<-release
			}
		},
	})
	bcl := client.New("http://" + srv.Addr())

	// Pin the single worker at the hook barrier, then fill the one
	// queue slot, so the batch below genuinely blocks submitting.
	hold.Store(true)
	singles := make(chan error, 2)
	check := func(tag string) {
		_, err := bcl.Check(context.Background(), client.CheckRequest{Source: syntheticSource(1, tag)})
		singles <- err
	}
	go check("PinWorker")
	for deadline := time.Now().Add(10 * time.Second); hooked.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never reached the hook barrier")
		}
		time.Sleep(time.Millisecond)
	}
	go check("PinQueue")
	waitGauge(t, cl, "shelleyd_queue_depth", 1)

	type streamResult struct {
		recs []client.BatchRecord
		sum  *client.BatchRecord
		err  error
	}
	batchDone := make(chan streamResult, 1)
	go func() {
		stream, err := bcl.CheckBatch(context.Background(), client.BatchRequest{Items: []client.BatchItem{
			{ID: "stuck", Source: syntheticSource(1, "StuckItem")},
		}})
		if err != nil {
			batchDone <- streamResult{err: err}
			return
		}
		recs, err := stream.Collect()
		batchDone <- streamResult{recs: recs, sum: stream.Summary(), err: err}
	}()
	waitMetric(t, cl, "shelleyd_batch_backpressure_total", 1)

	// Drain with an already-expired budget. Pre-fix, this closed the
	// queue while the batch was parked in its send and panicked.
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	shutDone := make(chan error, 1)
	go func() { shutDone <- srv.Shutdown(shutCtx) }()

	res := <-batchDone
	if res.err != nil {
		t.Fatalf("batch stream: %v", res.err)
	}
	if len(res.recs) != 1 || res.recs[0].Status != http.StatusServiceUnavailable {
		t.Fatalf("overtaken item = %+v, want one 503 drain record", res.recs)
	}
	if res.sum == nil || !res.sum.Done || !strings.Contains(res.sum.Error, "draining") {
		t.Fatalf("terminal record = %+v, want the drain as its cause", res.sum)
	}
	if err := <-shutDone; err == nil {
		t.Fatal("Shutdown with an expired budget should report its context error")
	}

	// Release the pinned work so the pool can close; both held checks
	// were admitted before the drain and must still complete.
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-singles; err != nil {
			t.Errorf("pinned check dropped by drain: %v", err)
		}
	}
}

// TestJobStreamDetachDoesNotCountAsCancel: dropping a ?stream=1 tail
// cancels nothing — the job keeps running to completion, and the
// disconnect counts as a detached tailer, not a canceled batch stream.
func TestJobStreamDetachDoesNotCountAsCancel(t *testing.T) {
	var hold atomic.Bool
	release := make(chan struct{})
	srv, cl := startServer(t, Config{
		Workers: 1,
		jobHook: func() {
			if hold.Load() {
				<-release
			}
		},
	})
	bcl := client.New("http://" + srv.Addr())
	ctx := context.Background()

	hold.Store(true)
	acc, err := bcl.SubmitJob(ctx, client.BatchRequest{Items: []client.BatchItem{
		{Source: syntheticSource(1, "TailA")},
		{Source: syntheticSource(1, "TailB")},
	}})
	if err != nil {
		t.Fatal(err)
	}

	// Attach a tail while the job is held, then hang up.
	tailCtx, cancelTail := context.WithCancel(ctx)
	stream, err := bcl.JobStream(tailCtx, acc.Job)
	if err != nil {
		t.Fatal(err)
	}
	cancelTail()
	stream.Close()
	waitMetric(t, cl, "shelleyd_job_stream_detached_total", 1)

	close(release)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st, err := bcl.Job(ctx, acc.Job, false)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			if st.Failed != 0 || st.Completed != 2 {
				t.Fatalf("job after detached tail = %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished after its tailer detached")
		}
	}
	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := client.ParseMetric(text, "shelleyd_batch_streams_canceled_total"); ok && v != 0 {
		t.Fatalf("tailer detach counted as a canceled batch stream (%v)", v)
	}
}

// TestAppendRecordMatchesJSONMarshal pins the hot-path record encoder
// byte-for-byte against encoding/json across every field combination
// the stream can emit, plus the escaping cases that must punt to the
// reflection fallback. If BatchRecord grows a field, this test is what
// forces appendRecord to learn it.
func TestAppendRecordMatchesJSONMarshal(t *testing.T) {
	recs := []client.BatchRecord{
		{},
		{Index: 7},
		{Index: 3, ID: "load", Status: 200, Check: json.RawMessage(`{"ok":true,"fingerprint":"sha256:ab","reports":[{"class":"C","verified":true}]}`)},
		{Index: 0, Status: 200, Check: json.RawMessage(`{}`)},
		{Index: 1, ID: "bad", Status: 400, Error: "item needs source or fingerprint"},
		{Index: 2, Status: 404, Error: "module sha256:00 not resident; re-POST its source"},
		{Index: 4, Status: 499, Error: "client canceled before this item completed"},
		{Index: 5, Status: 422, Error: "budget exceeded: states"},
		{Done: true, Total: 64, Succeeded: 64},
		{Done: true, Total: 3, Succeeded: 1, Failed: 2, Error: "batch canceled: context canceled"},
		{Index: -1, Status: -2, Total: -3, Succeeded: -4, Failed: -5},
	}
	for i, rec := range recs {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := appendRecord(nil, rec)
		if !ok {
			t.Fatalf("rec %d: fast path refused a plain record: %+v", i, rec)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("rec %d:\nfast %s\njson %s", i, got, want)
		}
	}
	// Strings encoding/json escapes (quotes, backslashes, control
	// chars, HTML-unsafe, non-ASCII) must be refused so the caller
	// falls back — the wire bytes stay identical either way.
	for _, s := range []string{`qu"ote`, `back\slash`, "ctrl\x01", "<script>", "a&b", "uni\u00e9", "high\x7f"} {
		if _, ok := appendRecord(nil, client.BatchRecord{ID: s}); ok {
			t.Errorf("fast path accepted ID %q, which needs escaping", s)
		}
		if _, ok := appendRecord(nil, client.BatchRecord{Error: s}); ok {
			t.Errorf("fast path accepted Error %q, which needs escaping", s)
		}
	}
}
