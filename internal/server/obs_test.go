package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/obs"
)

// syncBuffer makes a bytes.Buffer safe for the handler goroutines that
// write access-log records while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestTraceHeaderEchoedWithTracingOff(t *testing.T) {
	srv, _ := startServer(t, Config{Workers: 1})
	resp, err := http.Post("http://"+srv.Addr()+"/v1/check", "application/json",
		strings.NewReader(`{"source":"x = 1"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	id := resp.Header.Get("X-Shelley-Trace")
	if len(id) != 32 {
		t.Errorf("tracing-off response should still carry a generated 32-char trace ID, got %q", id)
	}
}

func TestTraceHeaderEchoAndValidation(t *testing.T) {
	srv, _ := startServer(t, Config{Workers: 1, TraceRingSize: 4096})
	source := readTestdata(t, "valve.py")
	do := func(sent string) string {
		t.Helper()
		body, _ := json.Marshal(client.CheckRequest{Source: source})
		req, _ := http.NewRequest(http.MethodPost, "http://"+srv.Addr()+"/v1/check", bytes.NewReader(body))
		if sent != "" {
			req.Header.Set("X-Shelley-Trace", sent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.Header.Get("X-Shelley-Trace")
	}

	if got := do("my-request-42"); got != "my-request-42" {
		t.Errorf("valid client trace ID must be echoed, got %q", got)
	}
	for _, bad := range []string{"bad id with spaces", strings.Repeat("a", 65)} {
		if got := do(bad); got == bad || got == "" {
			t.Errorf("invalid trace ID %q must be replaced, got %q", bad, got)
		} else if !obs.ValidTraceID(got) {
			t.Errorf("replacement trace ID %q is itself invalid", got)
		}
	}
	if got := do(""); len(got) != 32 {
		t.Errorf("absent header must yield a generated 32-char ID, got %q", got)
	}
}

func TestTraceExportEndpoint(t *testing.T) {
	srv, cl := startServer(t, Config{Workers: 1, TraceRingSize: 128})
	ctx := context.Background()
	if _, err := cl.Check(ctx, client.CheckRequest{Source: readTestdata(t, "valve.py")}); err != nil {
		t.Fatal(err)
	}

	get := func(url string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	status, body := get("http://" + srv.Addr() + "/v1/trace-export")
	if status != http.StatusOK {
		t.Fatalf("trace-export status %d: %s", status, body)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &chrome); err != nil {
		t.Fatalf("trace-export is not valid chrome JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, e := range chrome.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"http.check", "load.module", "check.class"} {
		if !names[want] {
			t.Errorf("trace-export missing span %q (have %v)", want, names)
		}
	}

	status, body = get("http://" + srv.Addr() + "/v1/trace-export?format=otlp")
	if status != http.StatusOK || !json.Valid(body) {
		t.Errorf("otlp export: status %d, valid JSON %v", status, json.Valid(body))
	}
	if !bytes.Contains(body, []byte("resourceSpans")) {
		t.Error("otlp export missing resourceSpans")
	}

	if status, _ = get("http://" + srv.Addr() + "/v1/trace-export?format=protobuf"); status != http.StatusBadRequest {
		t.Errorf("unknown format status = %d, want 400", status)
	}
}

func TestTraceExportDisabledWithoutTracing(t *testing.T) {
	srv, _ := startServer(t, Config{Workers: 1})
	resp, err := http.Get("http://" + srv.Addr() + "/v1/trace-export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace-export with tracing off = %d, want 404", resp.StatusCode)
	}
}

func TestAccessLogRecordsRequest(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(obs.NewLogHandler(slog.NewJSONHandler(&buf, nil)))
	srv, cl := startServer(t, Config{Workers: 1, TraceRingSize: 4096, Logger: logger})

	ctx := context.Background()
	resp, err := cl.Check(ctx, client.CheckRequest{Source: readTestdata(t, "valve.py")})
	if err != nil {
		t.Fatal(err)
	}

	var rec map[string]any
	found := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r map[string]any
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("access log line is not JSON: %v\n%s", err, line)
		}
		if r["path"] == "/v1/check" {
			rec, found = r, true
			break
		}
	}
	if !found {
		t.Fatalf("no access record for /v1/check in:\n%s", buf.String())
	}
	if rec["method"] != "POST" || rec["status"] != float64(200) {
		t.Errorf("access record fields wrong: %v", rec)
	}
	if rec["coalesced"] != false {
		t.Errorf("uncoalesced request logged coalesced=%v", rec["coalesced"])
	}
	if rec["trace"] != resp.TraceID {
		t.Errorf("access record trace %v != response trace ID %q", rec["trace"], resp.TraceID)
	}
	if rec["trace_id"] != resp.TraceID {
		t.Errorf("slog handler did not stamp trace_id from the span: %v", rec)
	}
	if _, ok := rec["span_id"].(string); !ok {
		t.Errorf("access record missing span_id: %v", rec)
	}
	_ = srv
}

func TestQuietServerLogsNothing(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 1}) // no Logger = -quiet
	if _, err := cl.Check(context.Background(), client.CheckRequest{Source: readTestdata(t, "valve.py")}); err != nil {
		t.Fatal(err)
	}
	// Nothing to assert on output — the absence of a logger must simply
	// not panic anywhere in the request path.
}

func TestCoalescedRequestsKeepOwnTraceIDs(t *testing.T) {
	// Hold the single worker at a barrier so a second identical request
	// provably coalesces onto the first, then check both responses carry
	// their own trace IDs: headers are per-request even when the body is
	// a shared byte-exact replay.
	release := make(chan struct{})
	var buf syncBuffer
	logger := slog.New(obs.NewLogHandler(slog.NewJSONHandler(&buf, nil)))
	srv, cl := startServer(t, Config{
		Workers: 1, QueueDepth: 8, TraceRingSize: 4096, Logger: logger,
		jobHook: func() { <-release },
	})

	body, _ := json.Marshal(client.CheckRequest{Source: syntheticSource(2, "Co")})
	post := func(traceID string) string {
		req, _ := http.NewRequest(http.MethodPost, "http://"+srv.Addr()+"/v1/check", bytes.NewReader(body))
		req.Header.Set("X-Shelley-Trace", traceID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return ""
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.Header.Get("X-Shelley-Trace")
	}

	var wg sync.WaitGroup
	ids := []string{"leader-trace", "follower-trace"}
	got := make([]string, len(ids))
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = post(ids[i])
		}(i)
	}
	// Both requests inside handlers (leader parked at the barrier,
	// follower coalesced onto it), then release the worker.
	waitMetric(t, cl, "shelleyd_inflight_requests", float64(len(ids)))
	close(release)
	wg.Wait()

	for i, want := range ids {
		if got[i] != want {
			t.Errorf("request %d echoed trace %q, want its own %q", i, got[i], want)
		}
	}
	if srv.met.coalesced.Load() == 0 {
		t.Error("coalesced = 0; the held identical requests must have shared one execution")
	}
	if !strings.Contains(buf.String(), `"coalesced":true`) {
		t.Errorf("access log has no coalesced=true record:\n%s", buf.String())
	}
}
