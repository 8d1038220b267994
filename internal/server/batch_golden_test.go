package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/shelley-go/shelley/client"
)

// Golden NDJSON wire-format tests: one file per scenario pinning the
// exact bytes a /v1/check-batch stream puts on the wire — record
// field order, status codes, error texts, terminal summary. Servers are
// configured Workers:1, which makes record order strictly
// the request's item order. Regenerate with:
//
//	go test ./internal/server -run TestBatchGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

func assertBatchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", "golden", "batch", name)
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
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file (run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// runGoldenBatch drives the handler directly through a recorder (no
// sockets, no scheduler in the byte path) and returns the raw NDJSON.
func runGoldenBatch(t *testing.T, srv *Server, items []client.BatchItem) []byte {
	t.Helper()
	body, err := json.Marshal(client.BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/check-batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	resp := w.Result()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	return w.Body.Bytes()
}

// TestBatchGoldenMixed pins the everyday stream: a source miss, a
// fingerprint hit of the now-resident module, and the per-item request
// errors, closed by the summary.
func TestBatchGoldenMixed(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	valve := readTestdata(t, "valve.py")
	got := runGoldenBatch(t, srv, []client.BatchItem{
		{ID: "load", Source: valve},
		{ID: "hit", Fingerprint: client.Fingerprint(valve)},
		{ID: "empty"},
		{ID: "ghost", Fingerprint: "sha256:0000000000000000000000000000000000000000000000000000000000000000"},
		{ID: "noclass", Source: valve, Class: "NoSuchClass"},
	})
	assertBatchGolden(t, "mixed.ndjson", got)
}

// TestBatchGoldenBudget pins the mid-batch budget refusal: the
// pathological item's 422 record sits between two clean records and
// the batch completes.
func TestBatchGoldenBudget(t *testing.T) {
	srv := New(Config{Workers: 1, Limits: tightLimits()})
	defer srv.Shutdown(context.Background())
	valve := readTestdata(t, "valve.py")
	got := runGoldenBatch(t, srv, []client.BatchItem{
		{ID: "before", Source: valve},
		{ID: "blowup", Source: readTestdata(t, "pathological/detblow.py")},
		{ID: "after", Fingerprint: client.Fingerprint(valve)},
	})
	assertBatchGolden(t, "budget.ndjson", got)
}

// cancelingRecorder cancels the request context the moment the first
// record hits the wire, modeling a client that hangs up after one
// result. With a sequential window the remaining items then resolve as
// 499 records at the loop head — fully deterministic bytes.
type cancelingRecorder struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
	writes int
}

func (w *cancelingRecorder) Write(b []byte) (int, error) {
	n, err := w.ResponseRecorder.Write(b)
	w.writes++
	if w.writes == 1 {
		w.cancel()
	}
	return n, err
}

// TestBatchGoldenCanceled pins the canceled-client stream: one real
// record, 499 records for the overtaken items, and a terminal record
// carrying the cancellation.
func TestBatchGoldenCanceled(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	valve := readTestdata(t, "valve.py")
	body, err := json.Marshal(client.BatchRequest{Items: []client.BatchItem{
		{ID: "served", Source: valve},
		{ID: "late", Fingerprint: client.Fingerprint(valve)},
		{ID: "later", Source: readTestdata(t, "goodsector.py")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/check-batch", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	w := &cancelingRecorder{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
	srv.Handler().ServeHTTP(w, req)
	assertBatchGolden(t, "canceled.ndjson", w.Body.Bytes())
}
