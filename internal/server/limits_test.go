package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/shelley-go/shelley/internal/store"
)

// padObject returns the JSON object obj (which must end in '}') padded
// with whitespace before its closing brace to exactly n bytes: one
// JSON value of that size, so a body limit of n reads all of it and a
// limit of n-1 cuts the value short.
func padObject(t *testing.T, obj []byte, n int) []byte {
	t.Helper()
	if len(obj) > n || obj[len(obj)-1] != '}' {
		t.Fatalf("cannot pad a %d-byte object to %d", len(obj), n)
	}
	out := make([]byte, 0, n)
	out = append(out, obj[:len(obj)-1]...)
	out = append(out, bytes.Repeat([]byte(" "), n-len(obj))...)
	return append(out, '}')
}

// serve runs one request through h and returns its status and body.
func serve(h http.Handler, method, path string, body io.Reader) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
	return rec.Code, rec.Body.String()
}

// TestRequestBodyLimits drives each fixed body limit at its production
// value: a body of exactly the limit is read, one byte more is refused.
func TestRequestBodyLimits(t *testing.T) {
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(Config{Workers: 1, Store: st})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()

	src, _ := json.Marshal(syntheticSource(1, "Limit"))
	check := []byte(`{"source":` + string(src) + `}`)
	batch := []byte(`{"items":[{}]}`)
	for _, tc := range []struct {
		path  string
		obj   []byte
		limit int
		want  int
	}{
		{"/v1/check", check, maxSourceBytes, http.StatusOK},
		{"/v1/check-batch", batch, maxBatchBytes, http.StatusOK},
	} {
		body := padObject(t, tc.obj, tc.limit)
		if code, resp := serve(h, http.MethodPost, tc.path, bytes.NewReader(body)); code != tc.want {
			t.Errorf("%s body of %d bytes: %d %.200s, want %d", tc.path, len(body), code, resp, tc.want)
		}
		body = padObject(t, tc.obj, tc.limit+1)
		if code, resp := serve(h, http.MethodPost, tc.path, bytes.NewReader(body)); code != http.StatusBadRequest {
			t.Errorf("%s body of %d bytes: %d %.200s, want 400", tc.path, len(body), code, resp)
		}
	}

	// A snapshot of damaged records is read to its end, each record
	// skipped, so it can be as long as the limit without touching disk.
	code, header := serve(h, http.MethodGet, "/v1/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("exporting the empty store: %d", code)
	}
	if code, resp := serve(h, http.MethodPut, "/v1/snapshot", damagedSnapshot(header, maxSnapshotBytes)); code != http.StatusOK {
		t.Errorf("snapshot of maxSnapshotBytes: %d %s, want 200", code, resp)
	}
	over := io.MultiReader(damagedSnapshot(header, maxSnapshotBytes), strings.NewReader("x"))
	if code, resp := serve(h, http.MethodPut, "/v1/snapshot", over); code != http.StatusBadRequest {
		t.Errorf("snapshot of maxSnapshotBytes+1: %d %s, want 400", code, resp)
	}
}

// damagedSnapshot streams header followed by length-framed records of
// zero bytes, which no record decodes, to exactly n bytes in all.
func damagedSnapshot(header string, n int) io.Reader {
	zeros := make([]byte, 1<<20)
	parts := []io.Reader{strings.NewReader(header)}
	for rest := n - len(header); rest > 0; {
		blob := min(len(zeros), rest-8)
		if r := rest - 8 - blob; r > 0 && r < 8 {
			blob -= 8 // leave room for the next record's length
		}
		var length [8]byte
		binary.LittleEndian.PutUint64(length[:], uint64(blob))
		parts = append(parts, bytes.NewReader(length[:]), bytes.NewReader(zeros[:blob]))
		rest -= 8 + blob
	}
	return io.MultiReader(parts...)
}

// TestExemplarLatencyThreshold: on an endpoint without a latency SLO, a
// request of exactly exemplarLatency is not kept as an exemplar and one
// a nanosecond slower is.
func TestExemplarLatencyThreshold(t *testing.T) {
	srv := New(Config{Workers: 1, Telemetry: true, TelemetryInterval: time.Hour})
	defer srv.Shutdown(context.Background())
	if _, ok := srv.latThresh["infer"]; ok {
		t.Fatal("infer has a latency SLO; the fallback threshold is not what runs")
	}
	srv.maybeExemplar("infer", "t1", http.StatusOK, exemplarLatency)
	if n := srv.met.exemplars.Load(); n != 0 {
		t.Fatalf("a request of exactly exemplarLatency was kept (%d exemplars)", n)
	}
	srv.maybeExemplar("infer", "t2", http.StatusOK, exemplarLatency+time.Nanosecond)
	if n := srv.met.exemplars.Load(); n != 1 {
		t.Fatalf("a request past exemplarLatency was not kept (%d exemplars)", n)
	}
}
