package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// FuzzBatchRequest throws hostile bodies at the batch endpoints:
// malformed, truncated, and key-duplicated JSON, absurd fingerprints,
// and occasionally a well-formed batch. The invariants are liveness
// ones — the daemon never panics (ServeHTTP returning non-200 is fine,
// not returning is not), always answers a complete response, and never
// wedges the worker pool: after each input the goroutine count must
// come back to the baseline band, so no input can strand a runner or a
// worker. Runs in the CI fuzz-smoke job.
func FuzzBatchRequest(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"items":[{"source":"@sys\nclass C:\n    @op_initial_final\n    def a(self):\n        return []\n"}]}`),
		[]byte(`{"items":[]}`),
		[]byte(`{"items":null}`),
		[]byte(`{"items":[{}]}`),
		[]byte(`{"items":[{"fingerprint":"sha256:00"},{"fingerprint":"sha256:00"},{"fingerprint":"sha256:00"}]}`),
		[]byte(`{"items":[{"fingerprint":"sha256:` + strings.Repeat("ff", 4096) + `"}]}`),
		[]byte("{\"items\":[{\"fingerprint\":\"sha256:\x00\x01\x02\"}]}"),
		[]byte(`{"items":[{"source":"x","fingerprint":"sha256:mismatch"}]}`),
		[]byte(`{"items":[{"source":"x`),                              // truncated mid-string
		[]byte(`{"items":[{"source":"x"}],"items":[{"source":"y"}]}`), // duplicated key
		[]byte(`{"items":[{"id":"` + strings.Repeat("i", 1<<12) + `","class":"` + strings.Repeat("C", 1<<10) + `"}]}`),
		[]byte(`[[[[[[[[{"items":1}]]]]]]]]`),
		[]byte("\x00\xff\xfe\xfd"),
		{},
	}
	for _, s := range seeds {
		f.Add(s)
	}

	srv := New(Config{
		Workers: 2, QueueDepth: 8,
		RequestTimeout: 500 * time.Millisecond,
		Limits:         tightLimits(),
	})
	h := srv.Handler()
	runtime.GC()
	baseline := runtime.NumGoroutine()

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, path := range []string{"/v1/check-batch", "/v1/jobs"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
			req.Header.Set("Content-Type", "application/json")
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			if rr.Code == http.StatusOK && path == "/v1/check-batch" {
				// A 200 stream must be complete: its last line is the
				// terminal record, not a truncation.
				body := bytes.TrimRight(rr.Body.Bytes(), "\n")
				lines := bytes.Split(body, []byte("\n"))
				if last := lines[len(lines)-1]; !bytes.Contains(last, []byte(`"done":true`)) {
					t.Fatalf("batch stream ended without terminal record:\n%s", rr.Body.String())
				}
			}
		}
		// No input may wedge the pool or strand a job runner. Async
		// runners finish on their own (tight budget, short deadline), so
		// the count must return to the baseline band.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > baseline+32 {
			if time.Now().After(deadline) {
				t.Fatalf("goroutines = %d, baseline %d: input wedged the pool", runtime.NumGoroutine(), baseline)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}
