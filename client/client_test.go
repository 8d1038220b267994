package client

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/internal/obs"
)

func TestFingerprintStableAndDistinct(t *testing.T) {
	a, b := Fingerprint("class A: pass"), Fingerprint("class B: pass")
	if a == b {
		t.Error("distinct sources must fingerprint differently")
	}
	if a != Fingerprint("class A: pass") {
		t.Error("fingerprint must be deterministic")
	}
	if !strings.HasPrefix(a, "sha256:") {
		t.Errorf("fingerprint %q lacks algorithm prefix", a)
	}
	// The hash runs through a fixed-size buffer: check it on every
	// boundary against a one-shot hash of the bytes.
	for _, n := range []int{0, 1, 511, 512, 513, 1024, 5000} {
		src := strings.Repeat("x", n)
		sum := sha256.Sum256([]byte(src))
		if got, want := Fingerprint(src), "sha256:"+hex.EncodeToString(sum[:]); got != want {
			t.Errorf("length %d: fingerprint %s, want %s", n, got, want)
		}
	}
}

func TestParseMetric(t *testing.T) {
	exposition := `# HELP shelleyd_coalesced_total x
# TYPE shelleyd_coalesced_total counter
shelleyd_coalesced_total 7
shelleyd_requests_total{endpoint="check",code="200"} 41
shelleyd_queue_depth 0
shelleyd_request_seconds_bucket{endpoint="check",le="0.001"} 12
shelleyd_request_seconds_bucket{endpoint="check",le="+Inf"} 30
shelleyd_request_seconds_sum{endpoint="check"} 0.42
shelleyd_pipeline_hit_ratio 0.875
shelleyd_broken_metric notanumber
shelleyd_no_value
`
	tests := []struct {
		name   string
		metric string
		want   float64
		wantOK bool
	}{
		{"plain counter", "shelleyd_coalesced_total", 7, true},
		{"labeled counter", `shelleyd_requests_total{endpoint="check",code="200"}`, 41, true},
		{"zero-valued gauge", "shelleyd_queue_depth", 0, true},
		{"histogram bucket", `shelleyd_request_seconds_bucket{endpoint="check",le="0.001"}`, 12, true},
		{"histogram +Inf bucket", `shelleyd_request_seconds_bucket{endpoint="check",le="+Inf"}`, 30, true},
		{"histogram sum (float)", `shelleyd_request_seconds_sum{endpoint="check"}`, 0.42, true},
		{"fractional gauge", "shelleyd_pipeline_hit_ratio", 0.875, true},
		{"absent metric", "absent_metric", 0, false},
		{"name prefix must not match", "shelleyd_coalesced", 0, false},
		{"comment lines are not metrics", "# HELP shelleyd_coalesced_total x", 0, false},
		{"malformed value", "shelleyd_broken_metric", 0, false},
		{"line without value", "shelleyd_no_value", 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v, ok := ParseMetric(exposition, tt.metric)
			if ok != tt.wantOK || v != tt.want {
				t.Errorf("ParseMetric(%q) = %v, %v; want %v, %v", tt.metric, v, ok, tt.want, tt.wantOK)
			}
		})
	}
	if _, ok := ParseMetric("", "anything"); ok {
		t.Error("empty exposition must report !ok")
	}
}

// traceEcho is a stub daemon that records the request trace header and
// echoes (or overrides) it in the response.
func traceEcho(t *testing.T, override string) (*Client, *string) {
	t.Helper()
	var got string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get("X-Shelley-Trace")
		id := got
		if override != "" {
			id = override
		}
		w.Header().Set("X-Shelley-Trace", id)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(CheckResponse{Fingerprint: "sha256:x", OK: true})
	}))
	t.Cleanup(srv.Close)
	return New(srv.URL), &got
}

func TestPostGeneratesTraceHeader(t *testing.T) {
	cl, got := traceEcho(t, "")
	resp, err := cl.Check(context.Background(), CheckRequest{Source: "class A: pass"})
	if err != nil {
		t.Fatal(err)
	}
	if *got == "" {
		t.Fatal("client sent no X-Shelley-Trace header")
	}
	if len(*got) != 32 {
		t.Errorf("generated trace ID %q is not 32 hex chars", *got)
	}
	if resp.TraceID != *got {
		t.Errorf("response TraceID = %q, want the sent ID %q", resp.TraceID, *got)
	}
}

func TestPostPropagatesActiveSpanTrace(t *testing.T) {
	cl, got := traceEcho(t, "")
	tr := obs.New(obs.WithDeterministicIDs())
	ctx := obs.ContextWithTracer(context.Background(), tr)
	ctx, span := obs.Start(ctx, "caller")
	defer span.End()

	if _, err := cl.Check(ctx, CheckRequest{Source: "class A: pass"}); err != nil {
		t.Fatal(err)
	}
	if *got != span.TraceID() {
		t.Errorf("sent trace %q, want the active span's trace %q", *got, span.TraceID())
	}
}

func TestResponseExposesServerAssignedTraceID(t *testing.T) {
	cl, _ := traceEcho(t, "server-chose-this")
	resp, err := cl.Check(context.Background(), CheckRequest{Source: "class A: pass"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != "server-chose-this" {
		t.Errorf("TraceID = %q, want the server-assigned ID", resp.TraceID)
	}
}

func TestTraceIDStaysOutOfWireBody(t *testing.T) {
	resp := CheckResponse{ResponseMeta: ResponseMeta{TraceID: "secret"}, Fingerprint: "sha256:x"}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "secret") || strings.Contains(string(b), "TraceID") {
		t.Errorf("TraceID leaked into JSON body: %s", b)
	}
}

func TestAPIErrorRendering(t *testing.T) {
	err := &APIError{StatusCode: 503, Message: "queue saturated"}
	for _, want := range []string{"503", "queue saturated"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err.Error(), want)
		}
	}
}
