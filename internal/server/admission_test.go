package server

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shelley-go/shelley/client"
)

// TestAdmitNeverAdmissibleIsTerminal pins the admission taxonomy: a
// charge that can never fit — larger than the global window or the
// per-client share even when both are empty — answers a terminal 413
// with no Retry-After hint, while ordinary over-load refusals stay
// retryable 429/503 with a hint.
func TestAdmitNeverAdmissibleIsTerminal(t *testing.T) {
	var rejected atomic.Uint64
	var gauge atomic.Int64
	a := newAdmission(4, 8, &rejected, &gauge)

	release, status, retryAfter := a.admit("c", 9) // > maxTotal
	if release != nil || status != http.StatusRequestEntityTooLarge || retryAfter != 0 {
		t.Fatalf("n>maxTotal: release=%v status=%d retryAfter=%d, want nil/413/0", release != nil, status, retryAfter)
	}
	release, status, retryAfter = a.admit("c", 5) // > maxClient, <= maxTotal
	if release != nil || status != http.StatusRequestEntityTooLarge || retryAfter != 0 {
		t.Fatalf("n>maxClient: release=%v status=%d retryAfter=%d, want nil/413/0", release != nil, status, retryAfter)
	}
	if got := rejected.Load(); got != 2 {
		t.Fatalf("rejected = %d, want 2", got)
	}
	if got := gauge.Load(); got != 0 {
		t.Fatalf("inflight gauge = %d after terminal refusals, want 0", got)
	}

	// An admissible charge refused only by current load keeps the
	// retryable contract: 429 per-client with a positive hint.
	rel, status, _ := a.admit("c", 4)
	if status != 0 {
		t.Fatalf("admissible charge refused with %d", status)
	}
	if _, status, retryAfter = a.admit("c", 4); status != http.StatusTooManyRequests || retryAfter < 1 {
		t.Fatalf("share full: status=%d retryAfter=%d, want 429 with hint >= 1", status, retryAfter)
	}
	// And further clients squeezed by the global window get 503 for a
	// charge that would fit an empty window.
	rel2, status, _ := a.admit("d", 4)
	if status != 0 {
		t.Fatalf("second client's admissible charge refused with %d", status)
	}
	if _, status, retryAfter = a.admit("e", 1); status != http.StatusServiceUnavailable || retryAfter < 1 {
		t.Fatalf("window full: status=%d retryAfter=%d, want 503 with hint >= 1", status, retryAfter)
	}
	rel()
	rel2()
}

// TestNeverAdmissibleBatchDoesNotRetry drives the whole trail a
// compliant retrying client follows with a batch that can never be
// admitted, one item past maxBatchItems: it gets a terminal 413 that
// client.WithRetry does not loop on — exactly one attempt reaches the
// daemon, and it never reaches admission.
func TestNeverAdmissibleBatchDoesNotRetry(t *testing.T) {
	srv, cl := startServer(t, Config{Workers: 2})
	bcl := client.New("http://"+srv.Addr(),
		client.WithRetry(client.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond}))

	items := make([]client.BatchItem, maxBatchItems+1)
	for i := range items {
		items[i] = client.BatchItem{Fingerprint: "sha256:deadbeef"}
	}
	_, err := bcl.CheckBatch(context.Background(), client.BatchRequest{Items: items})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("never-admissible batch: %v, want 413", err)
	}
	if apiErr.RetryAfter != 0 {
		t.Fatalf("413 carried Retry-After %v; a terminal refusal must not hint at retrying", apiErr.RetryAfter)
	}
	if apiErr.Temporary() {
		t.Fatal("413 must not be Temporary — WithRetry would loop on it")
	}

	// The retrying client made exactly one attempt.
	v, ok, err := cl.MetricValue(context.Background(), `shelleyd_requests_total{endpoint="check-batch",code="413"}`)
	if err != nil || !ok {
		t.Fatalf("reading request counter: ok=%v err=%v", ok, err)
	}
	if v != 1 {
		t.Fatalf("413 answers = %v, want exactly 1 (the client looped)", v)
	}
}
