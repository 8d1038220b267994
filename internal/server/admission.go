package server

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// admission is the per-client fairness gate in front of the batch
// machinery. The worker pool bounds total concurrency; admission
// bounds who gets to occupy it: every batch (sync stream or async job)
// is admitted or refused as a whole, charged against its client's
// in-flight share — a sync batch for its full item count, an async job
// for its peak pool occupancy (see handleJobSubmit) — so one noisy
// client replaying thousand-item batches saturates its own share and
// starts drawing 429s while other clients' batches keep flowing into
// the pool untouched.
//
// Clients are keyed by the X-Shelley-Client token when they send one,
// falling back to the remote host — tokens let fleets behind one NAT
// or proxy get separate shares, and let one logical tenant spread over
// many connections share a single budget.
type admission struct {
	mu       sync.Mutex
	inflight map[string]int
	total    int

	// maxClient bounds one client's in-flight items (429 beyond);
	// maxTotal bounds everyone's (503 beyond — the daemon itself is
	// the bottleneck, not this client).
	maxClient int
	maxTotal  int

	rnd *rand.Rand

	// rejected and inflightGauge are the instance's metric hooks —
	// injected rather than hardwired so the batch and ingest admission
	// instances report into distinct metric families.
	rejected      *atomic.Uint64
	inflightGauge *atomic.Int64
}

func newAdmission(maxClient, maxTotal int, rejected *atomic.Uint64, inflightGauge *atomic.Int64) *admission {
	return &admission{
		inflight:      make(map[string]int),
		maxClient:     maxClient,
		maxTotal:      maxTotal,
		rnd:           rand.New(rand.NewSource(rand.Int63())),
		rejected:      rejected,
		inflightGauge: inflightGauge,
	}
}

// admit charges n items to key. On success it returns release (call
// exactly once, after the batch's last record) and status 0. On
// refusal it returns the status to answer — 429 per-client or 503
// global, each with a jittered Retry-After hint in seconds, or a
// terminal 413 (retryAfter 0, no hint) for a charge that could never
// be admitted no matter how long the client waits.
func (a *admission) admit(key string, n int) (release func(), status, retryAfter int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	// A charge larger than the whole global window (or the per-client
	// share, which every admission must also fit inside) is never
	// admissible: the windows are empty at their largest, so a retryable
	// refusal with a Retry-After would send a compliant client into a
	// loop that cannot succeed. Answer terminally instead.
	if n > a.maxTotal || n > a.maxClient {
		a.rejected.Add(1)
		return nil, http.StatusRequestEntityTooLarge, 0
	}
	if a.total+n > a.maxTotal {
		a.rejected.Add(1)
		return nil, http.StatusServiceUnavailable, a.backoffLocked(2)
	}
	if a.inflight[key]+n > a.maxClient {
		a.rejected.Add(1)
		return nil, http.StatusTooManyRequests, a.backoffLocked(1)
	}
	a.inflight[key] += n
	a.total += n
	a.inflightGauge.Add(int64(n))
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.inflight[key] -= n
			if a.inflight[key] <= 0 {
				delete(a.inflight, key)
			}
			a.total -= n
			a.mu.Unlock()
			a.inflightGauge.Add(-int64(n))
		})
	}, 0, 0
}

// backoffLocked computes a Retry-After hint: base seconds scaled by
// current occupancy, plus uniform jitter so a fleet of refused clients
// spreads its retries instead of stampeding back in lockstep.
func (a *admission) backoffLocked(base int) int {
	load := 0
	if a.maxTotal > 0 {
		load = 2 * a.total / a.maxTotal // 0..2 as the window fills
	}
	return base + load + a.rnd.Intn(2*base+1)
}

// refuseAdmission answers a charge of unit ("batch" or "ingest") that
// admit refused with status: 429 when the client's share is spent and
// 503 when the global window is, both with a jittered Retry-After, or a
// terminal 413 without one for a charge no window can ever hold. Only
// an ingest frame can be that large: a batch charges at most
// maxBatchItems and a job at most maxClientItems.
func (s *Server) refuseAdmission(w http.ResponseWriter, unit string, charge, status, retryAfter int) int {
	msg := "per-client " + unit + " share exhausted; retry after backoff"
	switch status {
	case http.StatusServiceUnavailable:
		msg = unit + " window saturated; retry after backoff"
	case http.StatusRequestEntityTooLarge:
		msg = fmt.Sprintf("%s charge of %d exceeds the admission window and can never be admitted; split it", unit, charge)
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	return s.writeError(w, status, msg)
}

// clientKey identifies the requester for admission accounting.
func clientKey(r *http.Request) string {
	if tok := r.Header.Get("X-Shelley-Client"); tok != "" {
		return "token:" + tok
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return "addr:" + r.RemoteAddr
	}
	return "addr:" + host
}
