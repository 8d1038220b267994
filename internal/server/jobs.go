package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/obs"
)

// errJobsFull means the job store is at capacity with every retained
// job still running — nothing is evictable, so submission must wait.
var errJobsFull = errors.New("server: job store full")

// jobState is one async batch job: an append-only record log plus a
// change broadcast, so pollers snapshot progress and streamers tail the
// log live without the runner ever blocking on a slow reader.
type jobState struct {
	id    string
	total int

	mu      sync.Mutex
	records []client.BatchRecord
	failed  int
	done    bool
	summary client.BatchRecord

	// changed is closed and replaced on every append, and closed for
	// good at finish — a waiter holding the old channel wakes exactly
	// once per state change it hasn't seen.
	changed chan struct{}
}

func newJob(id string, total int) *jobState {
	return &jobState{id: id, total: total, changed: make(chan struct{})}
}

func (j *jobState) append(rec client.BatchRecord) {
	j.mu.Lock()
	j.records = append(j.records, rec)
	if rec.Status != http.StatusOK {
		j.failed++
	}
	ch := j.changed
	j.changed = make(chan struct{})
	j.mu.Unlock()
	close(ch)
}

func (j *jobState) finish(summary client.BatchRecord) {
	j.mu.Lock()
	j.done = true
	j.summary = summary
	ch := j.changed
	j.mu.Unlock()
	// Left closed permanently: late streamers wake immediately and see
	// done on their next view.
	close(ch)
}

// view returns the records from index from onward, completion state,
// and the channel that closes on the next change. The returned slice
// aliases the log (entries are never mutated after append).
func (j *jobState) view(from int) (recs []client.BatchRecord, done bool, summary client.BatchRecord, ch <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.records) {
		recs = j.records[from:]
	}
	return recs, j.done, j.summary, j.changed
}

func (j *jobState) isDone() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// status snapshots the job as a poll body.
func (j *jobState) status(withRecords bool) client.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := client.JobStatus{
		Job:       j.id,
		State:     "running",
		Total:     j.total,
		Completed: len(j.records),
		Failed:    j.failed,
	}
	if j.done {
		st.State = "done"
	}
	if withRecords {
		st.Records = append([]client.BatchRecord(nil), j.records...)
	}
	return st
}

// jobStore retains jobs by ID, bounded by max: at capacity, the oldest
// completed job is evicted to admit a new one; when every retained job
// is still running, submission is refused (errJobsFull → 503).
type jobStore struct {
	mu    sync.Mutex
	max   int
	m     map[string]*jobState
	order []string
}

func newJobStore(max int) *jobStore {
	return &jobStore{max: max, m: make(map[string]*jobState)}
}

func (s *jobStore) add(j *jobState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.m) >= s.max {
		evicted := false
		for i, id := range s.order {
			if s.m[id].isDone() {
				delete(s.m, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return errJobsFull
		}
	}
	s.m[j.id] = j
	s.order = append(s.order, j.id)
	return nil
}

func (s *jobStore) get(id string) *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[id]
}

// handleJobSubmit is POST /v1/jobs: the async mode for batches past the
// synchronous window. The request is validated like /v1/check-batch and
// admitted against the same per-client/global budgets (so a client's
// jobs and streams share one share), answered 202 with a job ID
// immediately, and run by a daemon-owned goroutine that survives the
// submitting connection. Results accumulate in the job's record log for
// GET /v1/jobs/{id} to poll or stream.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) int {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "2")
		return s.writeError(w, http.StatusServiceUnavailable, "daemon is draining")
	}
	var req client.BatchRequest
	if err := decodeBody(w, r, maxBatchBytes, &req); err != nil {
		return s.writeError(w, http.StatusBadRequest, err.Error())
	}
	if len(req.Items) == 0 {
		return s.writeError(w, http.StatusBadRequest, "job needs at least one item")
	}
	if len(req.Items) > maxJobItems {
		return s.writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf(
			"job of %d exceeds the per-job limit of %d; split it",
			len(req.Items), maxJobItems))
	}
	// A job's admission charge is its peak pool occupancy, not its item
	// count: runBatch runs at most Workers of a job's items at once, the
	// rest waiting in the runner, so that is what the job can take from
	// the pool. Capped to the client share, the charge is admissible on
	// an idle daemon whatever Workers is; charging the full count would
	// make every job past maxClientItems permanently refusable, a
	// 429/503 whose Retry-After can never succeed.
	charge := min(len(req.Items), s.cfg.Workers, maxClientItems)
	release, status, retryAfter := s.adm.admit(clientKey(r), charge)
	if status != 0 {
		return s.refuseAdmission(w, "batch", charge, status, retryAfter)
	}
	if !s.addSubmitter() {
		release()
		w.Header().Set("Retry-After", "2")
		return s.writeError(w, http.StatusServiceUnavailable, "daemon is draining")
	}
	id := "job-" + obs.NewTraceID()[:16]
	js := newJob(id, len(req.Items))
	if err := s.jobs.add(js); err != nil {
		s.submitters.Done()
		release()
		w.Header().Set("Retry-After", "2")
		return s.writeError(w, http.StatusServiceUnavailable,
			"job store full (every retained job still running); retry after backoff")
	}
	s.met.jobsSubmitted.Add(1)
	s.met.jobsActive.Add(1)
	s.met.batchItems.Add(uint64(len(req.Items)))

	// The runner outlives this request: it runs under drainCtx
	// (canceled only when a drain's budget expires) with the
	// submitter's trace re-attached, and holds its admission charge
	// until the last record. It was registered as a submitter above, so
	// Shutdown waits for it before closing the pool.
	carrier := obs.Carry(r.Context())
	go func() {
		defer s.submitters.Done()
		defer release()
		defer s.met.jobsActive.Add(-1)
		s.runBatch(carrier.Context(s.drainCtx), req.Items, func(rec client.BatchRecord, _ bool) {
			if rec.Done {
				js.finish(rec)
			} else {
				js.append(rec)
			}
		})
	}()

	body, err := json.Marshal(client.JobAccepted{Job: id, Total: len(req.Items)})
	if err != nil {
		return s.writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
	}
	return s.writeRaw(w, http.StatusAccepted, body)
}

// handleJobGet is GET /v1/jobs/{id}: a progress snapshot by default
// (?records=1 to include accumulated records), or a live NDJSON tail
// with ?stream=1 — replay everything recorded so far, then follow until
// the terminal record, exactly the wire format of /v1/check-batch.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) int {
	js := s.jobs.get(r.PathValue("id"))
	if js == nil {
		return s.writeError(w, http.StatusNotFound, "job not found (evicted or never existed)")
	}
	if r.URL.Query().Get("stream") == "1" {
		return s.streamJob(w, r, js)
	}
	body, err := json.Marshal(js.status(r.URL.Query().Get("records") == "1"))
	if err != nil {
		return s.writeError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
	}
	return s.writeRaw(w, http.StatusOK, body)
}

func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, js *jobState) int {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	flush()
	next := 0
	for {
		recs, done, summary, changed := js.view(next)
		for _, rec := range recs {
			s.writeRecord(w, rec)
		}
		next += len(recs)
		if len(recs) > 0 {
			flush()
		}
		if done {
			s.writeRecord(w, summary)
			flush()
			return http.StatusOK
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			// The tailer went away; the job keeps running — another
			// stream or poll can pick it up where this one stopped.
			// Counted apart from batchCanceled, which is reserved for
			// streams whose abandonment actually cancels work.
			s.met.jobStreamDetached.Add(1)
			return http.StatusOK
		}
	}
}
