package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/obs"
)

// handleCheckBatch is POST /v1/check-batch: many check items in, one
// NDJSON record per item out, streamed (chunked, flushed per record)
// in completion order so a CI fleet or editor consumes results as each
// class finishes instead of after the slowest. Admission control runs
// before the header is committed: a refused batch is a clean 429/503
// with a jittered Retry-After. Once the 200 header is flushed the
// status code is spent, so every later failure — per-item errors, a
// canceled client, even a daemon drain — is representable only as a
// record; the terminal Done record is the client's proof the stream
// ended on purpose rather than on a cut wire.
func (s *Server) handleCheckBatch(w http.ResponseWriter, r *http.Request) int {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "2")
		return s.writeError(w, http.StatusServiceUnavailable, "daemon is draining")
	}
	var req client.BatchRequest
	if err := decodeBody(w, r, maxBatchBytes, &req); err != nil {
		return s.writeError(w, http.StatusBadRequest, err.Error())
	}
	if len(req.Items) == 0 {
		return s.writeError(w, http.StatusBadRequest, "batch needs at least one item")
	}
	if len(req.Items) > maxBatchItems {
		return s.writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf(
			"batch of %d exceeds the synchronous window of %d; submit it as an async job via POST /v1/jobs",
			len(req.Items), maxBatchItems))
	}
	release, status, retryAfter := s.adm.admit(clientKey(r), len(req.Items))
	if status != 0 {
		return s.refuseAdmission(w, "batch", len(req.Items), status, retryAfter)
	}
	defer release()
	if !s.addSubmitter() {
		w.Header().Set("Retry-After", "2")
		return s.writeError(w, http.StatusServiceUnavailable, "daemon is draining")
	}
	defer s.submitters.Done()
	s.met.batchItems.Add(uint64(len(req.Items)))

	// The stream runs under the request context merged with the
	// server's drain context: http.Server.Shutdown never cancels
	// r.Context(), so the drain arm is what unwinds a handler blocked
	// in a backpressure send when a shutdown budget expires — before
	// the pool closes its queue. The drain cause is preserved so the
	// overtaken items' records say the daemon drained, not that the
	// client hung up.
	ctx, cancel := context.WithCancelCause(r.Context())
	defer cancel(nil)
	stop := context.AfterFunc(s.drainCtx, func() { cancel(context.Cause(s.drainCtx)) })
	defer stop()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	flush()
	s.runBatch(ctx, req.Items, func(rec client.BatchRecord, stall bool) {
		s.writeRecord(w, rec)
		if stall {
			flush()
		}
	})
	return http.StatusOK
}

// writeRecord emits one NDJSON line with a single Write call, so
// records from interleaved streams can never corrupt each other's
// framing. Post-header write failures are counted, not surfaced — the
// client is gone and its context cancellation is already winding the
// batch down.
func (s *Server) writeRecord(w http.ResponseWriter, rec client.BatchRecord) {
	line, ok := appendRecord(make([]byte, 0, 64+len(rec.Check)+len(rec.Error)+len(rec.ID)), rec)
	if !ok {
		var err error
		line, err = json.Marshal(rec)
		if err != nil {
			// Unreachable for well-formed records (Check bytes come
			// from our own encoder), but a record must never kill the
			// stream.
			line, _ = json.Marshal(client.BatchRecord{
				Index: rec.Index, Status: http.StatusInternalServerError,
				Error: "encoding record: " + err.Error(),
			})
		}
	}
	if _, err := w.Write(append(line, '\n')); err != nil {
		s.met.writeErrors.Add(1)
	}
}

// appendRecord is the hot-path encoder of a batch record: it appends
// the exact bytes json.Marshal(rec) would produce, without running the
// reflection encoder or re-compacting the embedded Check body (which
// is already compact — it comes from our own json.Marshal). On a warm
// stream the record wrapper is most of the encoding work, so this is a
// direct throughput lever. Returns ok=false — caller falls back to
// json.Marshal — when a string field needs escaping the fast path does
// not implement. TestAppendRecordMatchesJSONMarshal pins the
// byte-for-byte agreement.
func appendRecord(b []byte, rec client.BatchRecord) ([]byte, bool) {
	var ok bool
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(rec.Index), 10)
	if rec.ID != "" {
		b = append(b, `,"id":`...)
		if b, ok = appendJSONString(b, rec.ID); !ok {
			return nil, false
		}
	}
	if rec.Status != 0 {
		b = append(b, `,"status":`...)
		b = strconv.AppendInt(b, int64(rec.Status), 10)
	}
	if len(rec.Check) != 0 {
		b = append(b, `,"check":`...)
		b = append(b, rec.Check...)
	}
	if rec.Error != "" {
		b = append(b, `,"error":`...)
		if b, ok = appendJSONString(b, rec.Error); !ok {
			return nil, false
		}
	}
	if rec.Done {
		b = append(b, `,"done":true`...)
	}
	if rec.Total != 0 {
		b = append(b, `,"total":`...)
		b = strconv.AppendInt(b, int64(rec.Total), 10)
	}
	if rec.Succeeded != 0 {
		b = append(b, `,"succeeded":`...)
		b = strconv.AppendInt(b, int64(rec.Succeeded), 10)
	}
	if rec.Failed != 0 {
		b = append(b, `,"failed":`...)
		b = strconv.AppendInt(b, int64(rec.Failed), 10)
	}
	return append(b, '}'), true
}

// appendJSONString appends s as a JSON string when it needs no
// escaping under encoding/json's rules (which also escape <, >, & for
// HTML safety); ok=false sends the caller to the reflection encoder.
func appendJSONString(b []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return nil, false
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), true
}

// runBatch verifies items with bounded pool fan-out, calling emit with
// one record per item in completion order and finally with the
// terminal summary record. emit runs on the calling goroutine — for
// the streaming handler that means each record is on the wire before
// the next sequential item starts, so a cancellation observed during a
// write deterministically overtakes every later item. emit's stall
// flag is true when no further record is already queued — the flush
// hint: a stalling stream flushes every record immediately, while a
// burst of back-to-back completions rides one flush, which is most of
// the batch endpoint's throughput edge over per-class requests. The
// caller owns ctx: cancellation stops admission of further items
// (already-launched work settles its response cell for any remaining
// waiters) and marks the rest canceled.
func (s *Server) runBatch(ctx context.Context, items []client.BatchItem, emit func(rec client.BatchRecord, stall bool)) {
	var succeeded, failed int
	record := func(rec client.BatchRecord, stall bool) {
		if rec.Status == http.StatusOK {
			succeeded++
		} else {
			failed++
			s.met.batchItemErrors.Add(1)
		}
		emit(rec, stall)
	}
	if s.cfg.Workers <= 1 {
		// Strictly sequential: records are emitted in item order, which
		// is what pins the wire format byte-for-byte in the golden
		// tests and keeps single-worker daemons fair. A record is a
		// stall point unless the next item is an instant body-cache hit
		// (or this is the last item, whose flush rides the terminal
		// record) — the stream still flushes before anything that might
		// pause, but an all-warm batch coalesces into a couple of
		// writes instead of one syscall per record.
		for i, it := range items {
			rec := s.batchItem(ctx, i, it)
			record(rec, i+1 < len(items) && !s.instantItem(items[i+1]))
		}
	} else {
		// Full buffering means producers never block handing over a
		// record, and len(recs) is an honest "more already waiting"
		// signal for the flush hint. One launcher starts each item's
		// goroutine only once it holds one of the Workers slots, so a
		// batch parks at most Workers goroutines however many items it
		// has.
		recs := make(chan client.BatchRecord, len(items))
		go func() {
			sem := make(chan struct{}, s.cfg.Workers)
			var wg sync.WaitGroup
			for i, it := range items {
				sem <- struct{}{}
				wg.Add(1)
				go func() {
					defer wg.Done()
					recs <- s.batchItem(ctx, i, it)
					<-sem
				}()
			}
			wg.Wait()
			close(recs)
		}()
		for rec := range recs {
			record(rec, len(recs) == 0)
		}
	}
	term := client.BatchRecord{Done: true, Total: len(items), Succeeded: succeeded, Failed: failed}
	if ctx.Err() != nil {
		s.met.batchCanceled.Add(1)
		// Cause over Err: a drain-expiry cancellation names errDraining
		// instead of the generic "context canceled".
		term.Error = "batch canceled: " + context.Cause(ctx).Error()
	}
	emit(term, true)
}

// instantItem reports whether it will resolve without pausing the
// stream: a fingerprint-only item whose response is a kept 200 body on
// its resident module. Conservative by construction — any item carrying
// source (hashing, maybe loading) or without a kept body counts as
// slow, so the flush hint errs toward flushing.
func (s *Server) instantItem(it client.BatchItem) bool {
	if it.Source != "" || it.Fingerprint == "" {
		return false
	}
	e := s.modules.settled(it.Fingerprint)
	return e != nil && e.kept(checkKey(it.Fingerprint, it.Class, it.Precise))
}

// batchItem verifies one item and returns its record. It runs the same
// answerCheck as /v1/check, so a batch item and a single check of the
// same work are byte-identical and share one response cell. The one
// divergence is submission discipline: items block on a full queue
// (backpressure) instead of shedding.
func (s *Server) batchItem(ctx context.Context, idx int, it client.BatchItem) client.BatchRecord {
	rec := client.BatchRecord{Index: idx, ID: it.ID}
	if ctx.Err() != nil {
		return s.canceledRecord(rec, ctx)
	}
	ctx, span := obs.Start(ctx, "batch.item", obs.Int("index", idx))
	defer span.End()
	switch {
	case it.Source == "" && it.Fingerprint == "":
		rec.Status, rec.Error = http.StatusBadRequest, "item needs source or fingerprint"
		return rec
	case len(it.Source) > maxSourceBytes:
		rec.Status, rec.Error = http.StatusRequestEntityTooLarge, "item source exceeds the per-source byte limit"
		return rec
	}
	rep, err := s.answerCheck(ctx, client.CheckRequest{
		Source: it.Source, Fingerprint: it.Fingerprint, Class: it.Class, Precise: it.Precise,
	}, true)
	if err != nil {
		// This item's stream went away; a shared computation continues
		// for any other waiters.
		return s.canceledRecord(rec, ctx)
	}
	rec.Status = rep.status
	switch {
	case rep.status == http.StatusOK:
		rec.Check = json.RawMessage(rep.body)
	case rep.body == nil:
		rec.Error = rep.msg
	default:
		var e client.ErrorResponse
		if json.Unmarshal(rep.body, &e) == nil && e.Error != "" {
			rec.Error = e.Error
		} else {
			rec.Error = string(rep.body)
		}
	}
	return rec
}

// canceledRecord fills rec for an item overtaken by its stream's end:
// 499 (client closed request) for cancellation, 504 for a deadline,
// 503 when a drain's budget expired first.
func (s *Server) canceledRecord(rec client.BatchRecord, ctx context.Context) client.BatchRecord {
	switch {
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		rec.Status = http.StatusGatewayTimeout
		rec.Error = "deadline exceeded before this item completed"
	case errors.Is(context.Cause(ctx), errDraining):
		rec.Status = http.StatusServiceUnavailable
		rec.Error = "daemon drained before this item completed"
	default:
		rec.Status = 499 // client closed request (nginx convention)
		rec.Error = "client canceled before this item completed"
	}
	return rec
}
