package server

import (
	"context"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/mine"
	"github.com/shelley-go/shelley/internal/obs"
)

// handleIngest is POST /v1/ingest: one NDJSON frame of trace
// observations ({class_fp, device, events, status} per line). The whole
// frame is decoded (bounded by maxIngestBytes, per-line caps inside),
// admitted as a unit against the ingest admission window, then appended
// to the per-class corpora. Nothing here ever blocks on mining or on a
// full buffer: admission refusal is a clean 429/503 with Retry-After,
// corpus overflow is shed-and-count, and malformed lines are skipped so
// one buggy reporter cannot poison a fleet's frame.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) int {
	if s.miner == nil {
		return s.writeError(w, http.StatusNotFound, "mining disabled; start shelleyd with -mine")
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", "2")
		return s.writeError(w, http.StatusServiceUnavailable, "daemon is draining")
	}
	var evs []mine.Event
	charge := 0
	st, err := mine.DecodeFrame(http.MaxBytesReader(w, r.Body, maxIngestBytes), mine.DecodeLimits{}, func(ev mine.Event) {
		evs = append(evs, ev)
		charge += max(1, len(ev.Events))
	})
	if err != nil {
		return s.writeError(w, http.StatusBadRequest, "reading ingest frame: "+err.Error())
	}
	release, status, retryAfter := s.ingestAdm.admit(clientKey(r), charge)
	if status != 0 {
		return s.refuseAdmission(w, "ingest", charge, status, retryAfter)
	}
	defer release()
	resp := client.IngestResponse{Received: len(evs), Malformed: st.Malformed, Oversize: st.Oversize}
	for i := range evs {
		if s.miner.Ingest(evs[i]).Accepted {
			resp.Accepted++
		} else {
			resp.Shed++
		}
	}
	code, body := jsonBody(resp)
	return s.writeRaw(w, code, body)
}

// handleDrift is GET /v1/drift: every tracked class's current drift
// report, optionally filtered to one class fingerprint (?class=).
// Reports are served from the last completed mining round — the handler
// never learns, so drift is always a cheap read.
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) int {
	if s.miner == nil {
		return s.writeError(w, http.StatusNotFound, "mining disabled; start shelleyd with -mine")
	}
	reports := s.miner.Reports()
	if class := r.URL.Query().Get("class"); class != "" {
		filtered := reports[:0]
		for _, rep := range reports {
			if rep.ClassFP == class {
				filtered = append(filtered, rep)
			}
		}
		reports = filtered
	}
	code, body := jsonBody(client.DriftResponse{Reports: reports})
	return s.writeRaw(w, code, body)
}

// mineLoop is the background learner: every MineInterval it re-mines
// the classes whose observed language grew and re-diffs them against
// the static models. It exits when mineCtx is canceled (Shutdown).
func (s *Server) mineLoop() {
	defer close(s.mineDone)
	t := time.NewTicker(s.cfg.MineInterval)
	defer t.Stop()
	for {
		select {
		case <-s.mineCtx.Done():
			return
		case <-t.C:
			s.mineOnce()
		}
	}
}

// mineOnce runs one mining round under the daemon's resource budget and
// request timeout, wrapped in its own root span so round latency and
// per-class learning cost land in the trace ring alongside request
// spans.
func (s *Server) mineOnce() mine.RoundStats {
	ctx, cancel := context.WithTimeout(s.mineCtx, s.cfg.RequestTimeout)
	defer cancel()
	ctx = budget.With(ctx, s.cfg.Limits)
	var span *obs.Span
	if s.tracer != nil {
		ctx, span = s.tracer.StartRoot(ctx, "mine.round", obs.NewTraceID())
	}
	start := time.Now()
	st := s.miner.MineRound(ctx, s.resolveStatic)
	span.SetAttr(obs.Int("mined", st.Mined), obs.Int("skipped", st.Skipped), obs.Int("errors", st.Errors))
	span.End()
	if s.logger != nil && (st.Mined > 0 || st.Errors > 0) {
		s.logger.LogAttrs(ctx, slog.LevelInfo, "mine round",
			slog.Int("mined", st.Mined),
			slog.Int("skipped", st.Skipped),
			slog.Int("errors", st.Errors),
			slog.Duration("duration", time.Since(start)))
	}
	return st
}

// stopMiner cancels the mining loop (aborting any round in progress)
// and waits for it to exit. Idempotent; a no-op on daemons without
// mining.
func (s *Server) stopMiner() {
	if s.miner == nil {
		return
	}
	s.mineStopOnce.Do(s.mineCancel)
	<-s.mineDone
}

// resolveStatic maps a class fingerprint ("<module-fp>/<Class>") to its
// statically inferred specification DFA. Only settled resident modules
// resolve — the miner must never trigger a module load — so a class
// whose module was evicted (or never uploaded) reports no-static-model
// until a check request brings the module back.
func (s *Server) resolveStatic(classFP string) (*automata.DFA, bool) {
	slash := strings.IndexByte(classFP, '/')
	if slash <= 0 {
		return nil, false
	}
	fp, class := classFP[:slash], classFP[slash+1:]
	e := s.modules.settled(fp)
	if e == nil {
		return nil, false
	}
	cls, ok := e.mod.Class(class)
	if !ok {
		return nil, false
	}
	spec, err := cls.SpecDFA("")
	if err != nil {
		return nil, false
	}
	return spec, true
}
