package server

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/check"
)

// The watch subsystem is the daemon face of shelley.Session: named,
// long-lived incremental re-verification sessions for edit loops. An
// editor POSTs each save to /v1/watch; the daemon diffs it against the
// session's resident generation at method granularity, re-verifies only
// the classes the diff invalidates (the daemon's shared analysis cache
// answers everything else), and publishes the round — full report set,
// diff, and reuse counters — both as the POST response and to every
// long-poller parked on GET /v1/watch. Off by default; the endpoints
// answer 404 without Config.Watch.

// watchSession is one named session: a shelley.Session plus the
// publish state its long-pollers wait on.
type watchSession struct {
	name string
	sess *shelley.Session

	// runMu serializes push rounds end to end (re-check, sequence
	// assignment, publish), so updates publish in re-check order.
	runMu sync.Mutex

	// pubMu guards the published state below. seq is the generation
	// counter (1 = first push); body the latest round's 200 bytes;
	// notify is closed and replaced on each publish; gone is closed
	// when the session is evicted.
	pubMu    sync.Mutex
	seq      uint64
	body     []byte
	notify   chan struct{}
	gone     chan struct{}
	lastUsed time.Time
}

// watchStore tracks the daemon's watch sessions, bounded by
// MaxWatchSessions with least-recently-used eviction (an evicted
// session's pollers wake with 404; its editor's next push recreates it
// cold).
type watchStore struct {
	mu       sync.Mutex
	max      int
	cache    *shelley.Cache
	sessions map[string]*watchSession
	evicted  *atomic.Uint64
	live     *atomic.Int64
}

func newWatchStore(max int, cache *shelley.Cache, evicted *atomic.Uint64, live *atomic.Int64) *watchStore {
	return &watchStore{
		max:      max,
		cache:    cache,
		sessions: make(map[string]*watchSession),
		evicted:  evicted,
		live:     live,
	}
}

// get returns the named session, creating it (and evicting the
// least-recently-used one past the bound) when create is set.
func (st *watchStore) get(name string, create bool) *watchSession {
	st.mu.Lock()
	defer st.mu.Unlock()
	ws := st.sessions[name]
	if ws != nil || !create {
		if ws != nil {
			ws.touch()
		}
		return ws
	}
	if len(st.sessions) >= st.max {
		var oldest *watchSession
		for _, cand := range st.sessions {
			if oldest == nil || cand.lastUsedLocked().Before(oldest.lastUsedLocked()) {
				oldest = cand
			}
		}
		delete(st.sessions, oldest.name)
		close(oldest.gone)
		st.evicted.Add(1)
		st.live.Add(-1)
	}
	ws = &watchSession{
		name:     name,
		sess:     st.cache.NewSession(),
		notify:   make(chan struct{}),
		gone:     make(chan struct{}),
		lastUsed: time.Now(),
	}
	st.sessions[name] = ws
	st.live.Add(1)
	return ws
}

func (ws *watchSession) touch() {
	ws.pubMu.Lock()
	ws.lastUsed = time.Now()
	ws.pubMu.Unlock()
}

func (ws *watchSession) lastUsedLocked() time.Time {
	ws.pubMu.Lock()
	defer ws.pubMu.Unlock()
	return ws.lastUsed
}

// publish assigns the round its sequence number, stores the rendered
// body, and wakes every parked long-poller.
func (ws *watchSession) publish(render func(seq uint64) []byte) {
	ws.pubMu.Lock()
	defer ws.pubMu.Unlock()
	ws.seq++
	ws.body = render(ws.seq)
	ws.lastUsed = time.Now()
	close(ws.notify)
	ws.notify = make(chan struct{})
}

// snapshot returns the published state a poller decides on.
func (ws *watchSession) snapshot() (seq uint64, body []byte, notify <-chan struct{}) {
	ws.pubMu.Lock()
	defer ws.pubMu.Unlock()
	return ws.seq, ws.body, ws.notify
}

// wireDiff converts a session diff to its wire form.
func wireDiff(d shelley.Diff) client.WatchDiff {
	out := client.WatchDiff{
		Initial:         d.Initial,
		Added:           d.Added,
		Removed:         d.Removed,
		Changed:         d.Changed,
		Unchanged:       d.Unchanged,
		ProtocolChanged: d.ProtocolChanged,
		Invalidated:     d.Invalidated,
	}
	for name, md := range d.Methods {
		edited := append(append([]string(nil), md.Changed...), md.Added...)
		if len(edited) == 0 {
			continue
		}
		if out.ChangedMethods == nil {
			out.ChangedMethods = make(map[string][]string, len(d.Methods))
		}
		out.ChangedMethods[name] = edited
	}
	return out
}

// handleWatchPost runs one push round straight on the worker pool,
// never through a response cell: watch rounds mutate session state, so
// sharing one execution between two pushes would silently drop a
// generation.
func (s *Server) handleWatchPost(w http.ResponseWriter, r *http.Request) int {
	if s.watch == nil {
		return s.writeError(w, http.StatusNotFound, "watch mode disabled; start shelleyd with -watch")
	}
	var req client.WatchRequest
	if err := decodeBody(w, r, maxSourceBytes, &req); err != nil {
		return s.writeError(w, http.StatusBadRequest, err.Error())
	}
	if req.Session == "" {
		return s.writeError(w, http.StatusBadRequest, "watch needs a session name")
	}
	if req.Source == "" {
		return s.writeError(w, http.StatusBadRequest, "watch needs source (there is no fingerprint-only form)")
	}
	ws := s.watch.get(req.Session, true)
	c := newCell()
	s.submit(r.Context(), false, s.watchFn(ws, req), c.resolve)
	rep, err := s.await(r.Context(), c)
	return s.respond(w, r, rep, err)
}

// watchFn is the pooled body of one push round: incremental re-check,
// publish, respond.
func (s *Server) watchFn(ws *watchSession, req client.WatchRequest) func(ctx context.Context) (int, []byte) {
	return func(ctx context.Context) (int, []byte) {
		ws.runMu.Lock()
		defer ws.runMu.Unlock()
		var opts []check.Option
		if req.Precise {
			opts = append(opts, check.Precise())
		}
		res, err := ws.sess.Recheck(ctx, req.Session, []byte(req.Source), opts...)
		if err != nil {
			return s.checkErrorBody(ctx, err)
		}
		ok := true
		for _, rep := range res.Reports {
			ok = ok && rep.OK()
		}
		upd := client.WatchUpdate{
			Session:        req.Session,
			Fingerprint:    client.Fingerprint(req.Source),
			OK:             ok,
			Reports:        res.Reports,
			Diff:           wireDiff(res.Diff),
			ReusedReports:  res.ReusedReports,
			CheckedClasses: res.CheckedClasses,
			ElapsedMicros:  res.Elapsed.Microseconds(),
		}
		var status int
		var body []byte
		ws.publish(func(seq uint64) []byte {
			upd.Seq = seq
			status, body = jsonBody(upd)
			return body
		})
		s.met.watchUpdates.Add(1)
		s.met.incrementalReused.Add(uint64(res.ReusedReports))
		s.met.incrementalChecked.Add(uint64(res.CheckedClasses))
		return status, body
	}
}

// handleWatchGet is the long-poll half: block until the session
// publishes a round with Seq > after, the poll window lapses (204), the
// daemon drains (503), or the session is evicted (404). A poller behind
// several generations gets only the latest — watch is a level trigger,
// not a queue.
func (s *Server) handleWatchGet(w http.ResponseWriter, r *http.Request) int {
	if s.watch == nil {
		return s.writeError(w, http.StatusNotFound, "watch mode disabled; start shelleyd with -watch")
	}
	name := r.URL.Query().Get("session")
	if name == "" {
		return s.writeError(w, http.StatusBadRequest, "watch poll needs ?session=")
	}
	after, err := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	if err != nil && r.URL.Query().Get("after") != "" {
		return s.writeError(w, http.StatusBadRequest, "bad ?after= (want a sequence number)")
	}
	ws := s.watch.get(name, false)
	if ws == nil {
		return s.writeError(w, http.StatusNotFound, "watch session "+name+" not found; POST /v1/watch creates it")
	}
	timer := time.NewTimer(s.cfg.WatchPollTimeout)
	defer timer.Stop()
	for {
		seq, body, notify := ws.snapshot()
		if seq > after {
			s.met.watchPushes.Add(1)
			return s.writeRaw(w, http.StatusOK, body)
		}
		select {
		case <-notify:
		case <-ws.gone:
			return s.writeError(w, http.StatusNotFound, "watch session "+name+" evicted; POST /v1/watch recreates it")
		case <-timer.C:
			w.WriteHeader(http.StatusNoContent)
			return http.StatusNoContent
		case <-s.watchStop:
			return s.writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		case <-r.Context().Done():
			s.met.timeoutWait.Add(1)
			return s.writeError(w, http.StatusGatewayTimeout, "request context ended: "+r.Context().Err().Error())
		}
	}
}
