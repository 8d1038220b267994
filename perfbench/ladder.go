package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	shelley "github.com/shelley-go/shelley"
	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/check"
	"github.com/shelley-go/shelley/internal/ltlf"
	"github.com/shelley-go/shelley/internal/model"
	"github.com/shelley-go/shelley/internal/pipeline"
	"github.com/shelley-go/shelley/internal/pyast"
	"github.com/shelley-go/shelley/internal/pyparse"
	"github.com/shelley-go/shelley/internal/pytoken"
	"github.com/shelley-go/shelley/internal/server"
)

// The traced run replays a workload's inputs in-process. It calls each
// layer's public function in dependency order against a fresh
// pipeline.Cache, so every stage a call reads is already filled by the
// calls before it and the call's time is that layer's self time.

// layer indexes the layers of the cold request path, in ladder order.
type layer int

const (
	lFingerprint layer = iota
	lTokenize
	lParse
	lModel
	lCore
	lAutomata
	lSpec
	lFlatten
	lLTLf
	lCheck
	lRender
	lDecode
	numLayers
)

var layerNames = [numLayers]string{
	"client.fingerprint", "pytoken", "pyparse", "model", "core", "automata",
	"spec", "flatten", "ltlf", "check", "render", "client.decode",
}

// span is one timed call. Spans of one replayed request share Trace;
// Parent is 0 for a request's root span.
type span struct {
	Trace, ID, Parent int
	Name              string
	Start, End        time.Duration
}

// tracer keeps spans in memory until they are written out.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(trace, parent int, name string) int {
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0)})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	t.spans[id-1].End = time.Since(t.t0)
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto); each request is one track.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: s.Trace,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// chainResult is one request's replay: self time per layer and the
// work counts the per-unit metrics divide by.
type chainResult struct {
	t                              [numLayers]time.Duration
	classes, composites, ops       int
	claims, autoStates, flatStates int
	rebuilds                       int // stage builds during check other than its reports
}

// replayChain replays one whole-module union check of src layer by
// layer, as the daemon computes it for a by-source /v1/check.
func replayChain(tr *tracer, idx int, src string) (r chainResult, err error) {
	root := tr.begin(idx, 0, "request")
	defer tr.end(root)
	step := func(l layer, f func()) {
		if err == nil {
			r.t[l] += timed(tr, idx, root, layerNames[l], f)
		}
	}

	var fp string
	step(lFingerprint, func() { fp = client.Fingerprint(src) })
	step(lTokenize, func() { _, err = pytoken.Tokenize(src) })
	// ParseModule tokenizes again; its self time excludes that.
	var ast *pyast.Module
	step(lParse, func() { ast, err = pyparse.ParseModule(src) })
	r.t[lParse] = max(0, r.t[lParse]-r.t[lTokenize])

	var classes, composites []*model.Class
	step(lModel, func() {
		for _, cd := range ast.Classes {
			var mc *model.Class
			if mc, err = model.FromAST(cd); err != nil {
				return
			}
			classes = append(classes, mc)
			if len(mc.SubsystemNames) > 0 {
				composites = append(composites, mc)
			}
		}
	})
	if err != nil {
		return r, err
	}
	r.classes, r.composites = len(classes), len(composites)
	reg := check.NewRegistry(classes...)
	cache := pipeline.New()
	ctx := context.Background()

	// The check path reads the simplified behavior of every composite
	// operation (raw ⟦p⟧ entries are never read by it).
	step(lCore, func() {
		for _, c := range composites {
			for _, op := range c.Operations {
				cache.InferSimplified(ctx, op.Method.Program)
				r.ops++
			}
		}
	})
	step(lAutomata, func() {
		for _, c := range composites {
			for _, op := range c.Operations {
				var d *automata.DFA
				if d, err = cache.BehaviorDFA(ctx, op.Method.Program); err != nil {
					return
				}
				r.autoStates += d.NumStates()
			}
		}
	})
	spec := func(c *model.Class, prefix string) (*automata.DFA, error) {
		return pipeline.Memo(cache, pipeline.StageSpec, pipeline.SpecKey(c.ProtocolFingerprint(), prefix),
			func() (*automata.DFA, error) { return c.SpecDFA(prefix) })
	}
	step(lSpec, func() {
		for _, c := range classes {
			if len(c.SubsystemNames) == 0 && len(c.Claims) == 0 {
				continue
			}
			if _, err = spec(c, ""); err != nil {
				return
			}
			for _, field := range c.SubsystemNames {
				if _, err = spec(reg[c.SubsystemTypes[field]], field); err != nil {
					return
				}
			}
		}
	})
	step(lFlatten, func() {
		for _, c := range composites {
			var d *automata.DFA
			if d, err = check.FlattenedDFA(c, reg, check.WithCache(cache)); err != nil {
				return
			}
			r.flatStates += d.NumStates()
		}
	})
	step(lLTLf, func() {
		for _, c := range classes {
			if len(c.Claims) == 0 {
				continue
			}
			var alphabet []string
			if alphabet, err = claimAlphabet(c, reg, spec); err != nil {
				return
			}
			for _, cl := range c.Claims {
				var f ltlf.Formula
				if f, err = ltlf.Parse(cl.Formula); err != nil {
					return
				}
				if _, err = cache.ClaimNegation(ctx, f, cl.Formula, alphabet); err != nil {
					return
				}
				r.claims++
			}
		}
	})
	var reports []*shelley.Report
	before := cache.Stats()
	step(lCheck, func() {
		for _, c := range classes {
			var rep *shelley.Report
			if rep, err = check.CheckContext(ctx, c, reg, check.WithCache(cache)); err != nil {
				return
			}
			reports = append(reports, rep)
		}
	})
	delta := cache.Stats().Sub(before)
	r.rebuilds = int(delta.TotalMisses() - delta.Of(pipeline.StageReport).Misses)

	ok := true
	for _, rep := range reports {
		ok = ok && rep.OK()
	}
	var body []byte
	step(lRender, func() {
		body, err = json.Marshal(client.CheckResponse{Fingerprint: fp, OK: ok, Reports: reports})
	})
	step(lDecode, func() { err = json.Unmarshal(body, new(client.CheckResponse)) })
	return r, err
}

// claimAlphabet is the alphabet the checker compiles c's claims over:
// the qualified operations of every subsystem for a composite, the
// class's own operations for a base class.
func claimAlphabet(c *model.Class, reg check.Registry, spec func(*model.Class, string) (*automata.DFA, error)) ([]string, error) {
	if len(c.SubsystemNames) == 0 {
		d, err := spec(c, "")
		if err != nil {
			return nil, err
		}
		return d.Alphabet(), nil
	}
	var out []string
	for _, field := range c.SubsystemNames {
		sub, ok := reg[c.SubsystemTypes[field]]
		if !ok {
			return nil, fmt.Errorf("class %s: subsystem %s unresolved", c.Name, field)
		}
		for _, op := range sub.Operations {
			out = append(out, field+"."+op.Name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// stageStats sums the per-module pipeline statistics of a library
// check of every source, each module with its own cache as the daemon
// keeps them.
func stageStats(srcs []string) (pipeline.Stats, error) {
	ctx := shelley.WithBudget(context.Background(), shelley.DefaultBudget())
	var sum pipeline.Stats
	for _, src := range srcs {
		mod, err := shelley.LoadSource(src)
		if err != nil {
			return sum, err
		}
		if _, err := mod.CheckAllContext(ctx, 1); err != nil {
			return sum, err
		}
		sum = addStats(sum, mod.PipelineStats())
	}
	return sum, nil
}

func addStats(a, b pipeline.Stats) pipeline.Stats {
	if len(a.Stages) == 0 {
		return b
	}
	for i := range a.Stages {
		a.Stages[i].Hits += b.Stages[i].Hits
		a.Stages[i].Misses += b.Stages[i].Misses
	}
	return a
}

// handlerResult is the in-process handler replay.
type handlerResult struct {
	lats, decodes, fingerprints []time.Duration
	allocs, bytes               float64
}

// replayHandler serves reqs through server.New(...).Handler() with the
// daemon's production configuration: every key is primed first, so
// each timed call is a warm hit. Decoding each response and
// fingerprinting each by-source body are timed separately.
func replayHandler(tr *tracer, trace int, reqs []client.CheckRequest) (handlerResult, error) {
	var res handlerResult
	srv := server.New(server.Config{
		RequestTimeout: 30 * time.Second, CheckWorkers: 1, MaxModules: 256,
		Watch: true, Telemetry: true, TelemetryInterval: time.Second,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	h := srv.Handler()
	bodies := make([][]byte, len(reqs))
	for i, req := range reqs {
		b, err := json.Marshal(req)
		if err != nil {
			return res, err
		}
		bodies[i] = b
	}
	serve := func(b []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(b)))
		return rec
	}
	// Prime: by-source requests first, so fingerprint-only ones find
	// their module resident.
	for pass := 0; pass < 2; pass++ {
		for i, req := range reqs {
			if (req.Source == "") == (pass == 0) {
				continue
			}
			if rec := serve(bodies[i]); rec.Code != http.StatusOK {
				return res, fmt.Errorf("priming handler: %d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
			}
		}
	}
	httpReqs := make([]*http.Request, len(reqs))
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i := range reqs {
		httpReqs[i] = httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(bodies[i]))
		recs[i] = httptest.NewRecorder()
	}
	res.lats = make([]time.Duration, len(reqs))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range reqs {
		start := time.Now()
		h.ServeHTTP(recs[i], httpReqs[i])
		res.lats[i] = time.Since(start)
	}
	runtime.ReadMemStats(&after)
	res.allocs = float64(after.Mallocs-before.Mallocs) / float64(len(reqs))
	res.bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(reqs))
	root := tr.begin(trace, 0, "handler-replay")
	for i, req := range reqs {
		if recs[i].Code != http.StatusOK {
			return res, fmt.Errorf("warm handler call: %d", recs[i].Code)
		}
		var resp client.CheckResponse
		var err error
		res.decodes = append(res.decodes, timed(tr, trace, root, "client.decode", func() { err = json.Unmarshal(recs[i].Body.Bytes(), &resp) }))
		if err != nil {
			return res, err
		}
		if req.Source != "" {
			start := time.Now()
			client.Fingerprint(req.Source)
			res.fingerprints = append(res.fingerprints, time.Since(start))
		}
	}
	tr.end(root)
	return res, nil
}

// sessionResult is the in-process watch-session replay.
type sessionResult struct {
	update, recheck, render, decode, fingerprint []time.Duration
	checked, reused                              []int
	stats                                        pipeline.Stats
	heapKBPerRound                               float64
}

// replaySessions feeds each list of generations to its own session of
// one shelley.Session (a list's first generation is the session's
// initial push and is not measured). Update and Recheck are timed
// apart: Recheck after Update finds the source resident, so its time is
// the re-verification alone.
func replaySessions(tr *tracer, trace int, sessions [][]string) (sessionResult, error) {
	var res sessionResult
	sess := shelley.NewSession()
	ctx := context.Background()
	var heapRounds, heapKB []float64
	root := tr.begin(trace, 0, "session-replay")
	defer tr.end(root)
	rounds := 0
	for k, srcs := range sessions {
		name := fmt.Sprintf("replay-%d", k)
		for r, src := range srcs {
			var err error
			var diff shelley.Diff
			u := timed(tr, trace, root, "session.update", func() { _, diff, err = sess.Update(ctx, name, []byte(src)) })
			if err != nil {
				return res, err
			}
			var rc *shelley.RecheckResult
			c := timed(tr, trace, root, "session.recheck", func() { rc, err = sess.Recheck(ctx, name, []byte(src)) })
			if err != nil {
				return res, err
			}
			var fp string
			f := timed(tr, trace, root, "client.fingerprint", func() { fp = client.Fingerprint(src) })
			ok := true
			for _, rep := range rc.Reports {
				ok = ok && rep.OK()
			}
			upd := client.WatchUpdate{
				Session: name, Seq: uint64(r + 1), Fingerprint: fp, OK: ok, Reports: rc.Reports,
				Diff:          client.WatchDiff{Initial: diff.Initial, Added: diff.Added, Removed: diff.Removed, Changed: diff.Changed, Unchanged: diff.Unchanged, ProtocolChanged: diff.ProtocolChanged, Invalidated: diff.Invalidated},
				ReusedReports: rc.ReusedReports, CheckedClasses: rc.CheckedClasses, ElapsedMicros: (u + c).Microseconds(),
			}
			var body []byte
			rd := timed(tr, trace, root, "render", func() { body, err = json.Marshal(upd) })
			if err != nil {
				return res, err
			}
			dc := timed(tr, trace, root, "client.decode", func() { err = json.Unmarshal(body, new(client.WatchUpdate)) })
			if err != nil {
				return res, err
			}
			if r == 0 {
				continue
			}
			rounds++
			res.update = append(res.update, u)
			res.recheck = append(res.recheck, c)
			res.fingerprint = append(res.fingerprint, f)
			res.render = append(res.render, rd)
			res.decode = append(res.decode, dc)
			res.checked = append(res.checked, rc.CheckedClasses)
			res.reused = append(res.reused, rc.ReusedReports)
			res.stats = addStats(res.stats, rc.Stats)
			if rounds%protocolEvery == 0 {
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				heapRounds = append(heapRounds, float64(rounds))
				heapKB = append(heapKB, float64(ms.HeapAlloc)/1024)
			}
		}
	}
	res.heapKBPerRound = slope(heapRounds, heapKB)
	return res, nil
}

// timed measures f whether or not tr records spans.
func timed(tr *tracer, trace, parent int, name string, f func()) time.Duration {
	id := tr.begin(trace, parent, name)
	start := time.Now()
	f()
	d := time.Since(start)
	tr.end(id)
	return d
}

// slope is the least-squares slope of ys over xs.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	return ratio(n*sxy-sx*sy, n*sxx-sx*sx)
}
