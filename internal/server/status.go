package server

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/mine"
	"github.com/shelley-go/shelley/internal/obs"
	"github.com/shelley-go/shelley/internal/telemetry"
)

// statusWindows are the rolling windows /v1/status reports per
// endpoint, label → span.
var statusWindows = []struct {
	label string
	span  time.Duration
}{
	{"10s", 10 * time.Second},
	{"1m", time.Minute},
	{"5m", 5 * time.Minute},
	{"1h", time.Hour},
}

// telemetryTiers scales the two-ring layout to the configured base
// interval: at the default 1s the fine ring holds 10 minutes at
// second resolution and the coarse ring 2 hours at 15s.
func telemetryTiers(interval time.Duration) []telemetry.Tier {
	return []telemetry.Tier{
		{Interval: interval, Slots: 600},
		{Interval: 15 * interval, Slots: 480},
	}
}

// teleLoop drives the engine clock from New until stopTelemetry. The
// engine itself is passive — this ticker is the only goroutine the
// telemetry layer adds.
func (s *Server) teleLoop() {
	defer close(s.teleDone)
	t := time.NewTicker(s.cfg.TelemetryInterval)
	defer t.Stop()
	// Prime immediately so /v1/status answers within one interval of
	// boot instead of two.
	s.engine.Tick(time.Now())
	for {
		select {
		case <-s.teleCtx.Done():
			return
		case now := <-t.C:
			s.engine.Tick(now)
		}
	}
}

func (s *Server) stopTelemetry() {
	if s.engine == nil {
		return
	}
	s.teleStopOnce.Do(func() {
		s.teleCancel()
		<-s.teleDone
	})
}

// mineSnap captures the mining subsystem's counters and reports for
// the metric families; nil on daemons without -mine.
func (s *Server) mineSnap() *mineSnapshot {
	if s.miner == nil {
		return nil
	}
	return &mineSnapshot{counters: s.miner.Counters(), reports: s.miner.Reports()}
}

// onMineVerdict turns drift verdict flips into alert events: entering
// DRIFT raises a page carrying the counterexample trace, leaving it
// clears the page. Called from the mining loop with the class state
// locked, so it must not call back into the miner (SetAlert/ClearAlert
// only touch the engine).
func (s *Server) onMineVerdict(prev string, r mine.Report) {
	key := "drift:" + r.ClassFP
	if r.Verdict == mine.VerdictDrift {
		s.engine.SetAlert(telemetry.Alert{
			Key:      key,
			Severity: "page",
			Since:    time.Now(),
			Message: fmt.Sprintf("model drift on %s: fleet behavior diverges from the static model (%d mined vs %d static states)",
				r.ClassFP, r.MinedStates, r.StaticStates),
			Counterexample: r.Counterexample,
		})
		return
	}
	if prev == mine.VerdictDrift {
		s.engine.ClearAlert(key)
	}
}

// maybeExemplar tail-samples interesting finished requests: panics
// (500), structured errors (422/5xx), and latency-threshold breaches
// keep their full span tree in the exemplar ring; everything else
// discards its buffered spans. Runs after span.End so the root span is
// already in the trace buffer.
func (s *Server) maybeExemplar(endpoint, traceID string, code int, elapsed time.Duration) {
	if s.engine == nil {
		return
	}
	thr, ok := s.latThresh[endpoint]
	if !ok {
		thr = exemplarLatency
	}
	var reason string
	switch {
	case code == http.StatusInternalServerError:
		// 500 is the contained-panic status: the worker boundary
		// answers it for nothing else.
		reason = "panic"
	case code >= 500 || code == http.StatusUnprocessableEntity:
		reason = "error"
	case elapsed > thr:
		reason = "latency"
	}
	if reason == "" {
		if s.traceBuf != nil {
			s.traceBuf.Discard(traceID)
		}
		return
	}
	var spans []obs.SpanData
	var dropped int
	if s.traceBuf != nil {
		spans, dropped, _ = s.traceBuf.Take(traceID)
	}
	s.engine.AddExemplar(telemetry.Exemplar{
		TraceID:      traceID,
		Endpoint:     endpoint,
		Code:         code,
		Reason:       reason,
		Duration:     elapsed,
		Bucket:       telemetry.BucketIndex(elapsed),
		At:           time.Now(),
		Spans:        spans,
		SpansDropped: dropped,
	})
	s.met.exemplars.Add(1)
}

// handleStatus serves the live telemetry view: JSON by default, a
// self-contained HTML dashboard with ?format=html. 404s (with a hint)
// on daemons running without telemetry.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if s.engine == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(client.ErrorResponse{
			Error: "telemetry disabled; start shelleyd with -telemetry-interval > 0",
		})
		return
	}
	resp := s.statusResponse()
	if r.URL.Query().Get("format") == "html" {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := statusTmpl.Execute(w, statusPage{Resp: resp}); err != nil {
			s.met.writeErrors.Add(1)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		s.met.writeErrors.Add(1)
	}
}

func (s *Server) statusResponse() *client.StatusResponse {
	now := time.Now()
	start := s.engine.Start()
	resp := &client.StatusResponse{
		Now:      now,
		Start:    start,
		Interval: s.cfg.TelemetryInterval,
		Draining: s.draining.Load(),
		Gauges:   s.engine.Gauges(),
	}
	if !start.IsZero() {
		resp.UptimeSec = now.Sub(start).Seconds()
	}

	for _, name := range s.engine.Endpoints() {
		ep := client.EndpointStatus{
			Endpoint: name,
			Codes:    make(map[string]uint64),
			Windows:  make(map[string]client.WindowStats, len(statusWindows)),
		}
		if em := s.met.endpoint(name); em != nil {
			for i := range em.codes {
				if n := em.codes[i].Load(); n != 0 {
					ep.Codes[strconv.Itoa(i+100)] = n
				}
			}
		}
		for _, win := range statusWindows {
			st, ok := s.engine.Endpoint(name, win.span)
			if !ok {
				continue
			}
			ep.Windows[win.label] = client.WindowStats{
				Window:    st.Window,
				Total:     st.Total,
				Errors:    st.Errors,
				Rate:      st.Rate,
				ErrorRate: st.ErrorRate,
				P50:       st.P50,
				P95:       st.P95,
				P99:       st.P99,
			}
		}
		resp.Endpoints = append(resp.Endpoints, ep)
	}

	for _, st := range s.engine.SLOStatuses() {
		resp.SLOs = append(resp.SLOs, client.SLOStatus{
			Name:            st.SLO.Name,
			Endpoint:        st.SLO.Endpoint,
			Target:          st.SLO.Target,
			Latency:         st.SLO.Latency,
			BadFrac:         st.BadFrac,
			Window:          st.Window,
			BurnFast:        st.BurnFast,
			BurnSlow:        st.BurnSlow,
			BudgetRemaining: st.BudgetRemaining,
			Firing:          st.Firing,
		})
	}

	resp.Alerts = []client.AlertStatus{}
	for _, a := range s.engine.Alerts() {
		resp.Alerts = append(resp.Alerts, client.AlertStatus{
			Key:            a.Key,
			Severity:       a.Severity,
			Since:          a.Since,
			Message:        a.Message,
			Value:          a.Value,
			Counterexample: a.Counterexample,
		})
	}

	resp.Exemplars = []client.ExemplarStatus{}
	for _, x := range s.engine.Exemplars() {
		ex := client.ExemplarStatus{
			TraceID:      x.TraceID,
			Endpoint:     x.Endpoint,
			Code:         x.Code,
			Reason:       x.Reason,
			Duration:     x.Duration,
			Bucket:       x.Bucket,
			BucketLe:     telemetry.BucketLabel(x.Bucket),
			At:           x.At,
			SpansDropped: x.SpansDropped,
		}
		spans := append([]obs.SpanData(nil), x.Spans...)
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
		for _, sd := range spans {
			es := client.ExemplarSpan{
				SpanID:   sd.SpanID,
				ParentID: sd.ParentID,
				Name:     sd.Name,
				Start:    sd.Start,
				Duration: sd.Duration(),
			}
			if len(sd.Attrs) > 0 {
				es.Attrs = make(map[string]string, len(sd.Attrs))
				for _, a := range sd.Attrs {
					es.Attrs[a.Key] = a.Value
				}
			}
			if len(sd.Counts) > 0 {
				es.Counts = make(map[string]uint64, len(sd.Counts))
				for k, v := range sd.Counts {
					es.Counts[k] = v
				}
			}
			ex.Spans = append(ex.Spans, es)
		}
		resp.Exemplars = append(resp.Exemplars, ex)
	}
	return resp
}

// statusPage is the template context of the HTML dashboard.
type statusPage struct {
	Resp *client.StatusResponse
}

// GaugeRows returns the gauges sorted by name.
func (p statusPage) GaugeRows() []struct {
	Name  string
	Value float64
} {
	names := make([]string, 0, len(p.Resp.Gauges))
	for n := range p.Resp.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]struct {
		Name  string
		Value float64
	}, 0, len(names))
	for _, n := range names {
		out = append(out, struct {
			Name  string
			Value float64
		}{n, p.Resp.Gauges[n]})
	}
	return out
}

var statusTmplFuncs = template.FuncMap{
	"dur": func(d time.Duration) string {
		switch {
		case d <= 0:
			return "–"
		case d < time.Millisecond:
			return fmt.Sprintf("%.0fµs", float64(d)/1e3)
		case d < time.Second:
			return fmt.Sprintf("%.2fms", float64(d)/1e6)
		default:
			return fmt.Sprintf("%.2fs", float64(d)/1e9)
		}
	},
	"rate": func(v float64) string { return fmt.Sprintf("%.1f", v) },
	"pct":  func(v float64) string { return fmt.Sprintf("%.2f%%", v*100) },
	"win": func(ep client.EndpointStatus, label string) client.WindowStats {
		return ep.Windows[label]
	},
	"haswin": func(ep client.EndpointStatus, label string) bool {
		_, ok := ep.Windows[label]
		return ok
	},
	"windows": func() []string {
		out := make([]string, 0, len(statusWindows))
		for _, w := range statusWindows {
			out = append(out, w.label)
		}
		return out
	},
	"mulpct": func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 100
		}
		return v * 100
	},
}

// The dashboard is fully self-contained — inline CSS, no scripts, no
// external assets — and refreshes itself with a meta tag, so it works
// from curl-saved files and locked-down browsers alike.
var statusTmpl = template.Must(template.New("status").Funcs(statusTmplFuncs).Parse(`<!doctype html>
<html><head><meta charset="utf-8"><meta http-equiv="refresh" content="2">
<title>shelleyd status</title>
<style>
body{background:#101418;color:#d7dde3;font:13px/1.45 ui-monospace,SFMono-Regular,Menlo,monospace;margin:24px;}
h1{font-size:16px;margin:0 0 4px} h2{font-size:13px;margin:20px 0 6px;color:#8fa3b5;text-transform:uppercase;letter-spacing:.08em}
table{border-collapse:collapse;width:100%;margin:4px 0}
th,td{padding:3px 10px;text-align:right;border-bottom:1px solid #1e2630}
th{color:#8fa3b5;font-weight:normal} td:first-child,th:first-child{text-align:left}
.muted{color:#5c6b7a} .ok{color:#7dd3a0} .warn{color:#e8c468} .page{color:#ef7d7d;font-weight:bold}
.alert{padding:6px 10px;margin:4px 0;border-left:3px solid #ef7d7d;background:#1a1214}
.alert.warn{border-left-color:#e8c468;background:#1a1712}
.bar{display:inline-block;height:8px;background:#2a3542;width:120px;vertical-align:middle;margin-left:8px}
.bar i{display:block;height:8px;background:#7dd3a0}
.spans{margin:2px 0 10px 16px;color:#8fa3b5}
details{margin:6px 0} summary{cursor:pointer}
</style></head><body>
<h1>shelleyd <span class="muted">· {{.Resp.Now.Format "15:04:05"}} · up {{printf "%.0fs" .Resp.UptimeSec}}{{if .Resp.Draining}} · <span class="page">DRAINING</span>{{end}}</span></h1>

{{if .Resp.Alerts}}<h2>Alerts</h2>
{{range .Resp.Alerts}}<div class="alert {{.Severity}}"><span class="{{.Severity}}">{{.Severity}}</span> {{.Key}} — {{.Message}} <span class="muted">since {{.Since.Format "15:04:05"}}</span>
{{if .Counterexample}}<div class="spans">counterexample: {{range .Counterexample}}{{.}} {{end}}</div>{{end}}</div>
{{end}}{{else}}<h2>Alerts</h2><div class="ok">none firing</div>{{end}}

<h2>Endpoints</h2>
<table><tr><th>endpoint</th><th>window</th><th>rate/s</th><th>err%</th><th>p50</th><th>p95</th><th>p99</th><th>total</th></tr>
{{range $ep := .Resp.Endpoints}}{{range $label := windows}}{{if haswin $ep $label}}{{with (win $ep $label)}}
<tr><td>{{$ep.Endpoint}}</td><td>{{$label}}</td><td>{{rate .Rate}}</td><td>{{pct .ErrorRate}}</td><td>{{dur .P50}}</td><td>{{dur .P95}}</td><td>{{dur .P99}}</td><td>{{.Total}}</td></tr>
{{end}}{{end}}{{end}}{{end}}
</table>

{{if .Resp.SLOs}}<h2>SLOs</h2>
<table><tr><th>objective</th><th>target</th><th>bad</th><th>burn 5m</th><th>burn 1h</th><th>budget left</th><th>state</th></tr>
{{range .Resp.SLOs}}<tr><td>{{.Name}}</td><td>{{pct .Target}}{{if .Latency}} &lt; {{dur .Latency}}{{end}}</td><td>{{pct .BadFrac}}</td><td>{{rate .BurnFast}}x</td><td>{{rate .BurnSlow}}x</td><td>{{pct .BudgetRemaining}}<span class="bar"><i style="width:{{printf "%.0f" (mulpct .BudgetRemaining)}}%"></i></span></td><td>{{if .Firing}}<span class="{{.Firing}}">{{.Firing}}</span>{{else}}<span class="ok">ok</span>{{end}}</td></tr>
{{end}}</table>{{end}}

<h2>Gauges</h2>
<table>{{range .GaugeRows}}<tr><td>{{.Name}}</td><td>{{printf "%.0f" .Value}}</td></tr>{{end}}</table>

<h2>Exemplars <span class="muted">(tail-sampled interesting requests, newest first)</span></h2>
{{if .Resp.Exemplars}}{{range .Resp.Exemplars}}
<details><summary><span class="{{if eq .Reason "latency"}}warn{{else}}page{{end}}">{{.Reason}}</span> {{.Endpoint}} {{.Code}} · {{dur .Duration}} <span class="muted">≤{{.BucketLe}} · trace {{.TraceID}} · {{.At.Format "15:04:05"}}</span></summary>
<div class="spans">{{range .Spans}}{{.Name}} {{dur .Duration}}{{if .ParentID}} ↳{{end}}<br>{{end}}{{if .SpansDropped}}(+{{.SpansDropped}} spans dropped){{end}}</div>
</details>
{{end}}{{else}}<div class="muted">none captured</div>{{end}}
</body></html>`))
