// Package telemetry is a zero-dependency in-process time-series
// engine. It periodically snapshots the process's cumulative counters,
// gauges, and latency histograms into fixed-interval rings (a fine
// tier for "what happened in the last ten minutes at one-second
// resolution" and a coarse tier for "the last two hours at fifteen
// seconds"), derives rolling rates and percentiles by differencing
// snapshots over a requested window, evaluates SLO error-budget
// burn-rate alerts, and keeps a bounded ring of exemplar traces for
// interesting requests. Everything is passive: the owner drives the
// clock through Tick, so tests are deterministic and an idle daemon
// does no background work beyond one scrape per interval.
package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Sample is one scrape of the process's cumulative state, produced by
// Config.Source. All values are since-boot cumulative (counters,
// histogram counts) or instantaneous (gauges); the engine turns them
// into windowed rates by differencing.
type Sample struct {
	Counters map[string]float64
	Gauges   map[string]float64
	Hists    map[string]HistSample
}

// HistSample is one endpoint's cumulative latency histogram plus its
// request and error totals.
type HistSample struct {
	// Total counts finished requests; Errors the 5xx subset.
	Total  uint64
	Errors uint64

	// Buckets are cumulative per-bucket counts (see BucketIndex).
	Buckets [NumLatBuckets]uint64
}

// Tier describes one snapshot ring: a capture interval and how many
// slots it retains. Span = Interval × (Slots−1).
type Tier struct {
	Interval time.Duration
	Slots    int
}

// Config configures an Engine.
type Config struct {
	// Tiers, finest first. The first tier's interval is the engine's
	// base tick rate; coarser tiers subsample it. Defaults to
	// 1s × 600 (10 min) and 15s × 480 (2 h).
	Tiers []Tier

	// SLOs are the objectives evaluated on every tick.
	SLOs []SLO

	// Source produces one Sample per tick. Nil is allowed (the engine
	// then only serves alerts set externally and exemplars).
	Source func() Sample

	// Exemplars bounds the exemplar ring. Defaults to 64.
	Exemplars int
}

func (c Config) withDefaults() Config {
	if len(c.Tiers) == 0 {
		c.Tiers = []Tier{{Interval: time.Second, Slots: 600}, {Interval: 15 * time.Second, Slots: 480}}
	}
	if c.Exemplars <= 0 {
		c.Exemplars = 64
	}
	return c
}

// slot is one captured snapshot. vals and hists are immutable once
// built, so a slot may be shared between tiers.
type slot struct {
	at time.Time

	// vals is schema-indexed: Engine.schema maps a metric name to its
	// position. Older slots may be shorter than the current schema
	// (series that appeared later read as zero).
	vals []float64

	hists map[string]histSlot
}

// histSlot stores a cumulative histogram sparsely — only buckets that
// have ever counted — which bounds ring memory at roughly
// (endpoints × touched-buckets × 16 B × slots).
type histSlot struct {
	total, errors uint64
	buckets       []bucketCount
}

type bucketCount struct {
	idx uint8
	n   uint64
}

// expand writes newest−old into a dense per-bucket diff.
func expand(newest, old []bucketCount, out *[NumLatBuckets]uint64) {
	for _, bc := range newest {
		out[bc.idx] += bc.n
	}
	for _, bc := range old {
		out[bc.idx] -= min64(out[bc.idx], bc.n)
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func sub64(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

type tierRing struct {
	interval time.Duration
	slots    []slot
	head     int // index of the newest slot
	n        int // filled count
}

func (t *tierRing) newest() *slot { return &t.slots[t.head] }

// back returns the k-th newest slot (k = 0 is newest). k must be < n.
func (t *tierRing) back(k int) *slot {
	return &t.slots[((t.head-k)%len(t.slots)+len(t.slots))%len(t.slots)]
}

func (t *tierRing) push(s slot) {
	if t.n > 0 {
		t.head = (t.head + 1) % len(t.slots)
	}
	t.slots[t.head] = s
	if t.n < len(t.slots) {
		t.n++
	}
}

// pair returns the newest slot and the youngest slot at least `window`
// older, clamped to the oldest retained slot. ok is false with fewer
// than two slots.
func (t *tierRing) pair(window time.Duration) (newest, old *slot, ok bool) {
	if t.n < 2 {
		return nil, nil, false
	}
	newest = t.newest()
	cut := newest.at.Add(-window)
	for k := 1; k < t.n; k++ {
		old = t.back(k)
		if !old.at.After(cut) {
			break
		}
	}
	return newest, old, true
}

type seriesInfo struct {
	name  string
	gauge bool
}

// Engine is the time-series engine. All methods are safe for
// concurrent use; Tick is expected from a single driving goroutine.
type Engine struct {
	cfg Config

	mu     sync.Mutex
	start  time.Time
	schema map[string]int
	series []seriesInfo
	tiers  []tierRing
	sloSt  []SLOStatus
	alerts map[string]Alert

	exMu   sync.Mutex
	ex     []Exemplar // grows to cfg.Exemplars, then overwrites
	exNext int        // next overwrite position once full
}

// New builds an Engine. No goroutines are started; call Tick on the
// first tier's interval.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:    cfg,
		schema: make(map[string]int),
		alerts: make(map[string]Alert),
		tiers:  make([]tierRing, len(cfg.Tiers)),
	}
	for i, t := range cfg.Tiers {
		e.tiers[i] = tierRing{interval: t.Interval, slots: make([]slot, t.Slots)}
	}
	return e
}

// Start returns the first tick time (zero before the first tick).
func (e *Engine) Start() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.start
}

// Tick scrapes the source once, records the snapshot into every tier
// that is due, and re-evaluates SLOs. The caller supplies the clock so
// tests can drive synthetic time.
func (e *Engine) Tick(now time.Time) {
	var s Sample
	if e.cfg.Source != nil {
		s = e.cfg.Source()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.start.IsZero() {
		e.start = now
	}
	sl := e.buildSlot(now, s)
	base := e.tiers[0].interval
	for i := range e.tiers {
		t := &e.tiers[i]
		// Capture when due; the half-base tolerance absorbs tick
		// jitter so a 15s tier driven by ~1s ticks stays on cadence.
		if t.n > 0 && now.Sub(t.newest().at) < t.interval-base/2 {
			continue
		}
		t.push(sl)
	}
	e.evalSLOs(now)
}

func (e *Engine) buildSlot(now time.Time, s Sample) slot {
	idx := func(name string, gauge bool) int {
		i, ok := e.schema[name]
		if !ok {
			i = len(e.series)
			e.schema[name] = i
			e.series = append(e.series, seriesInfo{name: name, gauge: gauge})
		}
		return i
	}
	// Resolve indices first so vals is sized once.
	for name := range s.Counters {
		idx(name, false)
	}
	for name := range s.Gauges {
		idx(name, true)
	}
	vals := make([]float64, len(e.series))
	for name, v := range s.Counters {
		vals[e.schema[name]] = v
	}
	for name, v := range s.Gauges {
		vals[e.schema[name]] = v
	}
	var hists map[string]histSlot
	if len(s.Hists) > 0 {
		hists = make(map[string]histSlot, len(s.Hists))
		for name, h := range s.Hists {
			hs := histSlot{total: h.Total, errors: h.Errors}
			for i, n := range h.Buckets {
				if n != 0 {
					hs.buckets = append(hs.buckets, bucketCount{idx: uint8(i), n: n})
				}
			}
			hists[name] = hs
		}
	}
	return slot{at: now, vals: vals, hists: hists}
}

// tierFor picks the finest tier whose span covers the window.
func (e *Engine) tierFor(window time.Duration) *tierRing {
	for i := range e.tiers {
		t := &e.tiers[i]
		if t.interval*time.Duration(len(t.slots)-1) >= window {
			return t
		}
	}
	return &e.tiers[len(e.tiers)-1]
}

// pairFor resolves a window to a (newest, old) snapshot pair, falling
// back to the base tier when the preferred coarse tier has not
// captured two slots yet (early in process life).
func (e *Engine) pairFor(window time.Duration) (*slot, *slot, bool) {
	t := e.tierFor(window)
	newest, old, ok := t.pair(window)
	if !ok && t != &e.tiers[0] {
		newest, old, ok = e.tiers[0].pair(window)
	}
	return newest, old, ok
}

// EndpointStats are windowed request statistics for one histogram
// family.
type EndpointStats struct {
	Endpoint string

	// Window is the effective window: the requested one, clamped to
	// the span the rings actually hold.
	Window time.Duration

	// Total and Errors count requests finished in the window.
	Total  uint64
	Errors uint64

	// Rate is requests per second; ErrorRate the 5xx fraction.
	Rate      float64
	ErrorRate float64

	P50, P95, P99 time.Duration
}

// Endpoint derives rolling statistics for one endpoint over a window.
// ok is false before two snapshots exist or if the endpoint has never
// been sampled.
func (e *Engine) Endpoint(name string, window time.Duration) (EndpointStats, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.endpointLocked(name, window)
}

func (e *Engine) endpointLocked(name string, window time.Duration) (EndpointStats, bool) {
	newest, old, ok := e.pairFor(window)
	if !ok {
		return EndpointStats{}, false
	}
	hn, ok := newest.hists[name]
	if !ok {
		return EndpointStats{}, false
	}
	ho := old.hists[name] // zero value when the endpoint is newer than `old`
	dt := newest.at.Sub(old.at)
	if dt <= 0 {
		return EndpointStats{}, false
	}
	var diff [NumLatBuckets]uint64
	expand(hn.buckets, ho.buckets, &diff)
	st := EndpointStats{
		Endpoint: name,
		Window:   dt,
		Total:    sub64(hn.total, ho.total),
		Errors:   sub64(hn.errors, ho.errors),
	}
	st.Rate = float64(st.Total) / dt.Seconds()
	if st.Total > 0 {
		st.ErrorRate = float64(st.Errors) / float64(st.Total)
	}
	st.P50 = Quantile(&diff, 0.50)
	st.P95 = Quantile(&diff, 0.95)
	st.P99 = Quantile(&diff, 0.99)
	return st, true
}

// Endpoints lists every histogram family seen in the latest snapshot,
// sorted.
func (e *Engine) Endpoints() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tiers[0].n == 0 {
		return nil
	}
	hists := e.tiers[0].newest().hists
	out := make([]string, 0, len(hists))
	for name := range hists {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Gauges returns the latest value of every gauge series, sorted by
// name — the "right now" block of the status page.
func (e *Engine) Gauges() map[string]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tiers[0].n == 0 {
		return nil
	}
	newest := e.tiers[0].newest()
	out := make(map[string]float64)
	for i, s := range e.series {
		if s.gauge && i < len(newest.vals) {
			out[s.name] = newest.vals[i]
		}
	}
	return out
}
