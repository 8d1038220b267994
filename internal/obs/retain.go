package obs

import "sync"

// TraceBuffer is an exporter that retains finished spans grouped by
// trace ID so a whole request's span tree can be claimed after the
// fact — the retention hook behind tail-sampled exemplars: every
// request's spans are buffered briefly, and when the server decides a
// finished request was interesting it Takes the tree; ordinary
// requests are Discarded (or age out by FIFO eviction).
//
// Memory is doubly bounded: at most maxTraces live trace groups (FIFO
// eviction of the oldest whole trace) and at most maxSpans spans
// retained per trace (later spans of an oversized trace are counted,
// not kept — the root span, which Ends last, always replaces the last
// slot so the tree keeps its summary node).
type TraceBuffer struct {
	mu        sync.Mutex
	maxTraces int
	maxSpans  int
	traces    map[string]*traceGroup
	order     []string // trace IDs, oldest first
	evicted   uint64
	free      []*traceGroup // groups that were discarded or evicted, for reuse
}

type traceGroup struct {
	spans   []SpanData
	dropped int
}

// NewTraceBuffer builds a buffer retaining at most maxTraces traces of
// at most maxSpans spans each. Non-positive arguments take defaults
// (512 traces, 64 spans).
func NewTraceBuffer(maxTraces, maxSpans int) *TraceBuffer {
	if maxTraces <= 0 {
		maxTraces = 512
	}
	if maxSpans <= 0 {
		maxSpans = 64
	}
	return &TraceBuffer{
		maxTraces: maxTraces,
		maxSpans:  maxSpans,
		traces:    make(map[string]*traceGroup, maxTraces),
	}
}

// Export implements Exporter.
func (b *TraceBuffer) Export(sd SpanData) {
	if sd.TraceID == "" {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	g, ok := b.traces[sd.TraceID]
	if !ok {
		if len(b.order) >= b.maxTraces {
			oldest := b.order[0]
			b.order = b.order[1:]
			b.recycleLocked(b.traces[oldest])
			delete(b.traces, oldest)
			b.evicted++
		}
		if n := len(b.free); n > 0 {
			g, b.free = b.free[n-1], b.free[:n-1]
		} else {
			g = &traceGroup{}
		}
		b.traces[sd.TraceID] = g
		b.order = append(b.order, sd.TraceID)
	}
	if len(g.spans) >= b.maxSpans {
		// Keep the most recent span: in practice the request's root
		// span Ends last and must survive for the exemplar to carry
		// its summary.
		g.spans[len(g.spans)-1] = sd
		g.dropped++
		return
	}
	g.spans = append(g.spans, sd)
}

// Take removes and returns a trace's retained spans in End order, plus
// the count of spans dropped by the per-trace bound. ok is false when
// the trace is unknown (never seen, already taken, or evicted).
func (b *TraceBuffer) Take(traceID string) (spans []SpanData, dropped int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	g, found := b.traces[traceID]
	if !found {
		return nil, 0, false
	}
	b.removeLocked(traceID)
	return g.spans, g.dropped, true
}

// Discard drops a trace's retained spans without returning them — the
// fast path for the overwhelming majority of uninteresting requests.
// The trace's group is reused for a later trace; a Taken one is not.
func (b *TraceBuffer) Discard(traceID string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if g, ok := b.traces[traceID]; ok {
		b.removeLocked(traceID)
		b.recycleLocked(g)
	}
}

// recycleLocked clears g and keeps it for reuse, up to maxTraces groups.
func (b *TraceBuffer) recycleLocked(g *traceGroup) {
	if len(b.free) >= b.maxTraces {
		return
	}
	clear(g.spans)
	g.spans, g.dropped = g.spans[:0], 0
	b.free = append(b.free, g)
}

func (b *TraceBuffer) removeLocked(traceID string) {
	delete(b.traces, traceID)
	for i, id := range b.order {
		if id == traceID {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
}
