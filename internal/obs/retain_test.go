package obs

import (
	"fmt"
	"testing"
)

func TestTraceBufferTakeReturnsWholeTree(t *testing.T) {
	b := NewTraceBuffer(8, 8)
	for i := 0; i < 3; i++ {
		b.Export(SpanData{TraceID: "t1", SpanID: fmt.Sprintf("s%d", i)})
	}
	b.Export(SpanData{TraceID: "t2", SpanID: "other"})
	spans, dropped, ok := b.Take("t1")
	if !ok || len(spans) != 3 || dropped != 0 {
		t.Fatalf("Take = %d spans dropped=%d ok=%v, want 3/0/true", len(spans), dropped, ok)
	}
	for i, s := range spans {
		if want := fmt.Sprintf("s%d", i); s.SpanID != want {
			t.Errorf("span %d = %s, want %s (End order)", i, s.SpanID, want)
		}
	}
	if _, _, ok := b.Take("t1"); ok {
		t.Error("second Take of the same trace succeeded")
	}
	if len(b.traces) != 1 {
		t.Errorf("Len = %d, want 1 (t2 remains)", len(b.traces))
	}
}

func TestTraceBufferPerTraceBoundKeepsLastSpan(t *testing.T) {
	b := NewTraceBuffer(8, 4)
	for i := 0; i < 10; i++ {
		b.Export(SpanData{TraceID: "t", SpanID: fmt.Sprintf("s%d", i)})
	}
	spans, dropped, ok := b.Take("t")
	if !ok || len(spans) != 4 {
		t.Fatalf("Take = %d spans ok=%v, want 4", len(spans), ok)
	}
	if dropped != 6 {
		t.Errorf("dropped = %d, want 6", dropped)
	}
	// The final export (the root span in real traces) must survive.
	if spans[3].SpanID != "s9" {
		t.Errorf("last slot = %s, want s9", spans[3].SpanID)
	}
}

func TestTraceBufferFIFOEviction(t *testing.T) {
	b := NewTraceBuffer(3, 8)
	for i := 0; i < 5; i++ {
		b.Export(SpanData{TraceID: fmt.Sprintf("t%d", i), SpanID: "s"})
	}
	if len(b.traces) != 3 {
		t.Fatalf("Len = %d, want 3", len(b.traces))
	}
	if b.evicted != 2 {
		t.Errorf("Evicted = %d, want 2", b.evicted)
	}
	if _, _, ok := b.Take("t0"); ok {
		t.Error("evicted trace still takeable")
	}
	if _, _, ok := b.Take("t4"); !ok {
		t.Error("newest trace missing")
	}
}

func TestTraceBufferDiscard(t *testing.T) {
	b := NewTraceBuffer(4, 4)
	b.Export(SpanData{TraceID: "t", SpanID: "s"})
	b.Discard("t")
	b.Discard("unknown") // no-op
	if len(b.traces) != 0 {
		t.Errorf("Len = %d after discard, want 0", len(b.traces))
	}
	// Discarded slots are reusable without tripping eviction.
	for i := 0; i < 4; i++ {
		b.Export(SpanData{TraceID: fmt.Sprintf("n%d", i), SpanID: "s"})
	}
	if b.evicted != 0 {
		t.Errorf("Evicted = %d, want 0", b.evicted)
	}
	b.Export(SpanData{TraceID: "", SpanID: "ignored"})
	if len(b.traces) != 4 {
		t.Errorf("empty trace ID should be ignored; Len = %d", len(b.traces))
	}
}

// TestTraceBufferRecyclesDiscardedGroups: a discarded trace's group is
// reused, so an Export/Discard cycle allocates nothing once warm, while
// spans handed out by Take are never overwritten by later traces.
func TestTraceBufferRecyclesDiscardedGroups(t *testing.T) {
	b := NewTraceBuffer(4, 8)
	b.Export(SpanData{TraceID: "kept", SpanID: "k1"})
	kept, _, _ := b.Take("kept")
	cycle := func() {
		b.Export(SpanData{TraceID: "t", SpanID: "s1"})
		b.Export(SpanData{TraceID: "t", SpanID: "s2"})
		b.Discard("t")
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("Export/Discard cycle allocates %.1f times, want 0", allocs)
	}
	for i := 0; i < 10; i++ {
		b.Export(SpanData{TraceID: fmt.Sprintf("u%d", i), SpanID: "x"})
	}
	if len(kept) != 1 || kept[0].SpanID != "k1" {
		t.Fatalf("taken spans were overwritten: %+v", kept)
	}
	b.Export(SpanData{TraceID: "t", SpanID: "fresh"})
	spans, dropped, ok := b.Take("t")
	if !ok || dropped != 0 || len(spans) != 1 || spans[0].SpanID != "fresh" {
		t.Fatalf("a reused group carried old state: %+v dropped=%d ok=%v", spans, dropped, ok)
	}
}
