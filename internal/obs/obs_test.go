package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

// stubClock returns a deterministic stepping time source: every call
// advances by step from a fixed epoch.
func stubClock(step time.Duration) func() time.Time {
	base := time.Unix(1700000000, 0).UTC()
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n) * step)
	}
}

func TestStartWithoutTracerIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "anything", String("k", "v"))
	if sp != nil {
		t.Fatalf("expected nil span without a tracer, got %+v", sp)
	}
	if ctx2 != ctx {
		t.Fatalf("expected the context to pass through unchanged")
	}
	// All span methods must be nil-safe.
	sp.SetAttr(String("a", "b"))
	sp.AddCount("c")
	sp.End()
	if got := sp.TraceID(); got != "" {
		t.Fatalf("nil span TraceID = %q, want empty", got)
	}
	if got := sp.SpanID(); got != "" {
		t.Fatalf("nil span SpanID = %q, want empty", got)
	}
}

func TestParentChildLinkage(t *testing.T) {
	ring := NewRing(16)
	tr := New(WithExporter(ring), WithDeterministicIDs(), WithClock(stubClock(time.Millisecond)))
	ctx := ContextWithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "root")
	cctx, child := Start(ctx, "child")
	_, grand := Start(cctx, "grandchild")
	grand.End()
	child.End()
	root.End()

	spans := ring.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("exported %d spans, want 3", len(spans))
	}
	// Export order is end order: grandchild, child, root.
	g, c, r := spans[0], spans[1], spans[2]
	if g.Name != "grandchild" || c.Name != "child" || r.Name != "root" {
		t.Fatalf("unexpected export order: %s, %s, %s", g.Name, c.Name, r.Name)
	}
	if r.ParentID != "" {
		t.Errorf("root has parent %q, want none", r.ParentID)
	}
	if c.ParentID != r.SpanID {
		t.Errorf("child parent = %q, want root %q", c.ParentID, r.SpanID)
	}
	if g.ParentID != c.SpanID {
		t.Errorf("grandchild parent = %q, want child %q", g.ParentID, c.SpanID)
	}
	for _, s := range spans {
		if s.TraceID != r.TraceID {
			t.Errorf("span %s trace %q, want shared trace %q", s.Name, s.TraceID, r.TraceID)
		}
		if !s.End.After(s.Start) {
			t.Errorf("span %s has non-positive duration", s.Name)
		}
	}
}

func TestSiblingSpansDoNotNest(t *testing.T) {
	ring := NewRing(16)
	tr := New(WithExporter(ring), WithDeterministicIDs())
	ctx := ContextWithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root")

	// Starting a child returns a NEW context; the original ctx still
	// carries root, so a second Start on it is a sibling.
	_, a := Start(ctx, "a")
	a.End()
	_, b := Start(ctx, "b")
	b.End()
	root.End()

	spans := ring.Snapshot()
	if spans[0].ParentID != root.SpanID() || spans[1].ParentID != root.SpanID() {
		t.Fatalf("siblings should both parent to root: %q, %q vs %q",
			spans[0].ParentID, spans[1].ParentID, root.SpanID())
	}
}

func TestAttrsAndCounts(t *testing.T) {
	ring := NewRing(4)
	tr := New(WithExporter(ring), WithDeterministicIDs())
	ctx := ContextWithTracer(context.Background(), tr)
	_, sp := Start(ctx, "op", String("class", "Valve"))
	sp.SetAttr(Int("n", 3), Bool("ok", true))
	sp.AddCount("cache.hit.dfa")
	sp.AddCount("cache.hit.dfa")
	sp.AddCount("cache.hit.spec")
	sp.End()
	// Post-End mutations must not dirty the exported record.
	sp.SetAttr(String("late", "x"))
	sp.AddCount("late")

	got := ring.Snapshot()[0]
	want := []Attr{{"class", "Valve"}, {"n", "3"}, {"ok", "true"}}
	if len(got.Attrs) != len(want) {
		t.Fatalf("attrs = %v, want %v", got.Attrs, want)
	}
	for i := range want {
		if got.Attrs[i] != want[i] {
			t.Errorf("attr[%d] = %v, want %v", i, got.Attrs[i], want[i])
		}
	}
	if got.Counts["cache.hit.dfa"] != 2 || got.Counts["cache.hit.spec"] != 1 {
		t.Errorf("counts = %v", got.Counts)
	}
	if _, ok := got.Counts["late"]; ok {
		t.Errorf("post-End AddCount leaked into the exported record")
	}
}

func TestEndIsIdempotent(t *testing.T) {
	ring := NewRing(8)
	tr := New(WithExporter(ring))
	ctx := ContextWithTracer(context.Background(), tr)
	_, sp := Start(ctx, "once")
	sp.End()
	sp.End()
	sp.End()
	if n := len(ring.Snapshot()); n != 1 {
		t.Fatalf("exported %d times, want 1", n)
	}
}

func TestStartRootIgnoresActiveSpan(t *testing.T) {
	ring := NewRing(8)
	tr := New(WithExporter(ring), WithDeterministicIDs())
	ctx := ContextWithTracer(context.Background(), tr)
	ctx, outer := Start(ctx, "outer")

	rctx, root := tr.StartRoot(ctx, "http.check", "deadbeef")
	if root.TraceID() != "deadbeef" {
		t.Errorf("root trace = %q, want the caller-chosen id", root.TraceID())
	}
	_, child := Start(rctx, "inner")
	child.End()
	root.End()
	outer.End()

	spans := ring.Snapshot()
	if spans[1].ParentID != "" {
		t.Errorf("StartRoot span has parent %q, want none", spans[1].ParentID)
	}
	if spans[0].TraceID != "deadbeef" {
		t.Errorf("child of root has trace %q, want deadbeef", spans[0].TraceID)
	}
}

func TestCarrierMovesTraceAcrossContexts(t *testing.T) {
	ring := NewRing(8)
	tr := New(WithExporter(ring), WithDeterministicIDs())
	ctx := ContextWithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "request")

	carrier := Carry(ctx)
	fresh := context.Background() // the pool's own deadline context
	moved := carrier.Context(fresh)
	_, job := Start(moved, "job")
	job.End()
	root.End()

	spans := ring.Snapshot()
	if spans[0].ParentID != root.SpanID() {
		t.Fatalf("job parent = %q, want request root %q", spans[0].ParentID, root.SpanID())
	}

	// An empty carrier is inert.
	if got := (Carrier{}).Context(fresh); got != fresh {
		t.Fatalf("empty carrier should return the context unchanged")
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Export(SpanData{Name: string(rune('a' + i))})
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("snapshot has %d spans, want 3", len(got))
	}
	for i, want := range []string{"c", "d", "e"} {
		if got[i].Name != want {
			t.Errorf("snapshot[%d] = %q, want %q (oldest first)", i, got[i].Name, want)
		}
	}
	if r.total != 5 {
		t.Errorf("total = %d, want 5", r.total)
	}
}

func TestConcurrentSpansAreRaceFree(t *testing.T) {
	ring := NewRing(1024)
	tr := New(WithExporter(ring))
	ctx := ContextWithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root")

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cctx, sp := Start(ctx, "worker")
				sp.AddCount("n")
				_, inner := Start(cctx, "inner")
				inner.End()
				root.AddCount("children")
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	spans := ring.Snapshot()
	if len(spans) != 801 {
		t.Fatalf("exported %d spans, want 801", len(spans))
	}
	seen := make(map[string]bool)
	for _, s := range spans {
		if seen[s.SpanID] {
			t.Fatalf("duplicate span id %q", s.SpanID)
		}
		seen[s.SpanID] = true
	}
}

func TestValidTraceID(t *testing.T) {
	valid := []string{"a", "deadbeef", "ABC-123_z", "00000000000000000000000000000001"}
	for _, id := range valid {
		if !ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = false, want true", id)
		}
	}
	invalid := []string{"", "has space", "semi;colon", "new\nline", "x\x00y",
		string(make([]byte, 65))}
	for _, id := range invalid {
		if ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = true, want false", id)
		}
	}
}

func TestNewTraceIDShape(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("trace ids %q / %q, want 32 hex chars", a, b)
	}
	if a == b {
		t.Fatalf("two generated trace ids collided: %q", a)
	}
	if !ValidTraceID(a) {
		t.Fatalf("generated id %q fails its own validation", a)
	}
}
