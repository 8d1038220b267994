package shelley

import (
	"context"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/internal/obs"
)

// tracedContext returns a context carrying a fresh deterministic tracer
// whose spans land in the returned ring.
func tracedContext(t *testing.T) (context.Context, *obs.Ring) {
	t.Helper()
	ring := obs.NewRing(1 << 12)
	tr := obs.New(obs.WithExporter(ring), obs.WithDeterministicIDs())
	return obs.ContextWithTracer(context.Background(), tr), ring
}

// spanIndex builds lookup maps over a snapshot: spans by ID and the set
// of distinct trace IDs.
func spanIndex(spans []obs.SpanData) (byID map[string]obs.SpanData, traces map[string]bool) {
	byID = make(map[string]obs.SpanData, len(spans))
	traces = make(map[string]bool)
	for _, s := range spans {
		byID[s.SpanID] = s
		traces[s.TraceID] = true
	}
	return byID, traces
}

// nearestAncestor walks the parent chain from s until it hits a span
// named name, returning its SpanID ("" when the chain ends first).
func nearestAncestor(byID map[string]obs.SpanData, s obs.SpanData, name string) string {
	for cur := s; cur.ParentID != ""; {
		parent, ok := byID[cur.ParentID]
		if !ok {
			return ""
		}
		if parent.Name == name {
			return parent.SpanID
		}
		cur = parent
	}
	return ""
}

func attr(s obs.SpanData, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestCheckContextSpanTree pins the shape of one class's trace: a
// single check.class root, every pipeline stage parented (transitively)
// under it, and no span dangling outside the tree.
func TestCheckContextSpanTree(t *testing.T) {
	m := loadPaper(t)
	ctx, ring := tracedContext(t)
	c, ok := m.Class("GoodSector")
	if !ok {
		t.Fatalf("class GoodSector not found in %v", m.Names())
	}
	if _, err := c.CheckContext(ctx); err != nil {
		t.Fatal(err)
	}

	spans := ring.Snapshot()
	byID, traces := spanIndex(spans)
	if len(traces) != 1 {
		t.Fatalf("one CheckContext produced %d traces, want 1", len(traces))
	}

	var root obs.SpanData
	for _, s := range spans {
		if s.Name == "check.class" {
			root = s
		}
	}
	if root.SpanID == "" {
		t.Fatal("no check.class span recorded")
	}
	if root.ParentID != "" {
		t.Errorf("check.class has parent %q, want a root span", root.ParentID)
	}
	if got := attr(root, "class"); got != "GoodSector" {
		t.Errorf("check.class class attr = %q, want GoodSector", got)
	}

	stages := make(map[string]bool)
	for _, s := range spans {
		if s.SpanID == root.SpanID {
			continue
		}
		if nearestAncestor(byID, s, "check.class") != root.SpanID {
			t.Errorf("span %s (%s) does not nest under check.class", s.Name, s.SpanID)
		}
		if strings.HasPrefix(s.Name, "pipeline.") {
			stages[s.Name] = true
		}
	}
	for _, want := range []string{
		"pipeline.behavior", "pipeline.dfa", "pipeline.spec",
		"pipeline.flatten", "pipeline.claim",
	} {
		if !stages[want] {
			t.Errorf("missing %s span (have %v)", want, stages)
		}
	}
}

// TestCheckAllContextDisjointSpanTrees runs the concurrent fan-out with
// tracing on and checks that every class gets its own subtree: one
// check.module root, one check.class child per class (each with a
// distinct class attribute), and every pipeline span attributed to
// exactly one class's subtree — concurrency must not cross-link them.
// Run with -race in CI.
func TestCheckAllContextDisjointSpanTrees(t *testing.T) {
	const composites = 8
	m := manyValidClasses(t, composites)
	ctx, ring := tracedContext(t)
	if _, err := m.CheckAllContext(ctx, 4); err != nil {
		t.Fatal(err)
	}

	spans := ring.Snapshot()
	byID, traces := spanIndex(spans)
	if len(traces) != 1 {
		t.Fatalf("one CheckAllContext produced %d traces, want 1", len(traces))
	}

	var moduleRoot obs.SpanData
	classRoots := make(map[string]string) // check.class span ID -> class name
	for _, s := range spans {
		switch s.Name {
		case "check.module":
			if moduleRoot.SpanID != "" {
				t.Fatal("more than one check.module span")
			}
			moduleRoot = s
		case "check.class":
			classRoots[s.SpanID] = attr(s, "class")
		}
	}
	if moduleRoot.SpanID == "" {
		t.Fatal("no check.module span recorded")
	}
	// n composites + the shared Dev base class.
	if len(classRoots) != composites+1 {
		t.Fatalf("%d check.class spans, want %d", len(classRoots), composites+1)
	}
	seen := make(map[string]bool)
	for id, class := range classRoots {
		if class == "" {
			t.Errorf("check.class span %s has no class attribute", id)
		}
		if seen[class] {
			t.Errorf("two check.class spans for class %q", class)
		}
		seen[class] = true
		if byID[id].ParentID != moduleRoot.SpanID {
			t.Errorf("check.class %q is not a direct child of check.module", class)
		}
	}

	for _, s := range spans {
		if s.Name == "check.module" || s.Name == "check.class" {
			continue
		}
		owner := nearestAncestor(byID, s, "check.class")
		if _, ok := classRoots[owner]; !ok {
			t.Errorf("span %s (%s) belongs to no class subtree (owner %q)", s.Name, s.SpanID, owner)
		}
	}
}

// TestTracingPreservesReports is the differential guarantee: with and
// without a tracer in the context, sequential or fan-out, the rendered
// reports must be byte-identical. Run with -race in CI.
func TestTracingPreservesReports(t *testing.T) {
	render := func(rs []*Report) string {
		var b strings.Builder
		for _, r := range rs {
			b.WriteString(r.Class)
			b.WriteString("\n")
			b.WriteString(r.String())
			b.WriteString("\n")
		}
		return b.String()
	}

	for _, workers := range []int{1, 4} {
		plain := manyValidClasses(t, 12)
		traced := manyValidClasses(t, 12)

		want, err := plain.CheckAllContext(context.Background(), workers)
		if err != nil {
			t.Fatal(err)
		}
		ctx, ring := tracedContext(t)
		got, err := traced.CheckAllContext(ctx, workers)
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != render(want) {
			t.Errorf("workers=%d: traced reports differ from untraced:\n%s\nvs\n%s",
				workers, render(got), render(want))
		}
		if len(ring.Snapshot()) == 0 {
			t.Errorf("workers=%d: traced run recorded no spans", workers)
		}
	}
}
