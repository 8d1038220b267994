package depgraph

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/shelley-go/shelley/internal/lower"
	"github.com/shelley-go/shelley/internal/pyparse"
)

func sectorMethods(t *testing.T) []*lower.Method {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "sector.py"))
	if err != nil {
		t.Fatal(err)
	}
	cls, err := pyparse.ParseClass(string(b), "Sector")
	if err != nil {
		t.Fatal(err)
	}
	var out []*lower.Method
	for _, fn := range cls.Methods {
		m, err := lower.LowerMethod(fn, lower.TrackedFields(nil))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// TestFig3SectorGraph reproduces the structure of Fig. 3 of the paper:
// the dependency graph of Listing 3.1.
func TestFig3SectorGraph(t *testing.T) {
	g, err := Build(sectorMethods(t))
	if err != nil {
		t.Fatal(err)
	}

	// 4 methods → 4 entry nodes; open_a has 2 exits, clean_a 1,
	// close_a 1, open_b 2 → 6 exit nodes; 10 nodes total.
	if got := g.NumNodes(); got != 10 {
		t.Errorf("nodes = %d, want 10", got)
	}
	if got := g.methods; !reflect.DeepEqual(got, []string{"open_a", "clean_a", "close_a", "open_b"}) {
		t.Errorf("methods = %v", got)
	}

	// Entry of open_a links to its two exits.
	exits := exitNodes(g, "open_a")
	if len(exits) != 2 {
		t.Fatalf("open_a exits = %v", exits)
	}
	// Exit A returns ["close_a", "open_b"]: links to both entries.
	succA := g.adj[exits[0]]
	if len(succA) != 2 {
		t.Fatalf("exit A successors = %v", succA)
	}
	if g.Node(succA[0]).Method != "close_a" || g.Node(succA[1]).Method != "open_b" {
		t.Errorf("exit A targets = %v, %v", g.Node(succA[0]), g.Node(succA[1]))
	}
	// Exit B returns ["clean_a"].
	succB := g.adj[exits[1]]
	if len(succB) != 1 || g.Node(succB[0]).Method != "clean_a" {
		t.Errorf("exit B successors = %v", succB)
	}

	// open_b's exits both return []: no successors.
	for _, e := range exitNodes(g, "open_b") {
		if len(g.adj[e]) != 0 {
			t.Errorf("open_b exit %d has successors", e)
		}
	}

	// Union next relation (the op-level edges of Fig. 3).
	if got := nextMethods(g, "open_a"); !reflect.DeepEqual(got, []string{"clean_a", "close_a", "open_b"}) {
		t.Errorf("NextMethods(open_a) = %v", got)
	}
	if got := nextMethods(g, "clean_a"); !reflect.DeepEqual(got, []string{"open_a"}) {
		t.Errorf("NextMethods(clean_a) = %v", got)
	}
	if got := nextMethods(g, "open_b"); len(got) != 0 {
		t.Errorf("NextMethods(open_b) = %v", got)
	}
}

func TestEntryAndLabels(t *testing.T) {
	g, err := Build(sectorMethods(t))
	if err != nil {
		t.Fatal(err)
	}
	id, ok := g.entries["open_a"]
	if !ok {
		t.Fatal("open_a entry missing")
	}
	if got := g.Node(id).Label(); got != "open_a" {
		t.Errorf("entry label = %q", got)
	}
	exit0 := exitNodes(g, "open_a")[0]
	if got := g.Node(exit0).Label(); got != "open_a/exit0" {
		t.Errorf("exit label = %q", got)
	}
	if _, ok := g.entries["nope"]; ok {
		t.Error("entry of nope should not exist")
	}
	if exits := exitNodes(g, "nope"); exits != nil {
		t.Error("exitNodes(nope) should be nil")
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g, err := Build(sectorMethods(t))
	if err != nil {
		t.Fatal(err)
	}
	e1 := g.Edges()
	g2, err := Build(sectorMethods(t))
	if err != nil {
		t.Fatal(err)
	}
	e2 := g2.Edges()
	if !reflect.DeepEqual(e1, e2) {
		t.Error("Edges not deterministic across builds")
	}
	// Total arcs: entry→exit (6) + exit→entry (2+1+1+1+0+0 = 5).
	if len(e1) != 11 {
		t.Errorf("edges = %d, want 11", len(e1))
	}
}

func TestBuildErrors(t *testing.T) {
	parse := func(src string) []*lower.Method {
		cls, err := pyparse.ParseClass(src, "C")
		if err != nil {
			t.Fatal(err)
		}
		var out []*lower.Method
		for _, fn := range cls.Methods {
			m, err := lower.LowerMethod(fn, lower.TrackedFields(nil))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, m)
		}
		return out
	}
	// Undefined next method.
	if _, err := Build(parse("class C:\n    def m(self):\n        return [\"ghost\"]\n")); err == nil {
		t.Error("expected undefined-method error")
	}
	// Duplicate method names.
	dup := parse("class C:\n    def m(self):\n        return []\n    def m(self):\n        return []\n")
	if _, err := Build(dup); err == nil {
		t.Error("expected duplicate-method error")
	}
}

// TestClassGraphDependents pins the invalidation frontier of the
// class-level reverse dependency graph: seeds are always included,
// reverse arcs are followed transitively, diamonds dedupe, and names
// absent from the use map (removed classes) still seed their
// dependents.
func TestClassGraphDependents(t *testing.T) {
	uses := map[string][]string{
		"App":  {"CtlA", "CtlB"},
		"CtlA": {"Dev"},
		"CtlB": {"Dev"},
		"Aux":  {"Timer"},
	}
	g := BuildClasses(uses)

	cases := []struct {
		changed []string
		want    []string
	}{
		// Leaf change propagates through the diamond to the root once.
		{[]string{"Dev"}, []string{"App", "CtlA", "CtlB", "Dev"}},
		// Mid-level change reaches only its own dependents.
		{[]string{"CtlA"}, []string{"App", "CtlA"}},
		// A root has no dependents: frontier is itself.
		{[]string{"App"}, []string{"App"}},
		// Unknown (removed) class still invalidates nothing but itself.
		{[]string{"Gone"}, []string{"Gone"}},
		// A class only referenced, never defined as a user, seeds its
		// dependents too.
		{[]string{"Timer"}, []string{"Aux", "Timer"}},
		// Multiple seeds union.
		{[]string{"CtlB", "Timer"}, []string{"App", "Aux", "CtlB", "Timer"}},
		{nil, []string{}},
	}
	for _, tc := range cases {
		got := g.Dependents(tc.changed)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Dependents(%v) = %v, want %v", tc.changed, got, tc.want)
		}
	}
}

// nextMethods returns the union of methods allowed after the given
// method (over all its exits), sorted.
func nextMethods(g *Graph, method string) []string {
	set := make(map[string]struct{})
	for _, exit := range exitNodes(g, method) {
		for _, succ := range g.adj[exit] {
			set[g.nodes[succ].Method] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// exitNodes returns the exit node ids of the method in return order.
func exitNodes(g *Graph, method string) []int {
	entry, ok := g.entries[method]
	if !ok {
		return nil
	}
	return g.adj[entry]
}
