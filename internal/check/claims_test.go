package check

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/pipeline"
)

// TestMalformedClaimFailsAtCheckTime pins where and how a malformed
// @claim fails: the class models cleanly, and every check of it, cached
// or not, first or repeated, fails with the class name and the claim's
// position in front of the formula parser's error.
func TestMalformedClaimFailsAtCheckTime(t *testing.T) {
	src := "# a malformed claim\n@claim(\"G (open\")\n" + readTestdata(t, "valve.py")
	valve := classFrom(t, src, "Valve")
	const want = `check: class Valve, claim at 2:2: ltlf: "G (open": expected ')' at offset 7`
	for i, opts := range [][]Option{nil, nil, {WithCache(pipeline.New())}} {
		if _, err := Check(valve, NewRegistry(valve), opts...); err == nil || err.Error() != want {
			t.Fatalf("check %d: error %v, want %s", i, err, want)
		}
	}
}

// TestClaimParsedOnceAcrossChecks: a model parses each claim formula at
// most once, so a second uncached check of the same model parses
// nothing. The test proves it by breaking the formula text after the
// first check: a check that parsed it again would fail.
func TestClaimParsedOnceAcrossChecks(t *testing.T) {
	valve := classFrom(t, readTestdata(t, "valve.py"), "Valve")
	good := classFrom(t, readTestdata(t, "goodsector.py"), "GoodSector")
	reg := NewRegistry(valve, good)
	first, err := Check(good, reg)
	if err != nil || !first.OK() {
		t.Fatalf("first check: %v, %v", first, err)
	}
	good.Claims[0].Formula = "G ("
	second, err := Check(good, reg)
	if err != nil {
		t.Fatalf("the second check parsed the claim again: %v", err)
	}
	if second.String() != first.String() {
		t.Fatalf("second report %s, want %s", second, first)
	}
}

// TestUsageCounterexampleAfterFlattenHit checks a composite with a
// usage violation under two budgets that differ only in MaxSearchNodes:
// they share the flatten entry but not the report entry, so the second
// check finds its counterexample on a cached DFA and must rebuild the
// ε-automaton the cache does not keep to annotate it. Both reports
// must be byte-identical, in both flattening modes.
func TestUsageCounterexampleAfterFlattenHit(t *testing.T) {
	reg, _, bad := paperRegistry(t)
	for _, mode := range [][]Option{nil, {Precise()}} {
		pc := pipeline.New()
		opts := append([]Option{WithCache(pc)}, mode...)
		var reports [2][]byte
		for i, nodes := range []int{100_000, 200_000} {
			ctx := budget.With(context.Background(), budget.Limits{MaxSearchNodes: nodes})
			before := pc.Stats()
			r, err := CheckContext(ctx, bad, reg, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if reports[i], err = json.Marshal(r); err != nil {
				t.Fatal(err)
			}
			if st := pc.Stats().Sub(before).Of(pipeline.StageFlatten); i == 1 && (st.Hits == 0 || st.Misses != 0) {
				t.Fatalf("second check: flatten stage %d hits, %d misses; want a hit and no miss", st.Hits, st.Misses)
			}
		}
		if string(reports[0]) != string(reports[1]) {
			t.Fatalf("reports differ:\n%s\n%s", reports[0], reports[1])
		}
		if !strings.Contains(string(reports[1]), `Counter example: open_a, a.test, a.open`) {
			t.Fatalf("report carries no annotated counterexample: %s", reports[1])
		}
	}
}
