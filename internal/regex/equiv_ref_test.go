package regex

import (
	"math/rand"
	"reflect"
	"testing"
)

// The derivative search that Distinguish's parent-pointer walk replaced,
// verbatim up to renaming, as the oracle of
// TestShortestPairMatchesReference.

// refDistinguish is the Distinguish that copied a trace per visited pair.
func refDistinguish(a, b Regex) ([]string, bool) {
	alphabet := unionAlphabet(a, b)

	type pair struct {
		a, b  Regex
		trace []string
	}
	seen := map[string]struct{}{pairKey(a, b): {}}
	frontier := []pair{{a: a, b: b}}
	for len(frontier) > 0 {
		var next []pair
		for _, p := range frontier {
			if Nullable(p.a) != Nullable(p.b) {
				return p.trace, false
			}
			for _, f := range alphabet {
				da, db := Derivative(p.a, f), Derivative(p.b, f)
				if IsEmptyLanguage(da) && IsEmptyLanguage(db) {
					continue
				}
				k := pairKey(da, db)
				if _, ok := seen[k]; ok {
					continue
				}
				seen[k] = struct{}{}
				trace := make([]string, len(p.trace)+1)
				copy(trace, p.trace)
				trace[len(p.trace)] = f
				next = append(next, pair{a: da, b: db, trace: trace})
			}
		}
		frontier = next
	}
	return nil, true
}

// TestShortestPairMatchesReference: on 5,000 random expression pairs,
// Distinguish returns the reference witness.
func TestShortestPairMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	differ := 0
	for i := 0; i < 5000; i++ {
		a, b := randomRegex(rng, 3), randomRegex(rng, 3)
		got, gotEq := Distinguish(a, b)
		want, wantEq := refDistinguish(a, b)
		if gotEq != wantEq || !reflect.DeepEqual(got, want) {
			t.Fatalf("Distinguish(%s, %s) = %q %v, reference %q %v", a, b, got, gotEq, want, wantEq)
		}
		if !gotEq {
			differ++
		}
	}
	if differ < 1000 {
		t.Fatalf("only %d of 5000 pairs differ", differ)
	}
}
