package regex

import (
	"math/rand"
	"reflect"
	"testing"
)

// The three derivative searches that shortestPair replaced, verbatim up
// to renaming, as the oracles of TestShortestPairMatchesReference.

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

// refCounterexampleSubset is the CounterexampleSubset that copied a
// trace per visited pair.
func refCounterexampleSubset(a, b Regex) ([]string, bool) {
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
			if Nullable(p.a) && !Nullable(p.b) {
				return p.trace, false
			}
			for _, f := range alphabet {
				da := Derivative(p.a, f)
				if IsEmptyLanguage(da) {
					// Nothing in L(a) continues this way; inclusion
					// cannot fail down this branch.
					continue
				}
				db := Derivative(p.b, f)
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

// refShortestTrace is the ShortestTrace that copied a trace per visited
// derivative.
func refShortestTrace(r Regex) ([]string, bool) {
	alphabet := Alphabet(r)
	type node struct {
		r     Regex
		trace []string
	}
	visited := map[string]struct{}{Key(r): {}}
	frontier := []node{{r: r}}
	for len(frontier) > 0 {
		var next []node
		for _, n := range frontier {
			if Nullable(n.r) {
				return n.trace, true
			}
			for _, f := range alphabet {
				d := Derivative(n.r, f)
				if IsEmptyLanguage(d) {
					continue
				}
				k := Key(d)
				if _, ok := visited[k]; ok {
					continue
				}
				visited[k] = struct{}{}
				trace := make([]string, len(n.trace)+1)
				copy(trace, n.trace)
				trace[len(n.trace)] = f
				next = append(next, node{r: d, trace: trace})
			}
		}
		frontier = next
	}
	return nil, false
}

// TestShortestPairMatchesReference: on 5,000 random expression pairs,
// Distinguish, CounterexampleSubset and ShortestTrace return the
// reference witnesses.
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
		got, gotOK := CounterexampleSubset(a, b)
		want, wantOK := refCounterexampleSubset(a, b)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("CounterexampleSubset(%s, %s) = %q %v, reference %q %v", a, b, got, gotOK, want, wantOK)
		}
		got, gotOK = ShortestTrace(a)
		want, wantOK = refShortestTrace(a)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("ShortestTrace(%s) = %q %v, reference %q %v", a, got, gotOK, want, wantOK)
		}
		if !gotEq {
			differ++
		}
	}
	if differ < 1000 {
		t.Fatalf("only %d of 5000 pairs differ", differ)
	}
}
