package regex

import (
	"slices"
	"sort"
)

// Language equivalence and inclusion, decided by a breadth-first search
// over pairs of Brzozowski derivatives.
//
// Because the smart constructors normalize modulo associativity,
// commutativity, and idempotence of +, the set of derivatives of an
// expression is finite, so the pair exploration below terminates.

// Equivalent reports whether L(a) = L(b).
func Equivalent(a, b Regex) bool {
	_, eq := Distinguish(a, b)
	return eq
}

// Distinguish returns (nil, true) when L(a) = L(b); otherwise it returns
// a shortest trace on which the two languages disagree and false. Among
// shortest distinguishing traces the lexicographically least is returned,
// so output is deterministic.
func Distinguish(a, b Regex) ([]string, bool) {
	w, found := shortestPair(a, b, func(x, y bool) bool { return x != y })
	return w, !found
}

// Subset reports whether L(a) ⊆ L(b).
func Subset(a, b Regex) bool {
	_, ok := CounterexampleSubset(a, b)
	return ok
}

// CounterexampleSubset returns (nil, true) when L(a) ⊆ L(b); otherwise it
// returns a shortest trace in L(a) \ L(b) and false.
func CounterexampleSubset(a, b Regex) ([]string, bool) {
	w, found := shortestPair(a, b, func(x, y bool) bool { return x && !y })
	return w, !found
}

// shortestPair returns the shortlex-least trace t with op(t ∈ L(a),
// t ∈ L(b)), searching pairs of derivatives breadth-first in alphabet
// order. A pair is pruned when op cannot hold with its empty
// derivatives rejecting for ever.
func shortestPair(a, b Regex, op func(x, y bool) bool) ([]string, bool) {
	alphabet := unionAlphabet(a, b)
	live := func(da, db Regex) bool {
		for _, x := range []bool{false, !IsEmptyLanguage(da)} {
			for _, y := range []bool{false, !IsEmptyLanguage(db)} {
				if op(x, y) {
					return true
				}
			}
		}
		return false
	}
	type node struct {
		a, b   Regex
		parent int
		sym    string
	}
	seen := map[string]struct{}{pairKey(a, b): {}}
	nodes := []node{{a: a, b: b, parent: -1}}
	for head := 0; head < len(nodes); head++ {
		n := nodes[head]
		if op(Nullable(n.a), Nullable(n.b)) {
			var trace []string
			for i := head; nodes[i].parent >= 0; i = nodes[i].parent {
				trace = append(trace, nodes[i].sym)
			}
			slices.Reverse(trace)
			return trace, true
		}
		for _, f := range alphabet {
			da, db := Derivative(n.a, f), Derivative(n.b, f)
			if !live(da, db) {
				continue
			}
			k := pairKey(da, db)
			if _, ok := seen[k]; ok {
				continue
			}
			seen[k] = struct{}{}
			nodes = append(nodes, node{a: da, b: db, parent: head, sym: f})
		}
	}
	return nil, false
}

func pairKey(a, b Regex) string { return Key(a) + "|" + Key(b) }

func unionAlphabet(a, b Regex) []string {
	set := make(map[string]struct{})
	collectAlphabet(a, set)
	collectAlphabet(b, set)
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
