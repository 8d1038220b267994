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
// so output is deterministic. Pairs are searched breadth-first in
// alphabet order; a pair whose derivatives are both empty is pruned.
func Distinguish(a, b Regex) ([]string, bool) {
	alphabet := unionAlphabet(a, b)
	type node struct {
		a, b   Regex
		parent int
		sym    string
	}
	seen := map[string]struct{}{pairKey(a, b): {}}
	nodes := []node{{a: a, b: b, parent: -1}}
	for head := 0; head < len(nodes); head++ {
		n := nodes[head]
		if Nullable(n.a) != Nullable(n.b) {
			var trace []string
			for i := head; nodes[i].parent >= 0; i = nodes[i].parent {
				trace = append(trace, nodes[i].sym)
			}
			slices.Reverse(trace)
			return trace, false
		}
		for _, f := range alphabet {
			da, db := Derivative(n.a, f), Derivative(n.b, f)
			if IsEmptyLanguage(da) && IsEmptyLanguage(db) {
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
	return nil, true
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
