package regex

import "sort"

// Enumerate returns every trace of L(r) whose length is at most maxLen,
// in shortlex order (shorter traces first, ties broken lexicographically
// by symbol). It works by breadth-first exploration of the derivative
// automaton of r, so the cost is bounded by the number of reachable
// derivative states times the alphabet size times maxLen — independent of
// the (possibly infinite) language size beyond the length bound.
//
// Enumerate is the workhorse of the executable soundness/completeness
// tests (Theorems 1 and 2): both the trace semantics and the inferred
// expression are enumerated up to a bound and compared as sets.
func Enumerate(r Regex, maxLen int) [][]string {
	alphabet := Alphabet(r)
	var out [][]string

	type node struct {
		r     Regex
		trace []string
	}
	frontier := []node{{r: r, trace: nil}}
	for depth := 0; depth <= maxLen; depth++ {
		// Collect accepting prefixes at this depth.
		for _, n := range frontier {
			if Nullable(n.r) {
				out = append(out, n.trace)
			}
		}
		if depth == maxLen {
			break
		}
		next := make([]node, 0, len(frontier))
		for _, n := range frontier {
			for _, f := range alphabet {
				d := Derivative(n.r, f)
				if IsEmptyLanguage(d) {
					continue
				}
				trace := make([]string, len(n.trace)+1)
				copy(trace, n.trace)
				trace[len(n.trace)] = f
				next = append(next, node{r: d, trace: trace})
			}
		}
		frontier = next
	}
	sortTraces(out)
	return out
}

// sortTraces orders traces in shortlex order.
func sortTraces(ts [][]string) {
	sort.Slice(ts, func(i, j int) bool { return LessTrace(ts[i], ts[j]) })
}

// LessTrace reports whether trace a precedes trace b in shortlex
// order: shorter first, then symbol by symbol.
func LessTrace(a, b []string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TraceSet builds a set keyed by an unambiguous encoding of each trace.
// It is shared by the theorem tests to compare enumerations.
func TraceSet(ts [][]string) map[string]struct{} {
	set := make(map[string]struct{}, len(ts))
	for _, t := range ts {
		set[TraceKey(t)] = struct{}{}
	}
	return set
}

// TraceKey encodes a trace unambiguously (symbols may contain any
// character except the NUL separator used here).
func TraceKey(t []string) string {
	key := ""
	for _, f := range t {
		key += f + "\x00"
	}
	return key
}
