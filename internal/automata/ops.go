package automata

import (
	"context"

	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/regex"
)

// Language comparisons with distinguishing witnesses, each one or two
// product searches (search.go). A DFA rejects any trace mentioning a
// symbol outside its own alphabet, which matches how Shelley composes
// subsystems with disjoint operation sets.

// BoolOp combines the acceptance bits of the two operands.
type BoolOp func(a, b bool) bool

// ShortestDifference returns the shortlex-least trace in L(a) \ L(b)
// and true, or nil and false when L(a) ⊆ L(b). The search ticks a
// MaxDFAStates gate ("product") of ctx once per visited pair and
// observes its cancellation.
func ShortestDifference(ctx context.Context, a, b *DFA) ([]string, bool, error) {
	w, err := a.Search(a.start, b.Over(a.alphabet, false),
		func(x, y bool) bool { return x && !y }, 1, budget.DFAGate(ctx, "product"))
	if err != nil || len(w) == 0 {
		return nil, false, err
	}
	return w[0], true, nil
}

// Equivalent reports whether L(a) = L(b).
func Equivalent(a, b *DFA) bool {
	_, eq := Distinguish(a, b)
	return eq
}

// Distinguish returns (nil, true) when L(a) = L(b), or the shortlex-least
// trace on which they disagree and false otherwise.
func Distinguish(a, b *DFA) ([]string, bool) {
	w, eq, _ := DistinguishCtx(context.Background(), a, b)
	return w, eq
}

// DistinguishCtx is Distinguish under ctx's budget: the lesser of the
// witnesses of the two differences, each its own search.
func DistinguishCtx(ctx context.Context, a, b *DFA) ([]string, bool, error) {
	w1, in1, err := ShortestDifference(ctx, a, b)
	if err != nil {
		return nil, false, err
	}
	w2, in2, err := ShortestDifference(ctx, b, a)
	switch {
	case err != nil:
		return nil, false, err
	case in1 && (!in2 || regex.LessTrace(w1, w2)):
		return w1, false, nil
	case in2:
		return w2, false, nil
	}
	return nil, true, nil
}

// SubsetDFA reports whether L(a) ⊆ L(b); when it is not, the second
// return value is the shortlex-least witness in L(a) \ L(b).
func SubsetDFA(a, b *DFA) (bool, []string) {
	w, in, _ := ShortestDifference(context.Background(), a, b)
	return !in, w
}

// EnumerateAccepted returns every accepted trace of length at most
// maxLen in shortlex order. It is used by tests to cross-validate the
// automata constructions against the regex enumerator.
func (d *DFA) EnumerateAccepted(maxLen int) [][]string {
	type node struct {
		state int
		trace []string
	}
	var out [][]string
	frontier := []node{{state: d.start}}
	for depth := 0; ; depth++ {
		for _, n := range frontier {
			if d.accept[n.state] {
				out = append(out, n.trace)
			}
		}
		if depth == maxLen || len(frontier) == 0 {
			break
		}
		var next []node
		for _, n := range frontier {
			for si, sym := range d.alphabet {
				t := d.row(n.state)[si]
				if t < 0 {
					continue
				}
				trace := make([]string, len(n.trace)+1)
				copy(trace, n.trace)
				trace[len(n.trace)] = sym
				next = append(next, node{state: t, trace: trace})
			}
		}
		frontier = next
	}
	return out
}
