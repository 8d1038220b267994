package automata

import (
	"context"
	"sort"

	"github.com/shelley-go/shelley/internal/budget"
)

// Boolean combinations of DFA languages via the product construction,
// plus language comparisons with distinguishing witnesses. Products are
// computed over the *union* of the two alphabets; a DFA implicitly
// rejects any trace mentioning a symbol outside its own alphabet, which
// matches how Shelley composes subsystems with disjoint operation sets.

// BoolOp combines the acceptance bits of the two operands.
type BoolOp func(a, b bool) bool

// Product returns a DFA over the union alphabet accepting exactly the
// traces t with op(a accepts t, b accepts t). Unbounded; use ProductCtx
// on untrusted input.
func Product(a, b *DFA, op BoolOp) *DFA {
	d, _ := ProductCtx(context.Background(), a, b, op)
	return d
}

// ProductCtx is Product bounded by the context's resource budget
// (MaxDFAStates on the product's state count) and its cancellation:
// product state spaces are multiplicative, so two modest operands can
// make an enormous product, and the gate stops the construction at the
// budget instead of after it.
func ProductCtx(ctx context.Context, a, b *DFA, op BoolOp) (*DFA, error) {
	gate := budget.DFAGate(ctx, "product")
	alphabet := unionAlphabet(a, b)
	// Complete both over the union alphabet so that every pair is total.
	ta := a.extendAlphabet(alphabet).Complete()
	tb := b.extendAlphabet(alphabet).Complete()

	out := NewDFA(alphabet)
	type pair struct{ a, b int }
	ids := map[pair]int{{ta.start, tb.start}: out.Start()}
	out.SetAccepting(out.Start(), op(ta.accept[ta.start], tb.accept[tb.start]))
	queue := []pair{{ta.start, tb.start}}
	if err := gate.Tick(); err != nil {
		return nil, err
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		from := ids[cur]
		for si := range alphabet {
			np := pair{ta.row(cur.a)[si], tb.row(cur.b)[si]}
			id, ok := ids[np]
			if !ok {
				if err := gate.Tick(); err != nil {
					return nil, err
				}
				id = out.AddState(op(ta.accept[np.a], tb.accept[np.b]))
				ids[np] = id
				queue = append(queue, np)
			}
			out.setTransition(from, si, id)
		}
	}
	return trimDead(out), nil
}

// Intersect returns a DFA for L(a) ∩ L(b).
func Intersect(a, b *DFA) *DFA {
	return Product(a, b, func(x, y bool) bool { return x && y })
}

// IntersectCtx is Intersect under the context's budget.
func IntersectCtx(ctx context.Context, a, b *DFA) (*DFA, error) {
	return ProductCtx(ctx, a, b, func(x, y bool) bool { return x && y })
}

// UnionDFA returns a DFA for L(a) ∪ L(b).
func UnionDFA(a, b *DFA) *DFA {
	return Product(a, b, func(x, y bool) bool { return x || y })
}

// Difference returns a DFA for L(a) \ L(b).
func Difference(a, b *DFA) *DFA {
	return Product(a, b, func(x, y bool) bool { return x && !y })
}

// SymmetricDifference returns a DFA for L(a) Δ L(b).
func SymmetricDifference(a, b *DFA) *DFA {
	return Product(a, b, func(x, y bool) bool { return x != y })
}

// Equivalent reports whether L(a) = L(b).
func Equivalent(a, b *DFA) bool {
	_, eq := Distinguish(a, b)
	return eq
}

// Distinguish returns (nil, true) when L(a) = L(b), or a shortest trace
// on which they disagree and false otherwise.
func Distinguish(a, b *DFA) ([]string, bool) {
	diff := SymmetricDifference(a, b)
	if w, ok := diff.ShortestAccepted(); ok {
		return w, false
	}
	return nil, true
}

// SubsetDFA reports whether L(a) ⊆ L(b); when it is not, the second
// return value is a shortest witness in L(a) \ L(b).
func SubsetDFA(a, b *DFA) (bool, []string) {
	if w, ok := Difference(a, b).ShortestAccepted(); ok {
		return false, w
	}
	return true, nil
}

// extendAlphabet returns a DFA over the (sorted) superset alphabet with
// the same transitions; new symbols have no transitions (dead).
func (d *DFA) extendAlphabet(alphabet []string) *DFA {
	if len(alphabet) == len(d.alphabet) {
		same := true
		for i := range alphabet {
			if alphabet[i] != d.alphabet[i] {
				same = false
				break
			}
		}
		if same {
			return d
		}
	}
	out := NewDFA(alphabet)
	for s := 1; s < d.NumStates(); s++ {
		out.AddState(false)
	}
	for s := 0; s < d.NumStates(); s++ {
		out.SetAccepting(s, d.accept[s])
		for si, t := range d.row(s) {
			if t < 0 {
				continue
			}
			_ = out.AddTransition(s, d.alphabet[si], t)
		}
	}
	out.start = d.start
	return out
}

func unionAlphabet(a, b *DFA) []string {
	seen := make(map[string]struct{}, len(a.alphabet)+len(b.alphabet))
	var out []string
	for _, s := range a.alphabet {
		if _, dup := seen[s]; !dup {
			seen[s] = struct{}{}
			out = append(out, s)
		}
	}
	for _, s := range b.alphabet {
		if _, dup := seen[s]; !dup {
			seen[s] = struct{}{}
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
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
