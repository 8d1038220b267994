package automata

import (
	"context"
	"sort"

	"github.com/shelley-go/shelley/internal/budget"
)

// This file keeps the product construction and the breadth-first
// searches that the product search (search.go) replaced, verbatim up to
// renaming, as the reference that search_test.go and diff_ref_test.go
// pin every search to.

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

// Difference returns a DFA for L(a) \ L(b).
func Difference(a, b *DFA) *DFA {
	return Product(a, b, func(x, y bool) bool { return x && !y })
}

// SymmetricDifference returns a DFA for L(a) Δ L(b).
func SymmetricDifference(a, b *DFA) *DFA {
	return Product(a, b, func(x, y bool) bool { return x != y })
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

// trimDead removes states from which no accepting state is reachable,
// replacing their transitions with the implicit dead sink (-1).
func trimDead(d *DFA) *DFA {
	n := d.NumStates()
	// Reverse reachability from accepting states.
	radj := make([][]int, n)
	for s := 0; s < n; s++ {
		for _, t := range d.row(s) {
			if t >= 0 {
				radj[t] = append(radj[t], s)
			}
		}
	}
	live := make([]bool, n)
	var stack []int
	for s := 0; s < n; s++ {
		if d.accept[s] {
			live[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range radj[s] {
			if !live[p] {
				live[p] = true
				stack = append(stack, p)
			}
		}
	}

	out := newDFA(d.alphabet)
	out.reserve(n - 1)
	remap := make([]int, n)
	for i := range remap {
		remap[i] = -1
	}
	out.SetAccepting(out.Start(), d.accept[d.start])
	remap[d.start] = out.Start()
	queue := []int{d.start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for si, t := range d.row(s) {
			if t < 0 || !live[t] {
				continue
			}
			if remap[t] < 0 {
				remap[t] = out.AddState(d.accept[t])
				queue = append(queue, t)
			}
			out.setTransition(remap[s], si, remap[t])
		}
	}
	return out
}

// refShortestAccepted is the ShortestAccepted that copied a trace per
// visited state.
func refShortestAccepted(d *DFA) ([]string, bool) {
	type node struct {
		state int
		trace []string
	}
	visited := make([]bool, d.NumStates())
	visited[d.start] = true
	frontier := []node{{state: d.start}}
	for len(frontier) > 0 {
		var next []node
		for _, n := range frontier {
			if d.accept[n.state] {
				return n.trace, true
			}
			for si, sym := range d.alphabet {
				t := d.row(n.state)[si]
				if t < 0 || visited[t] {
					continue
				}
				visited[t] = true
				trace := make([]string, len(n.trace)+1)
				copy(trace, n.trace)
				trace[len(n.trace)] = sym
				next = append(next, node{state: t, trace: trace})
			}
		}
		frontier = next
	}
	return nil, false
}

// refDistinguish is the Distinguish that searched the symmetric
// difference product.
func refDistinguish(a, b *DFA) ([]string, bool) {
	diff := SymmetricDifference(a, b)
	if w, ok := refShortestAccepted(diff); ok {
		return w, false
	}
	return nil, true
}

// refSubsetDFA is the SubsetDFA that searched the difference product.
func refSubsetDFA(a, b *DFA) (bool, []string) {
	if w, ok := refShortestAccepted(Difference(a, b)); ok {
		return false, w
	}
	return true, nil
}
