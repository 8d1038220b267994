// Package automata provides nondeterministic and deterministic finite
// automata over string-labelled alphabets (operation names such as
// "a.open"), together with the standard constructions the Shelley
// pipeline needs:
//
//   - regex → NFA (Thompson and Glushkov constructions),
//   - regex → DFA directly via Brzozowski derivatives,
//   - NFA → DFA (subset construction),
//   - DFA minimization (Hopcroft's algorithm),
//   - boolean combinations (product construction), complement,
//   - emptiness, shortest accepted word (deterministic BFS — the source
//     of the reproducible counterexamples in the paper's error output),
//   - language equivalence with distinguishing witnesses,
//   - DFA → regex (state elimination), realizing Corollary 1 round trips.
//
// States are dense integers. All iteration orders are made deterministic
// (alphabets sorted, transition targets sorted) so that every diagnostic
// this library produces is stable across runs.
package automata

import (
	"context"
	"fmt"
	"slices"

	"github.com/shelley-go/shelley/internal/budget"
)

// NFA is a nondeterministic finite automaton with ε-transitions and a
// single start state. The zero value is not meaningful; use NewNFA.
type NFA struct {
	alphabet []string    // sorted symbol names
	trans    [][]nfaEdge // state -> edges sorted by symbol index, then target
	eps      [][]int     // state -> sorted ε-targets
	accept   []bool      // state -> accepting
	start    int
}

// nfaEdge is one symbol transition, by index into the alphabet.
type nfaEdge struct{ sym, to int }

// NewNFA returns an empty NFA (one non-accepting start state, no
// transitions) over the given alphabet. Duplicate symbols are removed.
func NewNFA(alphabet []string) *NFA {
	n := &NFA{alphabet: sortedSet(alphabet)}
	n.start = n.AddState(false)
	return n
}

// Start returns the start state.
func (n *NFA) Start() int { return n.start }

// SetStart changes the start state.
func (n *NFA) SetStart(s int) { n.start = s }

// NumStates returns the number of states.
func (n *NFA) NumStates() int { return len(n.trans) }

// SetAccepting marks state s as accepting or not.
func (n *NFA) SetAccepting(s int, accepting bool) { n.accept[s] = accepting }

// Grow reserves room for k more states, so the next k AddState calls
// do not reallocate.
func (n *NFA) Grow(k int) {
	if k <= 0 {
		return
	}
	n.trans = slices.Grow(n.trans, k)
	n.eps = slices.Grow(n.eps, k)
	n.accept = slices.Grow(n.accept, k)
}

// AddState adds a fresh state and returns its id.
func (n *NFA) AddState(accepting bool) int {
	n.trans = append(n.trans, nil)
	n.eps = append(n.eps, nil)
	n.accept = append(n.accept, accepting)
	return len(n.trans) - 1
}

// AddTransition adds from --sym--> to. The symbol must belong to the
// alphabet; an unknown symbol is reported as an error rather than being
// added silently.
func (n *NFA) AddTransition(from int, sym string, to int) error {
	si := symbol(n.alphabet, sym)
	if si < 0 {
		return fmt.Errorf("automata: symbol %q not in alphabet %v", sym, n.alphabet)
	}
	e := nfaEdge{sym: si, to: to}
	edges := n.trans[from]
	i, found := slices.BinarySearchFunc(edges, e, func(a, b nfaEdge) int {
		if a.sym != b.sym {
			return a.sym - b.sym
		}
		return a.to - b.to
	})
	if !found {
		n.trans[from] = slices.Insert(edges, i, e)
	}
	return nil
}

// AddEpsilon adds an ε-transition from --ε--> to.
func (n *NFA) AddEpsilon(from, to int) {
	if i, found := slices.BinarySearch(n.eps[from], to); !found {
		n.eps[from] = slices.Insert(n.eps[from], i, to)
	}
}

// closer computes ε-closures into reused buffers: a state is in the
// set being built when its mark equals the current generation.
type closer struct {
	n     *NFA
	mark  []int
	gen   int
	stack []int
	set   []int
}

// closure returns the sorted ε-closure of seeds (which may repeat
// states). The result is valid until the next call.
func (c *closer) closure(seeds []int) []int {
	if c.mark == nil {
		c.mark = make([]int, len(c.n.trans))
	}
	c.gen++
	c.set = c.set[:0]
	c.stack = append(c.stack[:0], seeds...)
	for len(c.stack) > 0 {
		s := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		if c.mark[s] == c.gen {
			continue
		}
		c.mark[s] = c.gen
		c.set = append(c.set, s)
		c.stack = append(c.stack, c.n.eps[s]...)
	}
	slices.Sort(c.set)
	return c.set
}

func (n *NFA) anyAccepting(set []int) bool {
	for _, s := range set {
		if n.accept[s] {
			return true
		}
	}
	return false
}

// Determinize performs the subset construction, producing a DFA that
// accepts the same language. The result has no unreachable states; it is
// not necessarily minimal. Unbounded: subset construction is worst-case
// exponential, so callers handling untrusted input should use
// DeterminizeCtx with a budget instead.
func (n *NFA) Determinize() *DFA {
	d, _ := n.DeterminizeCtx(context.Background())
	return d
}

// DeterminizeCtx is Determinize bounded by the context's resource
// budget: it stops with a structured budget.Err once the subset
// automaton passes MaxDFAStates, and with a budget.CancelErr when ctx
// is canceled (deadline, client disconnect), so a request that times
// out actually releases its worker instead of finishing the blowup.
// Subset states are numbered in BFS order, symbols in alphabet order.
func (n *NFA) DeterminizeCtx(ctx context.Context) (*DFA, error) {
	gate := budget.DFAGate(ctx, "determinize")
	d := newDFA(n.alphabet)
	c := &closer{n: n}
	ids := map[string]int{}
	var key []byte
	keyOf := func(set []int) []byte {
		key = key[:0]
		for _, s := range set {
			key = append(key, byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
		}
		return key
	}

	startSet := slices.Clone(c.closure([]int{n.start}))
	d.SetAccepting(d.Start(), n.anyAccepting(startSet))
	ids[string(keyOf(startSet))] = d.Start()
	sets := [][]int{startSet} // DFA state -> its subset
	if err := gate.Tick(); err != nil {
		return nil, err
	}

	// targets[si] collects the symbol-si successors of the current
	// subset, duplicates included (the closure drops them).
	targets := make([][]int, len(n.alphabet))
	for cur := 0; cur < len(sets); cur++ {
		for si := range targets {
			targets[si] = targets[si][:0]
		}
		for _, s := range sets[cur] {
			for _, e := range n.trans[s] {
				targets[e.sym] = append(targets[e.sym], e.to)
			}
		}
		for si, union := range targets {
			if len(union) == 0 {
				continue
			}
			closed := c.closure(union)
			id, ok := ids[string(keyOf(closed))]
			if !ok {
				if err := gate.Tick(); err != nil {
					return nil, err
				}
				id = d.AddState(n.anyAccepting(closed))
				ids[string(key)] = id
				sets = append(sets, slices.Clone(closed))
			}
			d.setTransition(cur, si, id)
		}
	}
	return d, nil
}
