package automata

import (
	"fmt"
	"slices"
)

// DFA is a deterministic finite automaton. Missing transitions denote an
// implicit dead (rejecting sink) state, so DFAs are partial by default;
// Complete materializes the sink when an algorithm (e.g. complement)
// needs totality.
type DFA struct {
	// alphabet is sorted and free of duplicates, and never mutated:
	// every DFA derived from this one shares the slice.
	alphabet []string
	// trans holds the rows of the transition table back to back: state
	// s's target on symbol index si is trans[s*len(alphabet)+si], -1
	// when absent (see row).
	trans  []int
	accept []bool
	start  int
}

// NewDFA returns a DFA with a single non-accepting start state and no
// transitions, over the given alphabet (deduplicated and sorted).
func NewDFA(alphabet []string) *DFA { return newDFA(sortedSet(alphabet)) }

// newDFA is NewDFA over an alphabet that is already sorted and free of
// duplicates, which the DFA shares.
func newDFA(alphabet []string) *DFA {
	d := &DFA{alphabet: alphabet}
	d.start = d.AddState(false)
	return d
}

// sortedSet returns a sorted, duplicate-free copy of syms, nil when it
// is empty.
func sortedSet(syms []string) []string {
	if len(syms) == 0 {
		return nil
	}
	out := slices.Clone(syms)
	slices.Sort(out)
	return slices.Compact(out)
}

// isSortedSet reports whether syms is sorted and free of duplicates.
func isSortedSet(syms []string) bool {
	for i := 1; i < len(syms); i++ {
		if syms[i-1] >= syms[i] {
			return false
		}
	}
	return true
}

// symbol returns the index of sym in the sorted alphabet, or -1.
func symbol(alphabet []string, sym string) int {
	if i, ok := slices.BinarySearch(alphabet, sym); ok {
		return i
	}
	return -1
}

// Alphabet returns the sorted alphabet. The caller must not mutate it.
func (d *DFA) Alphabet() []string { return d.alphabet }

// Start returns the start state.
func (d *DFA) Start() int { return d.start }

// NumStates returns the number of states.
func (d *DFA) NumStates() int { return len(d.accept) }

// Accepting reports whether state s accepts.
func (d *DFA) Accepting(s int) bool { return d.accept[s] }

// SetAccepting marks state s as accepting or not.
func (d *DFA) SetAccepting(s int, accepting bool) { d.accept[s] = accepting }

// AddState adds a fresh state with no outgoing transitions.
func (d *DFA) AddState(accepting bool) int {
	n := len(d.trans)
	d.trans = slices.Grow(d.trans, len(d.alphabet))[:n+len(d.alphabet)]
	for i := n; i < len(d.trans); i++ {
		d.trans[i] = -1
	}
	d.accept = append(d.accept, accepting)
	return d.NumStates() - 1
}

// reserve makes room for k more states, so the next k AddState calls
// do not reallocate.
func (d *DFA) reserve(k int) {
	if k <= 0 {
		return
	}
	d.trans = slices.Grow(d.trans, k*len(d.alphabet))
	d.accept = slices.Grow(d.accept, k)
}

// row returns state s's transitions, indexed by symbol.
func (d *DFA) row(s int) []int {
	k := len(d.alphabet)
	return d.trans[s*k : s*k+k : s*k+k]
}

// AddTransition sets from --sym--> to, replacing any previous target.
func (d *DFA) AddTransition(from int, sym string, to int) error {
	si := symbol(d.alphabet, sym)
	if si < 0 {
		return fmt.Errorf("automata: symbol %q not in alphabet %v", sym, d.alphabet)
	}
	d.row(from)[si] = to
	return nil
}

func (d *DFA) setTransition(from, symIndex, to int) {
	d.row(from)[symIndex] = to
}

// Target returns the target of from on sym, or -1 when the transition is
// absent (dead).
func (d *DFA) Target(from int, sym string) int {
	si := symbol(d.alphabet, sym)
	if si < 0 {
		return -1
	}
	return d.row(from)[si]
}

// Accepts reports whether the DFA accepts the trace.
func (d *DFA) Accepts(trace []string) bool {
	s := d.start
	for _, sym := range trace {
		si := symbol(d.alphabet, sym)
		if si < 0 {
			return false
		}
		s = d.row(s)[si]
		if s < 0 {
			return false
		}
	}
	return d.accept[s]
}

// Run returns the state reached after consuming the trace, or -1 if the
// run dies. It is used by checkers that need the residual state.
func (d *DFA) Run(trace []string) int {
	s := d.start
	for _, sym := range trace {
		si := symbol(d.alphabet, sym)
		if si < 0 {
			return -1
		}
		s = d.row(s)[si]
		if s < 0 {
			return -1
		}
	}
	return s
}

// Clone returns a copy of the DFA that shares only its immutable
// alphabet.
func (d *DFA) Clone() *DFA {
	out := &DFA{
		alphabet: d.alphabet,
		trans:    slices.Clone(d.trans),
		accept:   slices.Clone(d.accept),
		start:    d.start,
	}
	return out
}

// Complete returns an equivalent total DFA: every state has a transition
// on every symbol, with missing edges routed to a rejecting sink. When
// the DFA is already total it is returned unchanged.
func (d *DFA) Complete() *DFA {
	if !slices.Contains(d.trans, -1) {
		return d
	}
	out := d.Clone()
	sink := out.AddState(false)
	for i, t := range out.trans {
		if t < 0 {
			out.trans[i] = sink
		}
	}
	return out
}

// Complement returns a DFA accepting exactly the traces over the same
// alphabet that d rejects.
func (d *DFA) Complement() *DFA {
	out := d.Complete().Clone()
	for s := range out.accept {
		out.accept[s] = !out.accept[s]
	}
	return out
}

// Reachable returns an equivalent DFA with unreachable states removed
// (states renumbered in BFS order from the start state).
func (d *DFA) Reachable() *DFA {
	remap := make([]int, d.NumStates())
	for i := range remap {
		remap[i] = -1
	}
	out := newDFA(d.alphabet)
	out.reserve(d.NumStates() - 1)
	out.SetAccepting(out.Start(), d.accept[d.start])
	remap[d.start] = out.Start()
	queue := []int{d.start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for si, t := range d.row(s) {
			if t < 0 {
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

// Relabel returns the DFA over alphabet (deduplicated and sorted) in
// which each symbol moves like d's symbol as(sym), and has no
// transition when as(sym) is not in d's alphabet. States are those
// reachable from the start, numbered in BFS order. When every symbol of
// d is the image of some symbol and d is minimal, the result is the
// minimal DFA of its language, numbered as Minimize numbers it. An
// alphabet that is already sorted and free of duplicates, such as
// another DFA's, is shared rather than copied, so it must not change
// afterwards.
func (d *DFA) Relabel(alphabet []string, as func(sym string) string) *DFA {
	var out *DFA
	if len(alphabet) > 0 && isSortedSet(alphabet) {
		out = newDFA(alphabet)
	} else {
		out = NewDFA(alphabet)
	}
	out.reserve(d.NumStates() - 1)
	class := make([]int, len(out.alphabet))
	for i, sym := range out.alphabet {
		class[i] = symbol(d.alphabet, as(sym))
	}
	remap := make([]int, d.NumStates())
	for i := range remap {
		remap[i] = -1
	}
	out.accept[out.start] = d.accept[d.start]
	remap[d.start] = out.start
	queue := []int{d.start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for i, c := range class {
			if c < 0 {
				continue
			}
			t := d.row(s)[c]
			if t < 0 {
				continue
			}
			if remap[t] < 0 {
				remap[t] = out.AddState(d.accept[t])
				queue = append(queue, t)
			}
			out.row(remap[s])[i] = remap[t]
		}
	}
	return out
}
