package automata

import "github.com/shelley-go/shelley/internal/budget"

// The product search: every counterexample, violation list, drift diff
// and equivalence query is a shortest trace in the product of two
// machines, found by one breadth-first walk that never builds the
// product automaton.

// Side is the second machine of a product search. It moves on symbol
// indexes of the searched DFA's alphabet; -1 is its dead state, which
// rejects and never moves again.
type Side struct {
	Start  int
	Step   func(s, sym int) int
	Accept func(s int) bool
}

// Over returns d as the side of a search over alphabet. d moves on its
// own symbols and dies on the others or, when project is set, ignores
// them, reading the projection of the trace onto its own alphabet.
func (d *DFA) Over(alphabet []string, project bool) Side {
	index := make([]int, len(alphabet))
	for i, sym := range alphabet {
		index[i] = symbol(d.alphabet, sym)
	}
	return Side{
		Start: d.start,
		Step: func(s, sym int) int {
			if si := index[sym]; si >= 0 {
				return d.row(s)[si]
			}
			if project {
				return s
			}
			return -1
		},
		Accept: d.Accepting,
	}
}

// searchNode is one visited product pair; parent and sym lead back to
// the pair it was first reached from.
type searchNode struct {
	pair        [2]int32
	parent, sym int32
}

// Search walks the product of d, started in state from, and side in
// shortlex breadth-first order. It returns up to max (at least 1)
// traces t, shortest first, on which op(d accepts t, side accepts t)
// holds. A pair is tested when it is dequeued and expanded even when it
// accepts, so each trace reaches a distinct pair. A pair is pruned only
// when op can no longer hold with its dead machines rejecting for ever.
// Every dequeued pair ticks gate, which may be nil.
func (d *DFA) Search(from int, side Side, op BoolOp, max int, gate *budget.Gate) ([][]string, error) {
	// live[dead] reports whether op can still hold when the machines
	// marked in dead (bit 0: d, bit 1: side) are dead.
	var live [4]bool
	for dead := range live {
		for _, x := range []bool{false, dead&1 == 0} {
			for _, y := range []bool{false, dead&2 == 0} {
				live[dead] = live[dead] || op(x, y)
			}
		}
	}
	start := [2]int32{int32(from), int32(side.Start)}
	seen := map[[2]int32]struct{}{start: {}}
	nodes := []searchNode{{pair: start, parent: -1}}
	k := len(d.alphabet)
	var out [][]string
	for head := 0; head < len(nodes); head++ {
		if gate != nil {
			if err := gate.Tick(); err != nil {
				return nil, err
			}
		}
		a, b := int(nodes[head].pair[0]), int(nodes[head].pair[1])
		if op(a >= 0 && d.accept[a], b >= 0 && side.Accept(b)) {
			out = append(out, d.witness(nodes, head))
			if len(out) >= max {
				break
			}
		}
		for si := 0; si < k; si++ {
			na, nb, dead := -1, -1, 3
			if a >= 0 {
				if na = d.trans[a*k+si]; na >= 0 {
					dead &^= 1
				}
			}
			if b >= 0 {
				if nb = side.Step(b, si); nb >= 0 {
					dead &^= 2
				}
			}
			if !live[dead] {
				continue
			}
			next := [2]int32{int32(na), int32(nb)}
			if _, dup := seen[next]; dup {
				continue
			}
			seen[next] = struct{}{}
			nodes = append(nodes, searchNode{pair: next, parent: int32(head), sym: int32(si)})
		}
	}
	return out, nil
}

// witness rebuilds the trace that first reached nodes[i] from the
// parent pointers; the empty trace is nil.
func (d *DFA) witness(nodes []searchNode, i int) []string {
	n := 0
	for j := i; nodes[j].parent >= 0; j = int(nodes[j].parent) {
		n++
	}
	if n == 0 {
		return nil
	}
	trace := make([]string, n)
	for j := i; nodes[j].parent >= 0; j = int(nodes[j].parent) {
		n--
		trace[n] = d.alphabet[nodes[j].sym]
	}
	return trace
}
