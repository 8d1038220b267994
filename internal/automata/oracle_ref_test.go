package automata

import (
	"context"
	"fmt"
	"sort"

	"github.com/shelley-go/shelley/internal/budget"
)

// This file keeps the row-per-state DFA, the map-based subset
// construction and the map-based Hopcroft minimization that the flat,
// slice-based ones replaced, verbatim up to renaming, as oracles: the
// current constructions must return identical automata (oracle_test.go's
// property and fuzz tests).

// refDFA is the row-per-state DFA the oracles build and minimize.
type refDFA struct {
	alphabet []string
	symIndex map[string]int
	trans    [][]int // state -> symbol index -> target, -1 when absent
	accept   []bool
	start    int
}

func newRefDFA(alphabet []string) *refDFA {
	d := &refDFA{symIndex: make(map[string]int)}
	seen := make(map[string]struct{}, len(alphabet))
	for _, s := range alphabet {
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		d.alphabet = append(d.alphabet, s)
	}
	sort.Strings(d.alphabet)
	for i, s := range d.alphabet {
		d.symIndex[s] = i
	}
	d.start = d.AddState(false)
	return d
}

func (d *refDFA) Start() int { return d.start }

func (d *refDFA) NumStates() int { return len(d.trans) }

func (d *refDFA) SetAccepting(s int, accepting bool) { d.accept[s] = accepting }

func (d *refDFA) AddState(accepting bool) int {
	row := make([]int, len(d.alphabet))
	for i := range row {
		row[i] = -1
	}
	d.trans = append(d.trans, row)
	d.accept = append(d.accept, accepting)
	return len(d.trans) - 1
}

func (d *refDFA) setTransition(from, symIndex, to int) {
	d.trans[from][symIndex] = to
}

func (d *refDFA) Clone() *refDFA {
	out := &refDFA{
		alphabet: append([]string(nil), d.alphabet...),
		symIndex: make(map[string]int, len(d.symIndex)),
		trans:    make([][]int, len(d.trans)),
		accept:   append([]bool(nil), d.accept...),
		start:    d.start,
	}
	for k, v := range d.symIndex {
		out.symIndex[k] = v
	}
	for i, row := range d.trans {
		out.trans[i] = append([]int(nil), row...)
	}
	return out
}

// Complete returns an equivalent total DFA: every state has a transition
// on every symbol, with missing edges routed to a rejecting sink. When
// the DFA is already total it is returned unchanged.
func (d *refDFA) Complete() *refDFA {
	total := true
	for _, row := range d.trans {
		for _, t := range row {
			if t < 0 {
				total = false
				break
			}
		}
		if !total {
			break
		}
	}
	if total {
		return d
	}
	out := d.Clone()
	sink := out.AddState(false)
	for s := range out.trans {
		for si, t := range out.trans[s] {
			if t < 0 {
				out.trans[s][si] = sink
			}
		}
	}
	return out
}

// refNFA is the map-based NFA the oracle determinization runs on.
type refNFA struct {
	alphabet []string        // sorted symbol names
	symIndex map[string]int  // symbol -> index in alphabet
	trans    []map[int][]int // state -> symbol index -> sorted targets
	eps      [][]int         // state -> sorted ε-targets
	accept   []bool          // state -> accepting
	start    int
}

func newRefNFA(alphabet []string) *refNFA {
	n := &refNFA{symIndex: make(map[string]int)}
	seen := make(map[string]struct{}, len(alphabet))
	for _, s := range alphabet {
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		n.alphabet = append(n.alphabet, s)
	}
	sort.Strings(n.alphabet)
	for i, s := range n.alphabet {
		n.symIndex[s] = i
	}
	n.start = n.AddState(false)
	return n
}

func (n *refNFA) AddState(accepting bool) int {
	n.trans = append(n.trans, make(map[int][]int))
	n.eps = append(n.eps, nil)
	n.accept = append(n.accept, accepting)
	return len(n.trans) - 1
}

// AddTransition adds from --sym--> to. The symbol must belong to the
// alphabet; an unknown symbol is reported as an error rather than being
// added silently.
func (n *refNFA) AddTransition(from int, sym string, to int) error {
	si, ok := n.symIndex[sym]
	if !ok {
		return fmt.Errorf("automata: symbol %q not in alphabet %v", sym, n.alphabet)
	}
	n.trans[from][si] = refInsertSorted(n.trans[from][si], to)
	return nil
}

// AddEpsilon adds an ε-transition from --ε--> to.
func (n *refNFA) AddEpsilon(from, to int) {
	n.eps[from] = refInsertSorted(n.eps[from], to)
}

func (n *refNFA) EpsilonClosure(states []int) []int {
	seen := make(map[int]struct{}, len(states))
	stack := append([]int(nil), states...)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, ok := seen[s]; ok {
			continue
		}
		seen[s] = struct{}{}
		stack = append(stack, n.eps[s]...)
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

func (n *refNFA) determinizeCtx(ctx context.Context) (*refDFA, error) {
	gate := budget.DFAGate(ctx, "determinize")
	d := newRefDFA(n.alphabet)

	startSet := n.EpsilonClosure([]int{n.start})
	ids := map[string]int{}
	key := func(set []int) string {
		k := make([]byte, 0, len(set)*3)
		for _, s := range set {
			k = append(k, byte(s>>16), byte(s>>8), byte(s))
		}
		return string(k)
	}
	isAccepting := func(set []int) bool {
		for _, s := range set {
			if n.accept[s] {
				return true
			}
		}
		return false
	}

	type work struct {
		id  int
		set []int
	}
	d.SetAccepting(d.Start(), isAccepting(startSet))
	ids[key(startSet)] = d.Start()
	queue := []work{{id: d.Start(), set: startSet}}
	if err := gate.Tick(); err != nil {
		return nil, err
	}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for si := range n.alphabet {
			var union []int
			seen := make(map[int]struct{})
			for _, s := range cur.set {
				for _, t := range n.trans[s][si] {
					if _, ok := seen[t]; !ok {
						seen[t] = struct{}{}
						union = append(union, t)
					}
				}
			}
			if len(union) == 0 {
				continue
			}
			closed := n.EpsilonClosure(union)
			k := key(closed)
			id, ok := ids[k]
			if !ok {
				if err := gate.Tick(); err != nil {
					return nil, err
				}
				id = d.AddState(isAccepting(closed))
				ids[k] = id
				queue = append(queue, work{id: id, set: closed})
			}
			d.setTransition(cur.id, si, id)
		}
	}
	return d, nil
}

func refInsertSorted(xs []int, v int) []int {
	i := sort.SearchInts(xs, v)
	if i < len(xs) && xs[i] == v {
		return xs
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// refMinimizeCtx is the map-based MinimizeCtx.
func refMinimizeCtx(ctx context.Context, d *refDFA) (*refDFA, error) {
	gate := budget.NewGate(ctx, "minimize", "", 0)
	t := d.Complete()
	n := t.NumStates()
	if n == 0 {
		return d.Clone(), nil
	}

	// Inverse transition table: for each symbol, for each state, the
	// states mapping into it.
	nsym := len(t.alphabet)
	inv := make([][][]int, nsym)
	for si := 0; si < nsym; si++ {
		inv[si] = make([][]int, n)
	}
	for s := 0; s < n; s++ {
		for si := 0; si < nsym; si++ {
			to := t.trans[s][si]
			inv[si][to] = append(inv[si][to], s)
		}
	}

	// Initial partition: accepting vs non-accepting.
	partOf := make([]int, n)
	var accepting, rejecting []int
	for s := 0; s < n; s++ {
		if t.accept[s] {
			accepting = append(accepting, s)
		} else {
			rejecting = append(rejecting, s)
		}
	}
	var blocks [][]int
	addBlock := func(members []int) int {
		id := len(blocks)
		blocks = append(blocks, members)
		for _, s := range members {
			partOf[s] = id
		}
		return id
	}
	if len(rejecting) > 0 {
		addBlock(rejecting)
	}
	if len(accepting) > 0 {
		addBlock(accepting)
	}

	// Worklist of (block id, symbol) splitters, seeded with every
	// initial block (see the note on enqueueing both halves below).
	type splitter struct{ block, sym int }
	var work []splitter
	for b := range blocks {
		for si := 0; si < nsym; si++ {
			work = append(work, splitter{block: b, sym: si})
		}
	}

	for len(work) > 0 {
		if err := gate.Tick(); err != nil {
			return nil, err
		}
		sp := work[len(work)-1]
		work = work[:len(work)-1]

		// X = states with a transition on sym into the splitter block.
		inX := make(map[int]struct{})
		for _, target := range blocks[sp.block] {
			for _, src := range inv[sp.sym][target] {
				inX[src] = struct{}{}
			}
		}
		if len(inX) == 0 {
			continue
		}

		// Find blocks split by X.
		touched := make(map[int][]int) // block id -> members in X
		for s := range inX {
			b := partOf[s]
			touched[b] = append(touched[b], s)
		}
		blockIDs := make([]int, 0, len(touched))
		for b := range touched {
			blockIDs = append(blockIDs, b)
		}
		sort.Ints(blockIDs)

		for _, b := range blockIDs {
			intersection := touched[b]
			if len(intersection) == len(blocks[b]) {
				continue // not split
			}
			// difference = blocks[b] \ intersection
			inInter := make(map[int]struct{}, len(intersection))
			for _, s := range intersection {
				inInter[s] = struct{}{}
			}
			var difference []int
			for _, s := range blocks[b] {
				if _, ok := inInter[s]; !ok {
					difference = append(difference, s)
				}
			}
			sort.Ints(intersection)
			blocks[b] = intersection
			newID := addBlock(difference)

			// Hopcroft's refinement enqueues only the smaller half when
			// the worklist tracks membership (a pending (B, σ) must be
			// replaced by both halves). We do not track membership, so
			// enqueue both halves — still correct, and the blocks are
			// small enough here that the extra passes are cheap.
			for si := 0; si < nsym; si++ {
				work = append(work, splitter{block: b, sym: si})
				work = append(work, splitter{block: newID, sym: si})
			}
		}
	}

	// Build the quotient automaton.
	out := newRefDFA(t.alphabet)
	blockState := make([]int, len(blocks))
	for i := range blockState {
		blockState[i] = -1
	}
	startBlock := partOf[t.start]
	blockState[startBlock] = out.Start()
	out.SetAccepting(out.Start(), t.accept[t.start])
	queue := []int{startBlock}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		rep := blocks[b][0]
		for si := 0; si < nsym; si++ {
			tb := partOf[t.trans[rep][si]]
			if blockState[tb] < 0 {
				blockState[tb] = out.AddState(t.accept[blocks[tb][0]])
				queue = append(queue, tb)
			}
			out.setTransition(blockState[b], si, blockState[tb])
		}
	}
	return refTrimDead(out), nil
}

// refTrimDead is the trimDead refMinimizeCtx called.
func refTrimDead(d *refDFA) *refDFA {
	n := d.NumStates()
	// Reverse reachability from accepting states.
	radj := make([][]int, n)
	for s := 0; s < n; s++ {
		for _, t := range d.trans[s] {
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

	out := newRefDFA(d.alphabet)
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
		for si, t := range d.trans[s] {
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

// toRef copies d into the oracles' representation.
func toRef(d *DFA) *refDFA {
	r := newRefDFA(d.alphabet)
	for s := 1; s < d.NumStates(); s++ {
		r.AddState(false)
	}
	for s := 0; s < d.NumStates(); s++ {
		r.SetAccepting(s, d.accept[s])
		copy(r.trans[s], d.row(s))
	}
	r.start = d.start
	return r
}

// fromRef copies an oracle result into the current representation.
func fromRef(r *refDFA) *DFA {
	if r == nil {
		return nil
	}
	d := NewDFA(r.alphabet)
	for s := 1; s < r.NumStates(); s++ {
		d.AddState(false)
	}
	for s := 0; s < r.NumStates(); s++ {
		d.SetAccepting(s, r.accept[s])
		copy(d.row(s), r.trans[s])
	}
	d.start = r.start
	return d
}
