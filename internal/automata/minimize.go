package automata

import (
	"context"
	"slices"
	"sync"

	"github.com/shelley-go/shelley/internal/budget"
)

// Minimize returns the minimal DFA for the language of d, using
// Hopcroft's partition-refinement algorithm on the completed automaton,
// then trimming the dead partition back out. The result's states are
// numbered in BFS order from the start state, so minimization is
// canonical: two equivalent DFAs minimize to identical automata up to
// this numbering.
func (d *DFA) Minimize() *DFA {
	m, _ := d.MinimizeCtx(context.Background())
	return m
}

// MinimizeCtx is Minimize with cancellation observed between
// refinement passes. Minimization is polynomial in an input whose size
// the construction budgets already bound, so no state budget applies
// here; the gate only makes an expired deadline stop the worklist.
//
// The refinement runs on the completed automaton without building it:
// state n stands for the dead sink when some transition is absent. The
// partition lives in flat arrays (blocks are ranges of elems), so a
// splitter costs no allocation. The coarsest stable partition is
// unique, and the quotient is numbered by BFS, so the result does not
// depend on the order splitters are taken in.
func (d *DFA) MinimizeCtx(ctx context.Context) (*DFA, error) {
	gate := budget.NewGate(ctx, "minimize", "", 0)
	n, nsym := d.NumStates(), len(d.alphabet)
	if n == 0 {
		return d.Clone(), nil
	}
	total := n
	if slices.Contains(d.trans, -1) {
		total = n + 1
	}
	target := func(s, si int) int {
		if s < n && d.trans[s*nsym+si] >= 0 {
			return d.trans[s*nsym+si]
		}
		return n
	}

	// Working memory comes from a pool: minimization runs once per
	// compiled automaton.
	m := nsym * total
	sc := minScratches.Get().(*minScratch)
	defer sc.release()
	sc.ints = zeroed(sc.ints, 2*m+1+3*total+4*(total+1))
	sc.bools = zeroed(sc.bools, m+total)

	// Inverse transitions in CSR form: the predecessors of t on symbol
	// si are preds[off[si*total+t]:off[si*total+t+1]].
	off, preds, ints := sc.ints[:m+1], sc.ints[m+1:2*m+1], sc.ints[2*m+1:]
	for s := 0; s < total; s++ {
		for si := 0; si < nsym; si++ {
			off[si*total+target(s, si)]++
		}
	}
	for i := 1; i <= m; i++ {
		off[i] += off[i-1]
	}
	for s := total - 1; s >= 0; s-- {
		for si := nsym - 1; si >= 0; si-- {
			i := si*total + target(s, si)
			off[i]--
			preds[off[i]] = s
		}
	}

	// Block b is elems[first[b]:end[b]]; loc inverts elems. The initial
	// partition is rejecting vs accepting states.
	// Per-block arrays get one spare slot for the empty initial block.
	elems, loc, blockOf, ints := ints[:total], ints[total:2*total], ints[2*total:3*total], ints[3*total:]
	first, end, marked, blockState := ints[:total+1], ints[total+1:2*total+2], ints[2*total+2:3*total+3], ints[3*total+3:]
	accepting := func(s int) bool { return s < n && d.accept[s] }
	blocks, next := 0, 0
	for _, acc := range []bool{false, true} {
		first[blocks] = next
		for s := 0; s < total; s++ {
			if accepting(s) == acc {
				elems[next], loc[s], blockOf[s] = s, next, blocks
				next++
			}
		}
		end[blocks] = next
		if next > first[blocks] {
			blocks++
		}
	}

	// Hopcroft's worklist of (block, symbol) splitters: when a block in
	// the worklist splits, both halves stay in it; otherwise the smaller
	// half joins it.
	inWork, live := sc.bools[:m], sc.bools[m:]
	work := sc.work[:0] // block*nsym + symbol
	for b := 0; b < blocks; b++ {
		for si := 0; si < nsym; si++ {
			inWork[b*nsym+si] = true
			work = append(work, b*nsym+si)
		}
	}
	xs, touched := sc.xs[:0], sc.touched[:0]
	for len(work) > 0 {
		if err := gate.Tick(); err != nil {
			return nil, err
		}
		sp := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[sp] = false
		b, si := sp/nsym, sp%nsym

		// X = states with a transition on si into block b; each state
		// has one si-successor, so X has no duplicates.
		xs = xs[:0]
		for _, t := range elems[first[b]:end[b]] {
			xs = append(xs, preds[off[si*total+t]:off[si*total+t+1]]...)
		}
		// Move each member of X to the front of its block.
		touched = touched[:0]
		for _, s := range xs {
			c := blockOf[s]
			if marked[c] == 0 {
				touched = append(touched, c)
			}
			i, j := loc[s], first[c]+marked[c]
			elems[i], elems[j] = elems[j], elems[i]
			loc[elems[i]], loc[elems[j]] = i, j
			marked[c]++
		}
		// Split every block X cuts: its marked front becomes a new block.
		for _, c := range touched {
			k := marked[c]
			marked[c] = 0
			if k == end[c]-first[c] {
				continue
			}
			nb := blocks
			blocks++
			first[nb], end[nb] = first[c], first[c]+k
			first[c] += k
			for _, s := range elems[first[nb]:end[nb]] {
				blockOf[s] = nb
			}
			small := nb
			if end[c]-first[c] < k {
				small = c
			}
			for si := 0; si < nsym; si++ {
				add := small
				if inWork[c*nsym+si] {
					add = nb
				}
				if !inWork[add*nsym+si] {
					inWork[add*nsym+si] = true
					work = append(work, add*nsym+si)
				}
			}
		}
	}

	// A state is live when it reaches an accepting state; the quotient
	// keeps the start block and the live blocks it reaches, numbered in
	// BFS order, with edges into dead blocks left absent.
	xs = xs[:0]
	for s := 0; s < n; s++ {
		if d.accept[s] {
			live[s] = true
			xs = append(xs, s)
		}
	}
	for len(xs) > 0 {
		t := xs[len(xs)-1]
		xs = xs[:len(xs)-1]
		for si := 0; si < nsym; si++ {
			for _, p := range preds[off[si*total+t]:off[si*total+t+1]] {
				if !live[p] {
					live[p] = true
					xs = append(xs, p)
				}
			}
		}
	}
	out := newDFA(d.alphabet)
	out.reserve(blocks - 1)
	for b := 0; b < blocks; b++ {
		blockState[b] = -1
	}
	blockState[blockOf[d.start]] = out.start
	out.accept[out.start] = d.accept[d.start]
	queue := append(xs[:0], blockOf[d.start])
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		rep := elems[first[b]]
		for si := 0; si < nsym; si++ {
			t := target(rep, si)
			if !live[t] {
				continue
			}
			tb := blockOf[t]
			if blockState[tb] < 0 {
				blockState[tb] = out.AddState(d.accept[t])
				queue = append(queue, tb)
			}
			out.trans[blockState[b]*nsym+si] = blockState[tb]
		}
	}
	sc.work, sc.xs, sc.touched = work, xs, touched
	return out, nil
}

// minScratch is MinimizeCtx's working memory, pooled across calls.
type minScratch struct {
	ints              []int
	bools             []bool
	work, xs, touched []int
}

var minScratches = sync.Pool{New: func() any { return new(minScratch) }}

// release returns sc to the pool unless it grew past the size of the
// automata the pipeline serves.
func (sc *minScratch) release() {
	if cap(sc.ints) <= 1<<16 {
		minScratches.Put(sc)
	}
}

// zeroed returns s resized to n and cleared, reallocating only when it
// is too small.
func zeroed[T int | bool](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
