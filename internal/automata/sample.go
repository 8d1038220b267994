package automata

import "math/rand"

// RandomAccepted samples a uniformly-ish random accepted trace with
// length at most maxLen, or returns false when no accepted trace of
// that length exists. The walk only follows transitions from which an
// accepting state is still reachable within the remaining budget, so
// sampling never dead-ends; at each step the walker stops (when the
// current state accepts) or continues with probability proportional to
// the available choices.
//
// The workload generators of the benchmark harness use this to drive
// simulators with valid usage traces.
func (d *DFA) RandomAccepted(rng *rand.Rand, maxLen int) ([]string, bool) {
	// viable[k][s]: an accepting state is reachable from s within k steps.
	viable := make([][]bool, maxLen+1)
	viable[0] = make([]bool, d.NumStates())
	for s := 0; s < d.NumStates(); s++ {
		viable[0][s] = d.accept[s]
	}
	for k := 1; k <= maxLen; k++ {
		viable[k] = make([]bool, d.NumStates())
		for s := 0; s < d.NumStates(); s++ {
			if viable[k-1][s] {
				viable[k][s] = true
				continue
			}
			for _, t := range d.row(s) {
				if t >= 0 && viable[k-1][t] {
					viable[k][s] = true
					break
				}
			}
		}
	}
	if !viable[maxLen][d.start] {
		return nil, false
	}

	var out []string
	s := d.start
	for budget := maxLen; ; budget-- {
		type choice struct {
			sym string
			to  int
		}
		var continuations []choice
		if budget > 0 {
			for si, sym := range d.alphabet {
				t := d.row(s)[si]
				if t >= 0 && viable[budget-1][t] {
					continuations = append(continuations, choice{sym: sym, to: t})
				}
			}
		}
		options := len(continuations)
		if d.accept[s] {
			options++
		}
		pick := rng.Intn(options)
		if d.accept[s] && pick == options-1 {
			return out, true
		}
		c := continuations[pick]
		out = append(out, c.sym)
		s = c.to
	}
}
