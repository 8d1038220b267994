package learn

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
)

// refDistinguishingSuffix is the state-pair search that the product
// search (automata.DFA.Search) replaced, kept verbatim up to renaming
// as the oracle of TestDistinguishingSuffixMatchesReference.
// refDistinguishingSuffix finds a shortest suffix on which states i and j
// disagree, or false when they are equivalent. Every visited state pair
// ticks the gate.
func refDistinguishingSuffix(d *automata.DFA, i, j int, gate *budget.Gate) ([]string, bool, error) {
	type pair struct{ a, b int }
	type node struct {
		at     pair
		suffix []string
	}
	start := pair{a: i, b: j}
	visited := map[pair]struct{}{start: {}}
	frontier := []node{{at: start}}
	for len(frontier) > 0 {
		var next []node
		for _, n := range frontier {
			if err := gate.Tick(); err != nil {
				return nil, false, fmt.Errorf("learn: %w", err)
			}
			if d.Accepting(n.at.a) != d.Accepting(n.at.b) {
				return n.suffix, true, nil
			}
			for _, sym := range d.Alphabet() {
				np := pair{a: d.Target(n.at.a, sym), b: d.Target(n.at.b, sym)}
				if np.a < 0 || np.b < 0 {
					// Complete() input makes this unreachable; guard for
					// totality on arbitrary DFAs.
					continue
				}
				if _, ok := visited[np]; ok {
					continue
				}
				visited[np] = struct{}{}
				next = append(next, node{at: np, suffix: concat(n.suffix, []string{sym})})
			}
		}
		frontier = next
	}
	return nil, false, nil
}

// TestDistinguishingSuffixMatchesReference: on every state pair of
// 2,000 random total DFAs (WMethodSuiteCtx completes its input), the
// suffix search returns the reference's suffix after the same number of
// gate ticks.
func TestDistinguishingSuffixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	pool := []string{"a", "b", "c", "d"}
	pairs := 0
	for n := 0; n < 2000; n++ {
		d := automata.NewDFA(pool[:rng.Intn(len(pool))+1])
		states := rng.Intn(8) + 1
		for s := 1; s < states; s++ {
			d.AddState(false)
		}
		for s := 0; s < states; s++ {
			d.SetAccepting(s, rng.Intn(3) == 0)
			for _, sym := range d.Alphabet() {
				if rng.Intn(4) != 0 {
					_ = d.AddTransition(s, sym, rng.Intn(states))
				}
			}
		}
		d = d.Complete()
		for i := 0; i < d.NumStates(); i++ {
			for j := i + 1; j < d.NumStates(); j++ {
				gate := budget.NewGate(context.Background(), "test", "search-nodes", 0)
				got, gotOK, err := distinguishingSuffix(d, i, j, gate)
				refGate := budget.NewGate(context.Background(), "test", "search-nodes", 0)
				want, wantOK, wantErr := refDistinguishingSuffix(d, i, j, refGate)
				if err != nil || wantErr != nil || gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("dfa %d, states %d/%d: suffix %q %v %v, reference %q %v %v", n, i, j, got, gotOK, err, want, wantOK, wantErr)
				}
				if gate.N() != refGate.N() {
					t.Fatalf("dfa %d, states %d/%d: %d gate ticks, reference %d", n, i, j, gate.N(), refGate.N())
				}
				pairs++
			}
		}
	}
	if pairs < 10000 {
		t.Fatalf("only %d state pairs compared", pairs)
	}
}
