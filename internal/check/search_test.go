package check

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
)

// randomSearchDFA builds a partial DFA over alphabet with up to
// maxStates states, some of them unreachable or dead.
func randomSearchDFA(rng *rand.Rand, alphabet []string, maxStates int) *automata.DFA {
	d := automata.NewDFA(alphabet)
	states := rng.Intn(maxStates) + 1
	for s := 1; s < states; s++ {
		d.AddState(false)
	}
	for s := 0; s < states; s++ {
		d.SetAccepting(s, rng.Intn(3) != 0)
		for _, sym := range d.Alphabet() {
			if rng.Intn(4) != 0 {
				_ = d.AddTransition(s, sym, rng.Intn(states))
			}
		}
	}
	return d
}

// randomSearchPair returns a flattened behavior and a subsystem spec
// (or violation automaton) whose alphabets are shared, disjoint or
// overlapping by i.
func randomSearchPair(rng *rand.Rand, i int) (flat, spec *automata.DFA) {
	pool := []string{"a.close", "a.open", "a.test", "b.close", "b.open"}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	var fa, sa []string
	switch i % 3 {
	case 0:
		fa = pool[:rng.Intn(3)+1]
		sa = fa
	case 1:
		fa, sa = pool[:2], pool[2:2+rng.Intn(3)+1]
	default:
		fa, sa = pool[:4], pool[rng.Intn(3):5]
	}
	maxStates := 8
	if i%10 == 0 {
		maxStates = 30
	}
	return randomSearchDFA(rng, fa, maxStates), randomSearchDFA(rng, sa, 6)
}

func symbolSet(syms []string) map[string]struct{} {
	set := make(map[string]struct{}, len(syms))
	for _, s := range syms {
		set[s] = struct{}{}
	}
	return set
}

// first adapts a witness list to the (trace, found) results of the
// reference searches.
func first(ws [][]string) ([]string, bool) {
	if len(ws) == 0 {
		return nil, false
	}
	return ws[0], true
}

// TestSearchesMatchReference: on 12,000 random pairs, the usage search
// (projected onto the spec's alphabet), the violation lists at max 1–4
// and the claim search return exactly the witnesses of the searches they
// replaced.
func TestSearchesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	cfg := config{ctx: context.Background()}
	for i := 0; i < 12000; i++ {
		flat, spec := randomSearchPair(rng, i)
		specSyms := symbolSet(spec.Alphabet())

		ws, err := badUsages(cfg, "usage-search", flat, spec, 1)
		got, gotOK := first(ws)
		want, wantOK, wantErr := refShortestBadUsage(cfg, flat, spec, specSyms)
		if err != nil || wantErr != nil || gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("pair %d: usage search = %q %v %v, reference %q %v %v", i, got, gotOK, err, want, wantOK, wantErr)
		}
		for max := 1; max <= 4; max++ {
			got, err := badUsages(cfg, "usage-violations", flat, spec, max)
			want, wantErr := refBadUsages(cfg, flat, spec, specSyms, max)
			if err != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("pair %d, max %d: violations = %q %v, reference %q %v", i, max, got, err, want, wantErr)
			}
		}
		ws, err = claimViolation(cfg, flat, spec)
		got, gotOK = first(ws)
		want, wantOK, wantErr = refClaimSearch(cfg, flat, spec)
		if err != nil || wantErr != nil || gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("pair %d: claim search = %q %v %v, reference %q %v %v", i, got, gotOK, err, want, wantOK, wantErr)
		}
	}
}

// TestSearchBudgetsMatchReference: each of the three searches trips
// MaxSearchNodes at every limit where the search it replaced tripped,
// with the same error, and succeeds with the same witnesses from the
// first limit where that search succeeded.
func TestSearchBudgetsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 600; i++ {
		flat, spec := randomSearchPair(rng, i)
		specSyms := symbolSet(spec.Alphabet())
		max := i%4 + 1
		searches := []struct {
			name      string
			got, want func(cfg config) (any, error)
		}{
			{"usage-search",
				func(cfg config) (any, error) {
					ws, err := badUsages(cfg, "usage-search", flat, spec, 1)
					w, ok := first(ws)
					return fmt.Sprint(w, ok), err
				},
				func(cfg config) (any, error) {
					w, ok, err := refShortestBadUsage(cfg, flat, spec, specSyms)
					return fmt.Sprint(w, ok), err
				}},
			{"usage-violations",
				func(cfg config) (any, error) { return badUsages(cfg, "usage-violations", flat, spec, max) },
				func(cfg config) (any, error) { return refBadUsages(cfg, flat, spec, specSyms, max) }},
			{"claim-search",
				func(cfg config) (any, error) {
					ws, err := claimViolation(cfg, flat, spec)
					w, ok := first(ws)
					return fmt.Sprint(w, ok), err
				},
				func(cfg config) (any, error) {
					w, ok, err := refClaimSearch(cfg, flat, spec)
					return fmt.Sprint(w, ok), err
				}},
		}
		for _, s := range searches {
			for limit := 1; ; limit++ {
				cfg := config{ctx: budget.With(context.Background(), budget.Limits{MaxSearchNodes: limit})}
				got, err := s.got(cfg)
				want, wantErr := s.want(cfg)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("pair %d, %s, limit %d: error %v, reference %v", i, s.name, limit, err, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pair %d, %s, limit %d: %v, reference %v", i, s.name, limit, got, want)
				}
				break
			}
		}
	}
}
