package automata

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/shelley-go/shelley/internal/budget"
)

// randomNFAPair builds the same random ε-NFA twice, as an NFA and as
// the oracle's refNFA: up to maxStates states (so some pass 64), up to
// four symbols, sparse symbol and ε edges and a random start.
func randomNFAPair(rng *rand.Rand, maxStates int) (*NFA, *refNFA) {
	syms := []string{"a", "b", "c", "d"}[:rng.Intn(4)+1]
	n, ref := NewNFA(syms), newRefNFA(syms)
	states := rng.Intn(maxStates) + 1
	for s := 1; s < states; s++ {
		n.AddState(false)
		ref.AddState(false)
	}
	for s := 0; s < states; s++ {
		if rng.Intn(3) == 0 {
			n.SetAccepting(s, true)
			ref.accept[s] = true
		}
		for k := rng.Intn(4); k > 0; k-- {
			sym, to := syms[rng.Intn(len(syms))], rng.Intn(states)
			_ = n.AddTransition(s, sym, to)
			_ = ref.AddTransition(s, sym, to)
		}
		if rng.Intn(3) == 0 {
			to := rng.Intn(states)
			n.AddEpsilon(s, to)
			ref.AddEpsilon(s, to)
		}
	}
	start := rng.Intn(states)
	n.SetStart(start)
	ref.start = start
	return n, ref
}

// randomDFA builds a partial DFA with up to maxStates states, some of
// them unreachable or dead.
func randomDFA(rng *rand.Rand, maxStates int) *DFA {
	d := NewDFA([]string{"a", "b", "c"}[:rng.Intn(3)+1])
	states := rng.Intn(maxStates) + 1
	for s := 1; s < states; s++ {
		d.AddState(false)
	}
	for s := 0; s < states; s++ {
		d.SetAccepting(s, rng.Intn(4) == 0)
		for si := range d.alphabet {
			if rng.Intn(4) != 0 {
				d.setTransition(s, si, rng.Intn(states))
			}
		}
	}
	return d
}

// sameResult fails unless the two constructions returned equal
// automata, or equal errors.
func sameResult(t *testing.T, what string, got *DFA, gotErr error, want *DFA, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, oracle %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs from the oracle:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestDeterminizeMinimizeMatchOracle pins the slice-based subset
// construction and minimization to the map-based originals on 20,000
// random automata each, a tenth of them with more than 64 states.
func TestDeterminizeMinimizeMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ctx := budget.With(context.Background(), budget.Limits{MaxDFAStates: 400})
	for i := 0; i < 20000; i++ {
		max := 12
		if i%10 == 0 {
			max = 130
		}
		n, ref := randomNFAPair(rng, max)
		got, gotErr := n.DeterminizeCtx(ctx)
		want, wantErr := ref.determinizeCtx(ctx)
		sameResult(t, fmt.Sprintf("determinize #%d", i), got, gotErr, fromRef(want), wantErr)
		if gotErr == nil {
			got, _ := got.MinimizeCtx(ctx)
			want, _ := refMinimizeCtx(ctx, want)
			sameResult(t, fmt.Sprintf("minimize of determinized #%d", i), got, nil, fromRef(want), nil)
		}
		d := randomDFA(rng, max)
		gotM, _ := d.MinimizeCtx(ctx)
		wantM, _ := refMinimizeCtx(ctx, toRef(d))
		sameResult(t, fmt.Sprintf("minimize #%d", i), gotM, nil, fromRef(wantM), nil)
	}
}

// FuzzDeterminizeMinimizeMatchOracle is the same comparison on
// automata drawn from a fuzzed seed and size.
func FuzzDeterminizeMinimizeMatchOracle(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 64, 1000} {
		f.Add(seed, uint8(20))
		f.Add(seed, uint8(200))
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		rng := rand.New(rand.NewSource(seed))
		ctx := budget.With(context.Background(), budget.Limits{MaxDFAStates: 400})
		n, ref := randomNFAPair(rng, int(size)+1)
		got, gotErr := n.DeterminizeCtx(ctx)
		want, wantErr := ref.determinizeCtx(ctx)
		sameResult(t, "determinize", got, gotErr, fromRef(want), wantErr)
		d := randomDFA(rng, int(size)+1)
		gotM, _ := d.MinimizeCtx(ctx)
		wantM, _ := refMinimizeCtx(ctx, toRef(d))
		sameResult(t, "minimize", gotM, nil, fromRef(wantM), nil)
	})
}
