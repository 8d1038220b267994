package automata_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/mine"
)

// refDiff is the drift classification that built both difference
// products with the reference ProductCtx (product_ref_test.go) before
// searching them, kept verbatim up to renaming.
func refDiff(ctx context.Context, mined, static *automata.DFA) (verdict string, counterexample, missing []string, err error) {
	diffOp := func(a, b bool) bool { return a && !b }

	over, err := automata.ProductCtx(ctx, mined, static, diffOp)
	if err != nil {
		return "", nil, nil, err
	}
	if w, ok := over.ShortestAccepted(); ok {
		return mine.VerdictDrift, w, nil, nil
	}
	under, err := automata.ProductCtx(ctx, static, mined, diffOp)
	if err != nil {
		return "", nil, nil, err
	}
	if w, ok := under.ShortestAccepted(); ok {
		return mine.VerdictUnder, nil, w, nil
	}
	return mine.VerdictConformant, nil, nil, nil
}

// randomModel builds a partial DFA over alphabet, as a mined or static
// model of up to maxStates states.
func randomModel(rng *rand.Rand, alphabet []string, maxStates int) *automata.DFA {
	d := automata.NewDFA(alphabet)
	states := rng.Intn(maxStates) + 1
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
	return d
}

// TestDiffMatchesProductReference: on 10,000 random model pairs over
// shared, disjoint and overlapping alphabets, mine.Diff returns the
// reference's verdict and witnesses, and at every MaxDFAStates limit
// under which the reference succeeds it succeeds with the same result.
func TestDiffMatchesProductReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	pool := []string{"close", "open", "read", "reset", "write"}
	for i := 0; i < 10000; i++ {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		ma, sa := pool[:3], pool[:3]
		switch i % 3 {
		case 1:
			ma, sa = pool[:2], pool[2:]
		case 2:
			ma, sa = pool[:3], pool[1:]
		}
		mined, static := randomModel(rng, ma, 8), randomModel(rng, sa, 6)
		result := func(fn func(context.Context, *automata.DFA, *automata.DFA) (string, []string, []string, error), ctx context.Context) (string, error) {
			v, cex, missing, err := fn(ctx, mined, static)
			return fmt.Sprintf("%s %q %q", v, cex, missing), err
		}
		want, err := result(refDiff, context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got, err := result(mine.Diff, context.Background()); err != nil || got != want {
			t.Fatalf("pair %d: Diff = %s %v, reference %s", i, got, err, want)
		}
		if i%10 != 0 {
			continue
		}
		for limit := 1; limit <= 50; limit++ {
			ctx := budget.With(context.Background(), budget.Limits{MaxDFAStates: limit})
			if _, err := result(refDiff, ctx); err != nil {
				continue
			}
			if got, err := result(mine.Diff, ctx); err != nil || got != want {
				t.Fatalf("pair %d, MaxDFAStates %d: Diff = %s %v, reference %s", i, limit, got, err, want)
			}
		}
	}
}
