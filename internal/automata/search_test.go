package automata

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"github.com/shelley-go/shelley/internal/regex"
)

// randomDFAOver builds a partial DFA over alphabet with up to maxStates
// states, some of them unreachable or dead.
func randomDFAOver(rng *rand.Rand, alphabet []string, maxStates int) *DFA {
	d := NewDFA(alphabet)
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

// randomAlphabets returns the alphabets of a random DFA pair, shared,
// disjoint or overlapping by mode.
func randomAlphabets(rng *rand.Rand, mode int) (a, b []string) {
	pool := []string{"a", "b", "c", "d", "e"}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	switch mode % 3 {
	case 0: // shared
		a = pool[:rng.Intn(3)+1]
		return a, a
	case 1: // disjoint
		n := rng.Intn(2) + 1
		return pool[:n], pool[n : n+rng.Intn(2)+1]
	default: // overlapping
		return pool[:3], pool[2:5]
	}
}

// TestSearchMatchesProductReference pins every search of the library to
// a shortest accepted trace of the product the reference builds, on
// 12,000 random DFA pairs over shared, disjoint and overlapping
// alphabets.
func TestSearchMatchesProductReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 12000; i++ {
		sa, sb := randomAlphabets(rng, i)
		maxStates := 8
		if i%10 == 0 {
			maxStates = 40
		}
		a, b := randomDFAOver(rng, sa, maxStates), randomDFAOver(rng, sb, maxStates)

		got, gotOK := a.ShortestAccepted()
		want, wantOK := refShortestAccepted(a)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("pair %d: ShortestAccepted = %q %v, reference %q %v", i, got, gotOK, want, wantOK)
		}
		got, gotOK = Distinguish(a, b)
		want, wantOK = refDistinguish(a, b)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("pair %d: Distinguish = %q %v, reference %q %v", i, got, gotOK, want, wantOK)
		}
		gotOK, got = SubsetDFA(a, b)
		wantOK, want = refSubsetDFA(a, b)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("pair %d: SubsetDFA = %v %q, reference %v %q", i, gotOK, got, wantOK, want)
		}
	}
}

// TestSearchReturnsDistinctPairsInShortlexOrder: asked for many
// witnesses, the search returns accepted traces in shortlex order, the
// first of them the reference's shortest.
func TestSearchReturnsDistinctPairsInShortlexOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	and := func(x, y bool) bool { return x && y }
	for i := 0; i < 2000; i++ {
		sa, sb := randomAlphabets(rng, i)
		a, b := randomDFAOver(rng, sa, 8), randomDFAOver(rng, sb, 8)
		ws, err := a.Search(a.Start(), b.Over(a.Alphabet(), false), and, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := refShortestAccepted(Intersect(a, b))
		if ok != (len(ws) > 0) || ok && !reflect.DeepEqual(ws[0], want) {
			t.Fatalf("pair %d: first witness %q, reference %q %v", i, ws, want, ok)
		}
		for j, w := range ws {
			if !a.Accepts(w) || !b.Accepts(w) {
				t.Fatalf("pair %d: witness %q not in the intersection", i, w)
			}
			if j > 0 && !regex.LessTrace(ws[j-1], w) {
				t.Fatalf("pair %d: witnesses %q out of shortlex order", i, ws)
			}
		}
	}
}

// FuzzSearchMatchesProduct: on two fuzzed languages, the searches
// return what the reference product construction's search returns.
func FuzzSearchMatchesProduct(f *testing.F) {
	for i, s := range fuzzSeeds {
		f.Add(s, fuzzSeeds[(i+3)%len(fuzzSeeds)])
	}
	f.Fuzz(func(t *testing.T, srcA, srcB string) {
		ra, err := regex.Parse(srcA)
		if err != nil {
			return
		}
		rb, err := regex.Parse(srcB)
		if err != nil {
			return
		}
		ctx := fuzzBudget()
		da, err := FromRegexDerivativesCtx(ctx, ra)
		if !okOrBudget(t, "derivatives A", err) {
			return
		}
		db, err := FromRegexDerivativesCtx(ctx, rb)
		if !okOrBudget(t, "derivatives B", err) {
			return
		}
		got, gotEq := Distinguish(da, db)
		want, wantEq := refDistinguish(da, db)
		if gotEq != wantEq || !reflect.DeepEqual(got, want) {
			t.Fatalf("Distinguish(%q, %q) = %q %v, reference %q %v", srcA, srcB, got, gotEq, want, wantEq)
		}
		got, gotOK, err := ShortestDifference(context.Background(), da, db)
		if err != nil {
			t.Fatal(err)
		}
		want, wantOK := refShortestAccepted(Difference(da, db))
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("ShortestDifference(%q, %q) = %q %v, reference %q %v", srcA, srcB, got, gotOK, want, wantOK)
		}
	})
}
