package ltlf

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
)

// mintermCompile is the cached path of the pipeline's claim stage: the
// compile over the minterms, relabeled onto the alphabet.
func mintermCompile(ctx context.Context, f Formula, alphabet []string) (*automata.DFA, int, error) {
	minterms, class := Minterms(Atoms(f), alphabet)
	d, err := CompileNegationCtx(ctx, f, minterms)
	if err != nil {
		return nil, 0, err
	}
	return d.Relabel(alphabet, class), d.NumStates(), nil
}

// randomAlphabet draws a sorted alphabet from the formula atoms p, q, r
// and the other events 0, x, y (which sort before and after them), so
// atoms are present or absent and other events are absent, first or
// last.
func randomAlphabet(rng *rand.Rand) []string {
	var out []string
	for _, e := range []string{"0", "p", "q", "r", "x", "y"} {
		if rng.Intn(2) == 0 {
			out = append(out, e)
		}
	}
	return out
}

// TestMintermCompileMatchesConcrete: over random formulas and
// alphabets, the relabeled minterm compile is the very DFA a compile
// over the alphabet returns, from a minterm DFA of the same size.
func TestMintermCompileMatchesConcrete(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ctx := context.Background()
	for i := 0; i < 3000; i++ {
		f := randomFormula(rng, 1+rng.Intn(4), []string{"p", "q", "r"})
		alphabet := randomAlphabet(rng)
		switch i % 4 {
		case 0: // every event an atom
			alphabet = Atoms(f)
		case 1: // no event an atom
			alphabet = []string{"x", "y"}
		}
		want, err := CompileNegationCtx(ctx, f, alphabet)
		if err != nil {
			t.Fatal(err)
		}
		got, states, err := mintermCompile(ctx, f, alphabet)
		if err != nil {
			t.Fatal(err)
		}
		if states != want.NumStates() || !reflect.DeepEqual(got, want) || !automata.Equivalent(got, want) {
			t.Fatalf("%s over %v: minterm compile (%d states) differs from the concrete one (%d states)",
				f, alphabet, states, want.NumStates())
		}
	}
}

// TestMintermCompileTripsSameBudget: under budgets tight enough to
// trip the state or the DNF-clause limit, the minterm compile fails
// exactly when, and as, the concrete one does — on random formulas
// and on the claims of testdata/pathological over their alphabets.
func TestMintermCompileTripsSameBudget(t *testing.T) {
	type claim struct {
		f        Formula
		alphabet []string
	}
	var claims []claim
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "pathological", "*.py"))
	if err != nil {
		t.Fatal(err)
	}
	claimRe := regexp.MustCompile(`@claim\("(.*)"\)`)
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range claimRe.FindAllSubmatch(src, -1) {
			f := MustParse(string(m[1]))
			// The claim's atoms plus other events before, between and
			// after them.
			alphabet := append(Atoms(f), "a.zz", "t.b", "zz")
			slices.Sort(alphabet)
			claims = append(claims, claim{f, alphabet})
		}
	}
	if len(claims) == 0 {
		t.Fatal("no claims found in testdata/pathological")
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		f := randomFormula(rng, 3+rng.Intn(3), []string{"p", "q", "r"})
		claims = append(claims, claim{f, randomAlphabet(rng)})
	}
	trips := 0
	for _, c := range claims {
		for _, l := range []budget.Limits{
			{MaxDFAStates: 3}, {MaxDFAStates: 40}, {MaxDFAStates: 300},
			{MaxRegexSize: 2}, {MaxRegexSize: 8}, {MaxDFAStates: 40, MaxRegexSize: 8},
		} {
			ctx := budget.With(context.Background(), l)
			want, wantErr := CompileNegationCtx(ctx, c.f, c.alphabet)
			got, _, gotErr := mintermCompile(ctx, c.f, c.alphabet)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s over %v under %+v: minterm compile gave %v, concrete %v", c.f, c.alphabet, l, gotErr, wantErr)
			}
			if wantErr != nil {
				trips++
			} else if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s over %v under %+v: automata differ", c.f, c.alphabet, l)
			}
		}
	}
	if trips == 0 {
		t.Fatal("no budget tripped: the limits are too loose to test anything")
	}
}
