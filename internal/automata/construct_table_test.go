package automata

import (
	"testing"

	"github.com/shelley-go/shelley/internal/regex"
)

// Table-driven differential test of the three regex→automaton engines
// against a naive membership oracle (bounded enumeration of the regex's
// language). Every construction must agree with the oracle on every
// trace up to the bound, and all constructions must be pairwise
// equivalent — so a bug in any single engine cannot hide.
func TestConstructionsAgainstOracle(t *testing.T) {
	const maxLen = 5
	cases := []struct {
		name string
		src  string // repo syntax: 0 empty, 1 epsilon, + union, . concat, * star
	}{
		{"empty-language", "0"},
		{"epsilon-only", "1"},
		{"single-symbol", "a"},
		{"three-stars-union", "a* + b* + c*"},
		{"starred-union", "(a + b + c)*"},
		{"plus", "a . a*"},                                    // PCRE a+
		{"nested-plus", "(a . b) . (a . b)*"},                 // (ab)+
		{"opt", "(1 + a)"},                                    // a?
		{"nested-opt-plus", "((1 + a) . b) . ((1 + a) . b)*"}, // (a?b)+
		{"opt-of-plus", "(1 + (a . a*))"},                     // (a+)?
		{"concat-of-stars", "a* . b*"},
		{"union-under-concat", "(a + b) . c"},
		{"star-of-concat", "(a . b)*"},
		{"empty-absorbs", "(a . 0) + b"},
		{"epsilon-in-union", "(1 + a . b)* . c"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := regex.MustParse(tc.src)

			// The naive oracle: the language, enumerated up to maxLen.
			inLang := regex.TraceSet(regex.Enumerate(r, maxLen))

			engines := []struct {
				name string
				dfa  *DFA
			}{
				{"thompson", FromRegexThompson(r).Determinize()},
				{"glushkov", FromRegexGlushkov(r).Determinize()},
				{"derivatives", FromRegexDerivatives(r)},
				{"minimal", CompileMinimal(r)},
			}

			// Every trace over the alphabet up to maxLen, both members
			// and non-members.
			alphabet := regex.Alphabet(r)
			for _, tr := range allTraces(alphabet, maxLen) {
				_, want := inLang[regex.TraceKey(tr)]
				for _, e := range engines {
					if got := e.dfa.Accepts(tr); got != want {
						t.Fatalf("%s: Accepts(%v) = %v, oracle says %v (regex %s)",
							e.name, tr, got, want, tc.src)
					}
				}
			}

			// Pairwise language equality across constructions.
			for i := 0; i < len(engines); i++ {
				for j := i + 1; j < len(engines); j++ {
					if !Equivalent(engines[i].dfa, engines[j].dfa) {
						w, _ := Distinguish(engines[i].dfa, engines[j].dfa)
						t.Fatalf("%s and %s disagree on %v (regex %s)",
							engines[i].name, engines[j].name, w, tc.src)
					}
				}
			}

			// The minimal DFA must be no larger than any other engine's
			// determinization (after their own minimization it is equal;
			// here we only assert minimality against the raw subset
			// constructions).
			min := engines[3].dfa
			for _, e := range engines[:3] {
				if e.dfa.Minimize().NumStates() != min.NumStates() && !isEmpty(min) {
					t.Fatalf("%s minimizes to %d states, CompileMinimal has %d",
						e.name, e.dfa.Minimize().NumStates(), min.NumStates())
				}
			}
		})
	}
}
