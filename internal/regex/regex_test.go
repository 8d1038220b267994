package regex

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSmartConstructorsNormalize(t *testing.T) {
	a, b, c := Symbol("a"), Symbol("b"), Symbol("c")
	tests := []struct {
		name string
		got  Regex
		want Regex
	}{
		{"concat identity left", Concat(Epsilon(), a), a},
		{"concat identity right", Concat(a, Epsilon()), a},
		{"concat annihilates left", Concat(Empty(), a), Empty()},
		{"concat annihilates right", Concat(a, Empty()), Empty()},
		{"concat annihilates middle", Concat(a, Empty(), b), Empty()},
		{"concat flattens", Concat(Concat(a, b), c), Concat(a, Concat(b, c))},
		{"concat empty arglist is epsilon", Concat(), Epsilon()},
		{"concat singleton", Concat(a), a},
		{"union identity left", Union(Empty(), a), a},
		{"union identity right", Union(a, Empty()), a},
		{"union idempotent", Union(a, a), a},
		{"union commutative", Union(a, b), Union(b, a)},
		{"union associative", Union(Union(a, b), c), Union(a, Union(b, c))},
		{"union flattens and dedups", Union(Union(a, b), Union(b, a)), Union(a, b)},
		{"union empty arglist is empty set", Union(), Empty()},
		{"union singleton", Union(a), a},
		{"star of empty set", Star(Empty()), Epsilon()},
		{"star of epsilon", Star(Epsilon()), Epsilon()},
		{"star of star", Star(Star(a)), Star(a)},
		{"opt", Union(Epsilon(), a), Union(a, Epsilon())},
		{"plus", Concat(a, Star(Star(a))), Concat(a, Star(a))},
		{"symbols helper", symbols("a", "b"), Concat(a, b)},
		{"symbols helper empty", symbols(), Epsilon()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !equal(tt.got, tt.want) {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestStringAndParseRoundTrip(t *testing.T) {
	tests := []struct {
		r    Regex
		want string
	}{
		{Empty(), "0"},
		{Epsilon(), "1"},
		{Symbol("a"), "a"},
		{Symbol("a.open"), "a.open"},
		{Concat(Symbol("a"), Symbol("b")), "a . b"},
		{Union(Symbol("a"), Symbol("b")), "a + b"},
		{Star(Symbol("a")), "a*"},
		{Star(Concat(Symbol("a"), Symbol("b"))), "(a . b)*"},
		{Star(Union(Symbol("a"), Symbol("b"))), "(a + b)*"},
		{Concat(Union(Symbol("a"), Symbol("b")), Symbol("c")), "(a + b) . c"},
		// Canonical union order sorts atoms before composites.
		{Union(Concat(Symbol("a"), Symbol("b")), Symbol("c")), "c + a . b"},
		{
			// Example 3 of the paper, ongoing component, in the raw
			// (paper-verbatim) form that inference produces.
			RawStar(RawCat(Symbol("a"), RawAlt(RawCat(Symbol("b"), Empty()), Symbol("c")))),
			"(a . (b . 0 + c))*",
		},
	}
	for _, tt := range tests {
		t.Run(tt.want, func(t *testing.T) {
			if got := tt.r.String(); got != tt.want {
				t.Fatalf("String() = %q, want %q", got, tt.want)
			}
			back, err := Parse(tt.want)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.want, err)
			}
			// Parse normalizes, so raw (paper-verbatim) inputs round-trip
			// up to language equality; normalized inputs round-trip
			// structurally.
			if !Equivalent(back, tt.r) {
				t.Errorf("Parse(String()) = %v, not equivalent to %v", back, tt.r)
			}
			if equal(Simplify(tt.r), tt.r) && !equal(back, tt.r) {
				t.Errorf("Parse(String()) = %v, want structural %v", back, tt.r)
			}
		})
	}
}

func TestParseJuxtapositionAndErrors(t *testing.T) {
	r, err := Parse("a b c")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !equal(r, symbols("a", "b", "c")) {
		t.Errorf("juxtaposition: got %v", r)
	}

	for _, bad := range []string{"", "(", "(a", "a +", "+a", "a )", "*", "a ] b"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestParseNumericIdentBoundary(t *testing.T) {
	// "0" and "1" are ∅ and ε only when standalone; identifiers may
	// contain digits.
	r := MustParse("open1")
	if !equal(r, Symbol("open1")) {
		t.Errorf("got %v", r)
	}
	r = MustParse("0 + s1.go")
	if !equal(r, Symbol("s1.go")) {
		t.Errorf("got %v", r)
	}
}

func TestNullable(t *testing.T) {
	tests := []struct {
		src  string
		want bool
	}{
		{"0", false},
		{"1", true},
		{"a", false},
		{"a*", true},
		{"a . b", false},
		{"a* . b*", true},
		{"a + 1", true},
		{"a + b", false},
		{"(a . b)* . (c + 1)", true},
	}
	for _, tt := range tests {
		if got := Nullable(MustParse(tt.src)); got != tt.want {
			t.Errorf("Nullable(%s) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestDerivative(t *testing.T) {
	tests := []struct {
		src, by, want string
	}{
		{"a", "a", "1"},
		{"a", "b", "0"},
		{"a . b", "a", "b"},
		{"a . b", "b", "0"},
		{"a + b", "a", "1"},
		{"a*", "a", "a*"},
		{"(a . b)*", "a", "b . (a . b)*"},
		{"a* . b", "b", "1"},
		{"a* . b", "a", "a* . b"},
		{"(a + b)* . c", "c", "1"},
	}
	for _, tt := range tests {
		got := Derivative(MustParse(tt.src), tt.by)
		want := MustParse(tt.want)
		if !equal(got, want) {
			t.Errorf("Derivative(%s, %s) = %v, want %v", tt.src, tt.by, got, want)
		}
	}
}

func TestMatch(t *testing.T) {
	tests := []struct {
		src   string
		trace []string
		want  bool
	}{
		{"0", nil, false},
		{"1", nil, true},
		{"1", []string{"a"}, false},
		{"a", []string{"a"}, true},
		{"a", []string{"b"}, false},
		{"a . b . c", []string{"a", "b", "c"}, true},
		{"a . b . c", []string{"a", "b"}, false},
		{"(a + b)*", nil, true},
		{"(a + b)*", []string{"a", "b", "b", "a"}, true},
		{"(a + b)*", []string{"a", "c"}, false},
		{"(a . b)* . a", []string{"a", "b", "a", "b", "a"}, true},
		{"(a . b)* . a", []string{"a", "b", "a", "b"}, false},
		// Example 3 of the paper: full inferred behavior.
		{"(a . (b . 0 + c))* + (a . (b . 0 + c))* . a . b", []string{"a", "c", "a", "c"}, true},
		{"(a . (b . 0 + c))* + (a . (b . 0 + c))* . a . b", []string{"a", "c", "a", "b"}, true},
		{"(a . (b . 0 + c))* + (a . (b . 0 + c))* . a . b", []string{"a", "b", "a"}, false},
	}
	for _, tt := range tests {
		if got := Match(MustParse(tt.src), tt.trace); got != tt.want {
			t.Errorf("Match(%s, %v) = %v, want %v", tt.src, tt.trace, got, tt.want)
		}
	}
}

func TestMatchPrefix(t *testing.T) {
	r := MustParse("a . b . c")
	for i, tt := range []struct {
		trace []string
		want  bool
	}{
		{nil, true},
		{[]string{"a"}, true},
		{[]string{"a", "b"}, true},
		{[]string{"a", "b", "c"}, true},
		{[]string{"b"}, false},
		{[]string{"a", "b", "c", "d"}, false},
	} {
		if got := !IsEmptyLanguage(DeriveTrace(r, tt.trace)); got != tt.want {
			t.Errorf("case %d: residual after %v non-empty = %v, want %v", i, tt.trace, got, tt.want)
		}
	}
}

func TestEnumerate(t *testing.T) {
	got := Enumerate(MustParse("(a + b . c)*"), 3)
	want := [][]string{
		{},
		{"a"},
		{"a", "a"},
		{"b", "c"},
		{"a", "a", "a"},
		{"a", "b", "c"},
		{"b", "c", "a"},
	}
	if len(got) != len(want) {
		t.Fatalf("Enumerate returned %d traces, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if !sameTrace(got[i], want[i]) {
			t.Errorf("Enumerate[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEnumerateEmptyAndEpsilon(t *testing.T) {
	if got := Enumerate(Empty(), 5); len(got) != 0 {
		t.Errorf("Enumerate(0) = %v, want empty", got)
	}
	got := Enumerate(Epsilon(), 5)
	if len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("Enumerate(1) = %v, want [[]]", got)
	}
}

func TestShortestTrace(t *testing.T) {
	tests := []struct {
		src  string
		want []string
		ok   bool
	}{
		{"0", nil, false},
		{"a . 0", nil, false},
		{"1", []string{}, true},
		{"a*", []string{}, true},
		{"a . b + c", []string{"c"}, true},
		{"b + a", []string{"a"}, true}, // lexicographic tie-break
		{"(a . b)* . a . c", []string{"a", "c"}, true},
	}
	for _, tt := range tests {
		// A shortest member of L(r) is a shortest trace distinguishing r from ∅.
		got, eq := Distinguish(MustParse(tt.src), Empty())
		if ok := !eq; ok != tt.ok {
			t.Errorf("Distinguish(%s, 0) found = %v, want %v", tt.src, ok, tt.ok)
			continue
		}
		if !eq && !sameTrace(got, tt.want) {
			t.Errorf("Distinguish(%s, 0) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEquivalent(t *testing.T) {
	tests := []struct {
		a, b string
		want bool
	}{
		{"a", "a", true},
		{"a", "b", false},
		{"(a + b)*", "(a* . b*)*", true},
		{"(a . b)*", "(b . a)*", false},
		{"a . (b + c)", "a . b + a . c", true},
		{"(a*)*", "a*", true},
		{"1 + a . a*", "a*", true},
		{"a . a*", "a* . a", true},
		{"0*", "1", true},
		{"a . 0", "0", true},
		{"(a + 1) . (a + 1)", "1 + a + a . a", true},
		// Strings with at least one 'a': first-a decomposition.
		{"(a + b)* . a . (a + b)*", "b* . a . (a + b)*", true},
		// Ending-in-a ∪ starting-with-a misses e.g. "bab".
		{"(a + b)* . a . (a + b)*", "(a + b)* . a + a . (a + b)*", false},
		{"a*", "a* . b*", false},
	}
	for _, tt := range tests {
		if got := Equivalent(MustParse(tt.a), MustParse(tt.b)); got != tt.want {
			t.Errorf("Equivalent(%s, %s) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestDistinguishReturnsShortestWitness(t *testing.T) {
	w, eq := Distinguish(MustParse("(a . b)*"), MustParse("(b . a)*"))
	if eq {
		t.Fatal("expected languages to differ")
	}
	if !sameTrace(w, []string{"a", "b"}) {
		t.Errorf("witness = %v, want [a b]", w)
	}
	// ε is in one language but not the other.
	w, eq = Distinguish(MustParse("a*"), MustParse("a . a*"))
	if eq {
		t.Fatal("expected languages to differ")
	}
	if len(w) != 0 {
		t.Errorf("witness = %v, want []", w)
	}
}

func TestSubset(t *testing.T) {
	tests := []struct {
		a, b string
		want bool
	}{
		{"a", "(a + b)*", true},
		{"(a + b)*", "a", false},
		{"0", "0", true},
		{"0", "a", true},
		{"a . b", "a . (b + c)", true},
		{"a . c", "a . b", false},
		{"(a . b)*", "(a + b)*", true},
	}
	for _, tt := range tests {
		// L(a) ⊆ L(b) exactly when a + b and b denote the same language.
		a, b := MustParse(tt.a), MustParse(tt.b)
		if _, got := Distinguish(Union(a, b), b); got != tt.want {
			t.Errorf("%s ⊆ %s = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestCounterexampleSubset(t *testing.T) {
	// (a + b) and b disagree exactly on L(a) \ L(b).
	a, b := MustParse("a . (b + c)"), MustParse("a . b")
	ce, ok := Distinguish(Union(a, b), b)
	if ok {
		t.Fatal("expected inclusion to fail")
	}
	if !sameTrace(ce, []string{"a", "c"}) {
		t.Errorf("counterexample = %v, want [a c]", ce)
	}
}

func TestAlphabet(t *testing.T) {
	r := MustParse("(z + a . m)* . a.open")
	want := []string{"a", "a.open", "m", "z"}
	if got := Alphabet(r); !reflect.DeepEqual(got, want) {
		t.Errorf("Alphabet = %v, want %v", got, want)
	}
}

func TestIsEmptyLanguage(t *testing.T) {
	tests := []struct {
		src  string
		want bool
	}{
		{"0", true},
		{"1", false},
		{"a", false},
		{"a . 0", true},
		{"a + 0", false},
		{"0*", false},
	}
	for _, tt := range tests {
		if got := IsEmptyLanguage(MustParse(tt.src)); got != tt.want {
			t.Errorf("IsEmptyLanguage(%s) = %v, want %v", tt.src, got, tt.want)
		}
	}
	// Non-normalized trees (constructed directly) must also be handled.
	if !IsEmptyLanguage(Cat{Parts: []Regex{Sym{Name: "a"}, EmptySet{}}}) {
		t.Error("raw Cat with ∅ should be empty")
	}
	if IsEmptyLanguage(Alt{Parts: []Regex{EmptySet{}, Sym{Name: "a"}}}) {
		t.Error("raw Alt with symbol should be non-empty")
	}
}

func TestSize(t *testing.T) {
	r := MustParse("(a . b)* + 1") // six nodes
	if !SizeWithin(r, 6) || SizeWithin(r, 5) {
		t.Errorf("SizeWithin(%s, 6/5) = %v/%v, want true/false", r, SizeWithin(r, 6), SizeWithin(r, 5))
	}
	if !SizeWithin(Empty(), 1) || SizeWithin(Star(Symbol("a")), 1) {
		t.Error("SizeWithin misjudges one- and two-node expressions")
	}
	if !SizeWithin(r, 0) {
		t.Error("SizeWithin(r, 0) must mean unlimited")
	}
}

func TestKeyDistinguishesStructure(t *testing.T) {
	pairs := [][2]Regex{
		{symbols("a", "b"), Union(Symbol("a"), Symbol("b"))},
		{Symbol("a"), Star(Symbol("a"))},
		{Empty(), Epsilon()},
		{Symbol("ab"), symbols("a", "b")},
	}
	for _, p := range pairs {
		if Key(p[0]) == Key(p[1]) {
			t.Errorf("Key collision between %v and %v", p[0], p[1])
		}
	}
}

// randomRegex builds a random expression over a small alphabet; shared
// with the property tests below.
func randomRegex(r *rand.Rand, depth int) Regex {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return Epsilon()
		case 1:
			return Empty()
		default:
			return Symbol(string(rune('a' + r.Intn(3))))
		}
	}
	switch r.Intn(6) {
	case 0:
		return Symbol(string(rune('a' + r.Intn(3))))
	case 1, 2:
		return Concat(randomRegex(r, depth-1), randomRegex(r, depth-1))
	case 3, 4:
		return Union(randomRegex(r, depth-1), randomRegex(r, depth-1))
	default:
		return Star(randomRegex(r, depth-1))
	}
}

type regexValue struct{ r Regex }

func (regexValue) Generate(r *rand.Rand, size int) reflect.Value {
	depth := 3
	if size < 20 {
		depth = 2
	}
	return reflect.ValueOf(regexValue{r: randomRegex(r, depth)})
}

func TestQuickMatchAgreesWithEnumerate(t *testing.T) {
	// Every enumerated trace must match, and matching must agree with
	// membership in the enumeration for all traces up to the bound.
	cfg := &quick.Config{MaxCount: 200}
	f := func(v regexValue) bool {
		const k = 4
		enum := Enumerate(v.r, k)
		set := TraceSet(enum)
		for _, tr := range enum {
			if !Match(v.r, tr) {
				return false
			}
		}
		// All traces over the alphabet up to length 2 that are not in the
		// enumeration must not match.
		for _, tr := range allTraces(Alphabet(v.r), 2) {
			_, in := set[TraceKey(tr)]
			if Match(v.r, tr) != in {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDerivativeResidual(t *testing.T) {
	// l ∈ L(∂f r) ⇔ f·l ∈ L(r)
	cfg := &quick.Config{MaxCount: 200}
	f := func(v regexValue) bool {
		alpha := Alphabet(v.r)
		if len(alpha) == 0 {
			return true
		}
		sym := alpha[0]
		d := Derivative(v.r, sym)
		for _, tr := range allTraces(alpha, 3) {
			if Match(d, tr) != Match(v.r, append([]string{sym}, tr...)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickEquivalentIsReflexiveUnderRewrites(t *testing.T) {
	// Language-preserving rewrites must be judged equivalent.
	cfg := &quick.Config{MaxCount: 150}
	f := func(v regexValue, w regexValue) bool {
		a, b := v.r, w.r
		if !Equivalent(Concat(a, b), Concat(a, b)) {
			return false
		}
		// Distribution: a·(b + c) over a fresh c.
		c := Symbol("z")
		if !Equivalent(Concat(a, Union(b, c)), Union(Concat(a, b), Concat(a, c))) {
			return false
		}
		// Star unrolling: a* = 1 + a·a*.
		if !Equivalent(Star(a), Union(Epsilon(), Concat(a, Star(a)))) {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDistinguishWitnessIsValid(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(v regexValue, w regexValue) bool {
		witness, eq := Distinguish(v.r, w.r)
		if eq {
			// Spot-check agreement on short traces.
			alpha := unionAlphabet(v.r, w.r)
			for _, tr := range allTraces(alpha, 3) {
				if Match(v.r, tr) != Match(w.r, tr) {
					return false
				}
			}
			return true
		}
		return Match(v.r, witness) != Match(w.r, witness)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// allTraces returns every trace over the alphabet with length ≤ maxLen.
func allTraces(alphabet []string, maxLen int) [][]string {
	out := [][]string{{}}
	frontier := [][]string{{}}
	for i := 0; i < maxLen; i++ {
		var next [][]string
		for _, tr := range frontier {
			for _, f := range alphabet {
				ext := append(append([]string{}, tr...), f)
				next = append(next, ext)
			}
		}
		out = append(out, next...)
		frontier = next
	}
	return out
}

func sameTrace(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// equal reports whether a and b are structurally equal after the smart
// constructors' normalization (not language equality).
func equal(a, b Regex) bool { return Key(a) == Key(b) }

// symbols builds the concatenation of the given symbol names:
// symbols("a", "b") == a·b, and symbols() == ε.
func symbols(names ...string) Regex {
	parts := make([]Regex, len(names))
	for i, n := range names {
		parts[i] = Symbol(n)
	}
	return Concat(parts...)
}
