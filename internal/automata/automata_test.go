package automata

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/regex"
)

var corpus = []string{
	"0",
	"1",
	"a",
	"a . b",
	"a + b",
	"a*",
	"(a . b)*",
	"(a + b)* . c",
	"a . (b + c) . d",
	"(a . (b . 0 + c))* + (a . (b . 0 + c))* . a . b", // paper Example 3
	"(a + b)* . a . (a + b)",
	"a* . b . a*",
	"(a . a)* + (a . a . a)*",
}

func TestConstructionsAgreeWithRegex(t *testing.T) {
	const bound = 5
	for _, src := range corpus {
		r := regex.MustParse(src)
		want := regex.TraceSet(regex.Enumerate(r, bound))

		builders := map[string]func() interface{ Accepts([]string) bool }{
			"thompson":    func() interface{ Accepts([]string) bool } { return FromRegexThompson(r) },
			"glushkov":    func() interface{ Accepts([]string) bool } { return FromRegexGlushkov(r) },
			"derivatives": func() interface{ Accepts([]string) bool } { return FromRegexDerivatives(r) },
			"det":         func() interface{ Accepts([]string) bool } { return FromRegexThompson(r).Determinize() },
			"minimal":     func() interface{ Accepts([]string) bool } { return CompileMinimal(r) },
		}
		for name, build := range builders {
			m := build()
			for _, trace := range allTraces(regex.Alphabet(r), 4) {
				_, inLang := want[regex.TraceKey(trace)]
				if got := m.Accepts(trace); got != inLang {
					t.Errorf("%s(%s).Accepts(%v) = %v, want %v", name, src, trace, got, inLang)
				}
			}
		}
	}
}

func TestConstructionsAgreeOnRandomRegexes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		r := randomRegex(rng, 3)
		nfaT := FromRegexThompson(r)
		nfaG := FromRegexGlushkov(r)
		dfa := CompileMinimal(r)
		for _, trace := range allTraces([]string{"a", "b", "c"}, 3) {
			want := regex.Match(r, trace)
			if got := nfaT.Accepts(trace); got != want {
				t.Fatalf("thompson(%v).Accepts(%v) = %v, want %v", r, trace, got, want)
			}
			if got := nfaG.Accepts(trace); got != want {
				t.Fatalf("glushkov(%v).Accepts(%v) = %v, want %v", r, trace, got, want)
			}
			if got := dfa.Accepts(trace); got != want {
				t.Fatalf("minimal(%v).Accepts(%v) = %v, want %v", r, trace, got, want)
			}
		}
	}
}

func TestGlushkovHasNoEpsilonAndLinearSize(t *testing.T) {
	r := regex.MustParse("(a . b)* . (c + a)")
	n := FromRegexGlushkov(r)
	// 4 symbol occurrences + start.
	if got := n.NumStates(); got != 5 {
		t.Errorf("glushkov states = %d, want 5", got)
	}
	for s := 0; s < n.NumStates(); s++ {
		if len(n.eps[s]) != 0 {
			t.Errorf("glushkov automaton has ε-transition at state %d", s)
		}
	}
}

func TestMinimizeIsMinimalAndCanonical(t *testing.T) {
	// Two very different expressions for the same language must minimize
	// to structurally identical automata.
	pairs := [][2]string{
		{"(a + b)*", "(a* . b*)*"},
		{"1 + a . a*", "a*"},
		{"a . (b + c)", "a . b + a . c"},
	}
	for _, p := range pairs {
		d1 := CompileMinimal(regex.MustParse(p[0]))
		d2 := CompileMinimal(regex.MustParse(p[1]))
		if !sameDFA(d1, d2) {
			t.Errorf("minimal DFAs of %q and %q differ structurally", p[0], p[1])
		}
	}
	// a* has exactly 1 state; (a.b)* has 2 live states.
	if got := CompileMinimal(regex.MustParse("a*")).NumStates(); got != 1 {
		t.Errorf("minimal a* has %d states, want 1", got)
	}
	if got := CompileMinimal(regex.MustParse("(a . b)*")).NumStates(); got != 2 {
		t.Errorf("minimal (a.b)* has %d states, want 2", got)
	}
}

func TestMinimizeRandomPreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 150; i++ {
		r := randomRegex(rng, 3)
		big := FromRegexThompson(r).Determinize()
		small := big.Minimize()
		if small.NumStates() > big.NumStates() {
			t.Fatalf("minimize grew the automaton for %v: %d -> %d", r, big.NumStates(), small.NumStates())
		}
		for _, trace := range allTraces([]string{"a", "b", "c"}, 3) {
			if big.Accepts(trace) != small.Accepts(trace) {
				t.Fatalf("minimize changed language of %v on %v", r, trace)
			}
		}
	}
}

// productSearch runs the product search of a and b over their joint
// alphabet, on which each machine dies at a symbol it lacks, and
// returns up to max witnesses of op and the number of pairs it visited.
func productSearch(t testing.TB, a, b *DFA, op BoolOp, max int) ([][]string, int) {
	t.Helper()
	alphabet := sortedSet(append(append([]string(nil), a.Alphabet()...), b.Alphabet()...))
	joint := a.Relabel(alphabet, func(sym string) string { return sym })
	gate := budget.SearchGate(context.Background(), "product")
	ws, err := joint.Search(joint.Start(), b.Over(alphabet, false), op, max, gate)
	if err != nil {
		t.Fatal(err)
	}
	return ws, gate.N()
}

// boolOps are the boolean operations of two languages that no trace
// outside both alphabets satisfies.
var boolOps = []struct {
	name string
	op   BoolOp
}{
	{"intersection", func(x, y bool) bool { return x && y }},
	{"union", func(x, y bool) bool { return x || y }},
	{"difference", func(x, y bool) bool { return x && !y }},
	{"symmetric difference", func(x, y bool) bool { return x != y }},
}

// TestProductOperations pins the product search under each boolean
// operation: its shortest witness, and that every witness it returns
// satisfies the operation.
func TestProductOperations(t *testing.T) {
	a := CompileMinimal(regex.MustParse("(a + b)* . a")) // ends in a
	b := CompileMinimal(regex.MustParse("a . (a + b)*")) // starts with a
	shortest := [][]string{{"a"}, {"a"}, {"b", "a"}, {"a", "b"}}
	for i, tt := range boolOps {
		ws, _ := productSearch(t, a, b, tt.op, 8)
		if len(ws) == 0 || !reflect.DeepEqual(ws[0], shortest[i]) {
			t.Fatalf("%s: witnesses %q, want %q first", tt.name, ws, shortest[i])
		}
		for _, w := range ws {
			if !tt.op(a.Accepts(w), b.Accepts(w)) {
				t.Errorf("%s: witness %q does not satisfy it", tt.name, w)
			}
		}
	}
}

// TestProductOverDifferentAlphabets: each machine dies on the other's
// symbols, so the union search of x* and y* reaches ε, x and y, and
// prunes every trace mixing the two, where both are dead: it visits
// three pairs.
func TestProductOverDifferentAlphabets(t *testing.T) {
	a := CompileMinimal(regex.MustParse("x*"))
	b := CompileMinimal(regex.MustParse("y*"))
	or := func(x, y bool) bool { return x || y }
	ws, visited := productSearch(t, a, b, or, 10)
	if want := [][]string{nil, {"x"}, {"y"}}; !reflect.DeepEqual(ws, want) || visited != 3 {
		t.Errorf("union over {x},{y}: witnesses %q after %d pairs, want %q after 3", ws, visited, want)
	}
}

func TestComplement(t *testing.T) {
	d := CompileMinimal(regex.MustParse("a . b"))
	c := d.Complement()
	for _, trace := range allTraces([]string{"a", "b"}, 3) {
		if d.Accepts(trace) == c.Accepts(trace) {
			t.Errorf("complement agrees with original on %v", trace)
		}
	}
}

func TestEquivalentAndDistinguish(t *testing.T) {
	a := CompileMinimal(regex.MustParse("(a . b)*"))
	b := FromRegexThompson(regex.MustParse("(a . b)*")).Determinize()
	if !Equivalent(a, b) {
		t.Error("same-language DFAs reported different")
	}
	c := CompileMinimal(regex.MustParse("(b . a)*"))
	w, eq := Distinguish(a, c)
	if eq {
		t.Fatal("different languages reported equivalent")
	}
	if a.Accepts(w) == c.Accepts(w) {
		t.Errorf("witness %v does not distinguish", w)
	}
	if len(w) != 2 {
		t.Errorf("witness %v is not shortest (want length 2)", w)
	}
}

func TestSubsetDFA(t *testing.T) {
	small := CompileMinimal(regex.MustParse("a . b"))
	big := CompileMinimal(regex.MustParse("a . (b + c)"))
	if ok, _ := SubsetDFA(small, big); !ok {
		t.Error("a·b ⊆ a·(b+c) should hold")
	}
	ok, w := SubsetDFA(big, small)
	if ok {
		t.Fatal("a·(b+c) ⊆ a·b should fail")
	}
	if !big.Accepts(w) || small.Accepts(w) {
		t.Errorf("witness %v invalid", w)
	}
}

func TestShortestAcceptedDeterministic(t *testing.T) {
	d := CompileMinimal(regex.MustParse("b . b + a . c + a . b"))
	w, ok := d.ShortestAccepted()
	if !ok {
		t.Fatal("language is non-empty")
	}
	// Shortest length is 2; lexicographically least is [a b].
	if len(w) != 2 || w[0] != "a" || w[1] != "b" {
		t.Errorf("ShortestAccepted = %v, want [a b]", w)
	}

	empty := CompileMinimal(regex.Empty())
	if _, ok := empty.ShortestAccepted(); ok {
		t.Error("empty language should have no witness")
	}
	if !isEmpty(empty) {
		t.Error("IsEmpty should be true for ∅")
	}
}

func TestToRegexRoundTrip(t *testing.T) {
	for _, src := range corpus {
		r := regex.MustParse(src)
		d := CompileMinimal(r)
		back := d.ToRegex()
		if !regex.Equivalent(r, back) {
			t.Errorf("round trip changed language: %q -> %q", src, back.String())
		}
	}
}

func TestToRegexRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 100; i++ {
		r := randomRegex(rng, 3)
		back := CompileMinimal(r).ToRegex()
		if !regex.Equivalent(r, back) {
			t.Fatalf("round trip changed language of %v: got %v", r, back)
		}
	}
}

func TestEnumerateAcceptedAgreesWithRegexEnumerate(t *testing.T) {
	for _, src := range corpus {
		r := regex.MustParse(src)
		d := CompileMinimal(r)
		got := regex.TraceSet(d.EnumerateAccepted(4))
		want := regex.TraceSet(regex.Enumerate(r, 4))
		if len(got) != len(want) {
			t.Errorf("%s: enumerated %d traces, want %d", src, len(got), len(want))
			continue
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: missing trace %q", src, k)
			}
		}
	}
}

func TestNFAUnknownSymbol(t *testing.T) {
	n := NewNFA([]string{"a"})
	if err := n.AddTransition(n.Start(), "zzz", n.Start()); err == nil {
		t.Error("AddTransition with unknown symbol should error")
	}
	if n.Accepts([]string{"zzz"}) {
		t.Error("trace over unknown symbols must be rejected")
	}
	d := NewDFA([]string{"a"})
	if err := d.AddTransition(d.Start(), "zzz", d.Start()); err == nil {
		t.Error("DFA.AddTransition with unknown symbol should error")
	}
}

func TestReachableTrims(t *testing.T) {
	d := NewDFA([]string{"a"})
	s1 := d.AddState(true)
	_ = d.AddState(true) // unreachable
	if err := d.AddTransition(d.Start(), "a", s1); err != nil {
		t.Fatal(err)
	}
	r := d.Reachable()
	if r.NumStates() != 2 {
		t.Errorf("Reachable left %d states, want 2", r.NumStates())
	}
	if !r.Accepts([]string{"a"}) || r.Accepts(nil) {
		t.Error("Reachable changed the language")
	}
}

func TestRunReturnsResidualState(t *testing.T) {
	d := CompileMinimal(regex.MustParse("a . b"))
	if s := d.Run([]string{"a"}); s < 0 || d.Accepting(s) {
		t.Errorf("Run([a]) = %d, want live non-accepting state", s)
	}
	if s := d.Run([]string{"b"}); s >= 0 {
		t.Errorf("Run([b]) = %d, want dead (-1)", s)
	}
	if s := d.Run([]string{"a", "b"}); s < 0 || !d.Accepting(s) {
		t.Errorf("Run([a b]) = %d, want accepting", s)
	}
}

// sameDFA reports structural identity (states numbered canonically by
// minimization's BFS).
func sameDFA(a, b *DFA) bool {
	if a.NumStates() != b.NumStates() || len(a.alphabet) != len(b.alphabet) {
		return false
	}
	for i := range a.alphabet {
		if a.alphabet[i] != b.alphabet[i] {
			return false
		}
	}
	if a.start != b.start {
		return false
	}
	for s := 0; s < a.NumStates(); s++ {
		if a.accept[s] != b.accept[s] {
			return false
		}
		for si := range a.alphabet {
			if a.row(s)[si] != b.row(s)[si] {
				return false
			}
		}
	}
	return true
}

func randomRegex(rng *rand.Rand, depth int) regex.Regex {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return regex.Epsilon()
		case 1:
			return regex.Empty()
		default:
			return regex.Symbol(string(rune('a' + rng.Intn(3))))
		}
	}
	switch rng.Intn(6) {
	case 0:
		return regex.Symbol(string(rune('a' + rng.Intn(3))))
	case 1, 2:
		return regex.Concat(randomRegex(rng, depth-1), randomRegex(rng, depth-1))
	case 3, 4:
		return regex.Union(randomRegex(rng, depth-1), randomRegex(rng, depth-1))
	default:
		return regex.Star(randomRegex(rng, depth-1))
	}
}

func allTraces(alphabet []string, maxLen int) [][]string {
	out := [][]string{nil}
	frontier := [][]string{nil}
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

func TestRandomAcceptedAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, src := range corpus {
		r := regex.MustParse(src)
		d := CompileMinimal(r)
		if isEmpty(d) {
			if _, ok := d.RandomAccepted(rng, 6); ok {
				t.Errorf("%s: sample from empty language", src)
			}
			continue
		}
		shortest, _ := d.ShortestAccepted()
		for i := 0; i < 200; i++ {
			tr, ok := d.RandomAccepted(rng, len(shortest)+4)
			if !ok {
				t.Fatalf("%s: no sample though language is non-empty", src)
			}
			if !d.Accepts(tr) {
				t.Fatalf("%s: sampled %v is not accepted", src, tr)
			}
			if len(tr) > len(shortest)+4 {
				t.Fatalf("%s: sample %v exceeds bound", src, tr)
			}
		}
	}
}

func TestRandomAcceptedBoundTooSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	d := CompileMinimal(regex.MustParse("a . b . c"))
	if _, ok := d.RandomAccepted(rng, 2); ok {
		t.Error("bound 2 cannot fit the only word of length 3")
	}
	tr, ok := d.RandomAccepted(rng, 3)
	if !ok || len(tr) != 3 {
		t.Errorf("sample = %v, %v", tr, ok)
	}
}

func TestRandomAcceptedCoversLanguage(t *testing.T) {
	// Over (a+b)*, samples should hit both letters and different lengths.
	rng := rand.New(rand.NewSource(23))
	d := CompileMinimal(regex.MustParse("(a + b)*"))
	lengths := make(map[int]bool)
	letters := make(map[string]bool)
	for i := 0; i < 500; i++ {
		tr, ok := d.RandomAccepted(rng, 5)
		if !ok {
			t.Fatal("sampling failed")
		}
		lengths[len(tr)] = true
		for _, sym := range tr {
			letters[sym] = true
		}
	}
	if len(lengths) < 4 || !letters["a"] || !letters["b"] {
		t.Errorf("poor coverage: lengths=%v letters=%v", lengths, letters)
	}
}

// isEmpty reports whether the accepted language is empty.
func isEmpty(d *DFA) bool {
	_, ok := d.ShortestAccepted()
	return !ok
}

// ShortestAccepted returns a shortest accepted trace and true, or nil and
// false when the language is empty. Among shortest traces it returns the
// one over the lexicographically least symbols (the alphabet is sorted
// and the search expands in alphabet order), making counterexample
// output deterministic — the property §2.2's error messages rely on.
func (d *DFA) ShortestAccepted() ([]string, bool) {
	w, _ := d.Search(d.start, Side{Start: -1}, func(a, _ bool) bool { return a }, 1, nil)
	if len(w) == 0 {
		return nil, false
	}
	return w[0], true
}

// Accepts reports whether the NFA accepts the trace, by on-the-fly
// subset simulation.
func (n *NFA) Accepts(trace []string) bool {
	c := &closer{n: n}
	current := c.closure([]int{n.start})
	var next []int
	for _, sym := range trace {
		si := symbol(n.alphabet, sym)
		if si < 0 {
			return false
		}
		next = next[:0]
		for _, s := range current {
			for _, e := range n.trans[s] {
				if e.sym == si {
					next = append(next, e.to)
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		current = c.closure(next)
	}
	return n.anyAccepting(current)
}

// Alphabet returns the automaton's alphabet in sorted order. The caller
// must not mutate the returned slice.
func (n *NFA) Alphabet() []string { return n.alphabet }

// Accepting reports whether state s accepts.
func (n *NFA) Accepting(s int) bool { return n.accept[s] }
