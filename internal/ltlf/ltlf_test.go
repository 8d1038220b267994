package ltlf

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/shelley-go/shelley/internal/automata"
)

func TestParseAndString(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{"a", "a"},
		{"a.open", "a.open"},
		{"!a", "!a"},
		{"a & b", "a & b"},
		{"a | b", "a | b"},
		{"a -> b", "a -> b"},
		{"a U b", "a U b"},
		{"a W b", "a W b"},
		{"a R b", "a R b"},
		{"X a", "X a"},
		{"N a", "N a"},
		{"G a", "G a"},
		{"F a", "F a"},
		{"true", "true"},
		{"false", "false"},
		{"(!a.open) W b.open", "!a.open W b.open"},
		{"G (a -> X b)", "G (a -> X b)"},
		{"a U b U c", "a U b U c"}, // right-assoc
		{"a & b | c", "a & b | c"},
		{"(a | b) & c", "c & (a | b)"},
		{"!(a & b)", "!(a & b)"},
		{"F (a & X b)", "F (X b & a)"},
	}
	for _, tt := range tests {
		f, err := Parse(tt.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.src, err)
			continue
		}
		if got := f.String(); got != tt.want {
			t.Errorf("Parse(%q).String() = %q, want %q", tt.src, got, tt.want)
		}
		// Round trip.
		back, err := Parse(f.String())
		if err != nil {
			t.Errorf("reparse %q: %v", f.String(), err)
			continue
		}
		if key(back) != key(f) {
			t.Errorf("round trip changed %q -> %q", tt.src, back.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "(", "(a", "a &", "& a", "a -> ", "a ? b", "a U", "a )"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestConstructorNormalization(t *testing.T) {
	a, b := NewAtom("a"), NewAtom("b")
	tests := []struct {
		got, want Formula
	}{
		{NotOf(True()), False()},
		{NotOf(False()), True()},
		{NotOf(NotOf(a)), a},
		{AndOf(), True()},
		{AndOf(a), a},
		{AndOf(a, True()), a},
		{AndOf(a, False()), False()},
		{AndOf(a, a), a},
		{AndOf(a, NotOf(a)), False()},
		{AndOf(a, b), AndOf(b, a)},
		{OrOf(), False()},
		{OrOf(a, False()), a},
		{OrOf(a, True()), True()},
		{OrOf(a, NotOf(a)), True()},
		{OrOf(OrOf(a, b), a), OrOf(a, b)},
	}
	for i, tt := range tests {
		if key(tt.got) != key(tt.want) {
			t.Errorf("case %d: got %v, want %v", i, tt.got, tt.want)
		}
	}
}

func TestEvalBasics(t *testing.T) {
	tests := []struct {
		formula string
		trace   []string
		want    bool
	}{
		{"true", nil, true},
		{"false", nil, false},
		{"a", nil, false},
		{"a", []string{"a"}, true},
		{"a", []string{"b"}, false},
		{"!a", nil, true},
		{"!a", []string{"b"}, true},
		{"X a", []string{"b", "a"}, true},
		{"X a", []string{"b"}, false},
		{"X a", nil, false},
		{"N a", []string{"b"}, true}, // no next instant
		{"N a", nil, true},
		{"N a", []string{"b", "c"}, false},
		{"G a", nil, true},
		{"G a", []string{"a", "a"}, true},
		{"G a", []string{"a", "b"}, false},
		{"F a", nil, false},
		{"F a", []string{"b", "b", "a"}, true},
		{"a U b", []string{"a", "a", "b"}, true},
		{"a U b", []string{"a", "a"}, false},
		{"a U b", []string{"b"}, true},
		{"a U b", []string{"c", "b"}, false},
		{"a W b", []string{"a", "a"}, true}, // G a branch
		{"a W b", []string{"a", "b"}, true},
		{"a W b", []string{"c"}, false},
		{"a W b", nil, true},
		{"a R b", []string{"b", "b"}, true},
		{"a R b", []string{"b", "a"}, false},
		{"b R b", []string{"b"}, true},
		{"a R b", []string{"b", "c"}, false},
		{"a R b", nil, true},
		{"a -> b", []string{"a"}, false},
		{"a -> b", []string{"c"}, true},
		{"G (a -> X b)", []string{"a", "b", "a", "b"}, true},
		{"G (a -> X b)", []string{"a", "b", "a"}, false}, // last a has no next
	}
	for _, tt := range tests {
		if got := Eval(MustParse(tt.formula), tt.trace); got != tt.want {
			t.Errorf("Eval(%q, %v) = %v, want %v", tt.formula, tt.trace, got, tt.want)
		}
	}
}

// TestPaperClaimSemantics exercises the claim of Listing 2.2:
// (!a.open) W b.open — valve a stays closed at least until b opens.
func TestPaperClaimSemantics(t *testing.T) {
	claim := MustParse("(!a.open) W b.open")
	// The violating trace of §2.2 (the flattened BadSector behavior):
	// a opens before b ever does.
	violating := []string{"a.test", "a.open", "b.test", "b.open", "a.close", "b.close"}
	if Eval(claim, violating) {
		t.Error("paper's counterexample trace should violate the claim")
	}
	// A fixed ordering satisfies it.
	good := []string{"b.test", "b.open", "a.test", "a.open", "a.close", "b.close"}
	if !Eval(claim, good) {
		t.Error("opening b first should satisfy the claim")
	}
	// Never opening a satisfies the G branch of W.
	if !Eval(claim, []string{"a.test", "a.clean"}) {
		t.Error("never opening a should satisfy the claim")
	}
	if !Eval(claim, nil) {
		t.Error("the empty trace satisfies any weak-until claim")
	}
}

func TestAtoms(t *testing.T) {
	f := MustParse("(!a.open) W b.open & G c")
	if got := Atoms(f); !reflect.DeepEqual(got, []string{"a.open", "b.open", "c"}) {
		t.Errorf("Atoms = %v", got)
	}
}

func randomFormula(rng *rand.Rand, depth int, atoms []string) Formula {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return True()
		case 1:
			return False()
		default:
			return NewAtom(atoms[rng.Intn(len(atoms))])
		}
	}
	sub := func() Formula { return randomFormula(rng, depth-1, atoms) }
	switch rng.Intn(12) {
	case 0:
		return NewAtom(atoms[rng.Intn(len(atoms))])
	case 1:
		return NotOf(sub())
	case 2:
		return AndOf(sub(), sub())
	case 3:
		return OrOf(sub(), sub())
	case 4:
		return ImpliesOf(sub(), sub())
	case 5:
		return NextOf(sub())
	case 6:
		return WeakNextOf(sub())
	case 7:
		return UntilOf(sub(), sub())
	case 8:
		return WeakUntilOf(sub(), sub())
	case 9:
		return ReleaseOf(sub(), sub())
	case 10:
		return GloballyOf(sub())
	default:
		return FinallyOf(sub())
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

func TestNNFPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	atoms := []string{"a", "b"}
	traces := allTraces(atoms, 4)
	for i := 0; i < 300; i++ {
		f := randomFormula(rng, 3, atoms)
		g := ToNNF(f)
		for _, tr := range traces {
			if Eval(f, tr) != Eval(g, tr) {
				t.Fatalf("NNF changed semantics of %v (nnf %v) on %v", f, g, tr)
			}
		}
	}
}

func TestNNFPushesNegationToAtoms(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var check func(f Formula) bool
	check = func(f Formula) bool {
		switch f := f.(type) {
		case Not:
			switch f.X.(type) {
			case Atom, nonempty:
				return true
			default:
				return false
			}
		case And:
			for _, x := range f.Xs {
				if !check(x) {
					return false
				}
			}
			return true
		case Or:
			for _, x := range f.Xs {
				if !check(x) {
					return false
				}
			}
			return true
		case Implies, WeakUntil:
			return false // eliminated by NNF
		case Next:
			return check(f.X)
		case WeakNext:
			return check(f.X)
		case Globally:
			return check(f.X)
		case Finally:
			return check(f.X)
		case Until:
			return check(f.L) && check(f.R)
		case Release:
			return check(f.L) && check(f.R)
		default:
			return true
		}
	}
	for i := 0; i < 300; i++ {
		f := randomFormula(rng, 3, []string{"a", "b"})
		if g := ToNNF(f); !check(g) {
			t.Fatalf("NNF(%v) = %v is not in NNF", f, g)
		}
	}
}

func TestCompileMatchesEvalOnCorpus(t *testing.T) {
	alphabet := []string{"a", "b"}
	corpus := []string{
		"a", "!a", "a & b", "a | b", "a -> b",
		"X a", "N a", "G a", "F a",
		"a U b", "a W b", "a R b",
		"G (a -> X b)", "F (a & X a)", "(!a) W b",
		"G F a", "F G a", "a U (b U a)",
		"true", "false",
	}
	traces := allTraces(alphabet, 5)
	for _, src := range corpus {
		f := MustParse(src)
		d := Compile(f, alphabet)
		for _, tr := range traces {
			want := Eval(f, tr)
			if got := d.Accepts(tr); got != want {
				t.Errorf("Compile(%q).Accepts(%v) = %v, want %v", src, tr, got, want)
			}
		}
	}
}

func TestCompileMatchesEvalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	alphabet := []string{"a", "b"}
	traces := allTraces(alphabet, 4)
	for i := 0; i < 250; i++ {
		f := randomFormula(rng, 3, alphabet)
		d := Compile(f, alphabet)
		for _, tr := range traces {
			if d.Accepts(tr) != Eval(f, tr) {
				t.Fatalf("formula %v: DFA and Eval disagree on %v", f, tr)
			}
		}
	}
}

func TestCompileNegationIsComplement(t *testing.T) {
	alphabet := []string{"a", "b"}
	traces := allTraces(alphabet, 4)
	for _, src := range []string{"a U b", "G a", "(!a) W b"} {
		f := MustParse(src)
		pos := Compile(f, alphabet)
		neg := CompileNegation(f, alphabet)
		for _, tr := range traces {
			if pos.Accepts(tr) == neg.Accepts(tr) {
				t.Errorf("%q: negation not complementary on %v", src, tr)
			}
		}
	}
}

func TestCompilePaperClaim(t *testing.T) {
	alphabet := []string{
		"a.test", "a.open", "a.close", "a.clean",
		"b.test", "b.open", "b.close", "b.clean",
	}
	d := CompileNegation(MustParse("(!a.open) W b.open"), alphabet)
	violating := []string{"a.test", "a.open", "b.test", "b.open", "a.close", "b.close"}
	if !d.Accepts(violating) {
		t.Error("negation DFA should accept the violating trace")
	}
	good := []string{"b.test", "b.open", "a.test", "a.open", "a.close", "b.close"}
	if d.Accepts(good) {
		t.Error("negation DFA should reject a satisfying trace")
	}
	// Shortest violation: a.open as the first event.
	ws, _ := d.Search(d.Start(), automata.Side{Start: -1}, func(a, _ bool) bool { return a }, 1, nil)
	if len(ws) == 0 {
		t.Fatal("violations exist")
	}
	if w := ws[0]; !reflect.DeepEqual(w, []string{"a.open"}) {
		t.Errorf("shortest violation = %v, want [a.open]", w)
	}
}

func TestCompileProducesSmallAutomata(t *testing.T) {
	d := Compile(MustParse("G a"), []string{"a", "b"})
	if d.NumStates() > 2 {
		t.Errorf("G a compiled to %d states", d.NumStates())
	}
	// A claim over an alphabet not mentioning its atoms: (!x) W y with
	// x, y absent means x never holds, so the claim is trivially true.
	d = Compile(MustParse("(!x) W y"), []string{"a"})
	if !d.Accepts([]string{"a", "a"}) {
		t.Error("claim over absent atoms should hold")
	}
}

func TestEquivalentFormulasCompileEquivalent(t *testing.T) {
	alphabet := []string{"a", "b"}
	pairs := [][2]string{
		{"a W b", "(a U b) | G a"},
		{"F a", "true U a"},
		{"G a", "false R a"},
		{"!(a U b)", "(!a) R (!b)"},
		{"!X a", "N !a"},
	}
	for _, p := range pairs {
		d1 := Compile(MustParse(p[0]), alphabet)
		d2 := Compile(MustParse(p[1]), alphabet)
		if !automata.Equivalent(d1, d2) {
			t.Errorf("%q and %q compiled to different languages", p[0], p[1])
		}
	}
}

// dnf is dnfBounded without a clause cap.
func dnf(f Formula) []map[string]Formula {
	clauses, _ := dnfBounded(f, 0)
	return clauses
}
