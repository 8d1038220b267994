package trace

import (
	"math/rand"
	"testing"

	"github.com/shelley-go/shelley/internal/ir"
)

// paperExample is the program of Examples 1–3:
// loop(★){ a(); if(★){ b(); return } else { c() } }
func paperExample() ir.Program {
	return ir.NewLoop(ir.NewSeq(
		ir.NewCall("a"),
		ir.NewIf(
			ir.NewSeq(ir.NewCall("b"), ir.Return{}),
			ir.NewCall("c"),
		),
	))
}

func TestAxioms(t *testing.T) {
	tests := []struct {
		name string
		s    Status
		l    []string
		p    ir.Program
		want bool
	}{
		{"CALL", Ongoing, []string{"f"}, ir.NewCall("f"), true},
		{"CALL wrong status", Returned, []string{"f"}, ir.NewCall("f"), false},
		{"CALL wrong label", Ongoing, []string{"g"}, ir.NewCall("f"), false},
		{"CALL empty trace", Ongoing, nil, ir.NewCall("f"), false},
		{"SKIP", Ongoing, nil, ir.NewSkip(), true},
		{"SKIP wrong status", Returned, nil, ir.NewSkip(), false},
		{"SKIP nonempty", Ongoing, []string{"f"}, ir.NewSkip(), false},
		{"RETURN", Returned, nil, ir.Return{}, true},
		{"RETURN wrong status", Ongoing, nil, ir.Return{}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := In(tt.s, tt.l, tt.p); got != tt.want {
				t.Errorf("In(%v, %v, %v) = %v, want %v", tt.s, tt.l, tt.p, got, tt.want)
			}
		})
	}
}

func TestSeqRules(t *testing.T) {
	ab := ir.NewSeq(ir.NewCall("a"), ir.NewCall("b"))
	if !In(Ongoing, []string{"a", "b"}, ab) {
		t.Error("SEQ-2: [a b] should be in a();b()")
	}
	if In(Ongoing, []string{"a"}, ab) {
		t.Error("[a] should not be ongoing in a();b()")
	}
	// Early return short-circuits the continuation (SEQ-1).
	earlyRet := ir.NewSeq(ir.NewCall("a"), ir.Return{}, ir.NewCall("b"))
	if !In(Returned, []string{"a"}, earlyRet) {
		t.Error("SEQ-1: [a] should be returned in a();return;b()")
	}
	if In(Ongoing, []string{"a", "b"}, earlyRet) || In(Returned, []string{"a", "b"}, earlyRet) {
		t.Error("b() after return must be unreachable")
	}
}

func TestIfRules(t *testing.T) {
	p := ir.NewIf(ir.NewCall("a"), ir.NewCall("b"))
	if !In(Ongoing, []string{"a"}, p) || !In(Ongoing, []string{"b"}, p) {
		t.Error("both branches should contribute traces")
	}
	if In(Ongoing, []string{"a", "b"}, p) {
		t.Error("branches do not sequence")
	}
	mixed := ir.NewIf(ir.Return{}, ir.NewCall("b"))
	if !In(Returned, nil, mixed) {
		t.Error("then-branch return should be derivable")
	}
	if !In(Ongoing, []string{"b"}, mixed) {
		t.Error("else-branch should be derivable ongoing")
	}
}

func TestLoopRules(t *testing.T) {
	p := ir.NewLoop(ir.NewCall("a"))
	for _, tt := range []struct {
		l    []string
		want bool
	}{
		{nil, true},
		{[]string{"a"}, true},
		{[]string{"a", "a", "a"}, true},
		{[]string{"b"}, false},
	} {
		if got := In(Ongoing, tt.l, p); got != tt.want {
			t.Errorf("In(0, %v, loop{a()}) = %v, want %v", tt.l, got, tt.want)
		}
	}
	// The loop itself never returns unless its body does.
	if In(Returned, nil, p) {
		t.Error("loop{a()} has no returned traces")
	}
}

func TestLoopWithSkipBodyTerminates(t *testing.T) {
	// Regression guard: LOOP-3 with an empty completed iteration must not
	// cause infinite recursion in the decision procedure.
	p := ir.NewLoop(ir.NewSkip())
	if !In(Ongoing, nil, p) {
		t.Error("loop{skip} should accept the empty trace ongoing")
	}
	if In(Ongoing, []string{"a"}, p) {
		t.Error("loop{skip} should reject non-empty traces")
	}
	if In(Returned, nil, p) {
		t.Error("loop{skip} never returns")
	}
}

func TestPaperExample1(t *testing.T) {
	// 0 ⊢ [a, c, a, c] ∈ loop(★){a(); if(★){b(); return} else {c()}}
	if !In(Ongoing, []string{"a", "c", "a", "c"}, paperExample()) {
		t.Error("Example 1 of the paper should hold")
	}
}

func TestPaperExample2(t *testing.T) {
	// R ⊢ [a, c, a, b] ∈ loop(★){a(); if(★){b(); return} else {c()}}
	if !In(Returned, []string{"a", "c", "a", "b"}, paperExample()) {
		t.Error("Example 2 of the paper should hold")
	}
	// And the statuses are not interchangeable.
	if In(Returned, []string{"a", "c", "a", "c"}, paperExample()) {
		t.Error("[a c a c] must not be derivable as returned")
	}
	if In(Ongoing, []string{"a", "c", "a", "b"}, paperExample()) {
		t.Error("[a c a b] must not be derivable as ongoing: b is followed by return")
	}
}

func TestInLanguage(t *testing.T) {
	p := paperExample()
	for _, l := range [][]string{nil, {"a", "b"}, {"a", "c"}, {"a", "c", "a", "b"}} {
		if !InLanguage(l, p) {
			t.Errorf("%v should be in L(p)", l)
		}
	}
	for _, l := range [][]string{{"b"}, {"c"}, {"a", "b", "a"}, {"a", "a"}} {
		if InLanguage(l, p) {
			t.Errorf("%v should not be in L(p)", l)
		}
	}
}

func TestEnumerateMatchesIn(t *testing.T) {
	// Enumerate must agree with the decision procedure on every trace up
	// to the bound, for a corpus of interesting programs.
	programs := []ir.Program{
		paperExample(),
		ir.NewSkip(),
		ir.Return{},
		ir.NewCall("a"),
		ir.NewSeq(ir.NewCall("a"), ir.Return{}, ir.NewCall("b")),
		ir.NewLoop(ir.NewSkip()),
		ir.NewLoop(ir.Return{}),
		ir.NewLoop(ir.NewIf(ir.NewCall("a"), ir.Return{})),
		ir.NewIf(ir.NewLoop(ir.NewCall("a")), ir.NewSeq(ir.NewCall("b"), ir.Return{})),
		ir.NewSeq(ir.NewLoop(ir.NewCall("a")), ir.NewCall("b")),
	}
	const maxLen = 4
	for _, p := range programs {
		assertEnumerateAgreesWithIn(t, p, maxLen)
	}
}

func TestEnumerateMatchesInRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const maxLen = 3
	for i := 0; i < 300; i++ {
		p := ir.Random(rng, ir.GeneratorConfig{MaxDepth: 3, Labels: []string{"a", "b"}})
		assertEnumerateAgreesWithIn(t, p, maxLen)
		if t.Failed() {
			t.Fatalf("failing program: %v", p)
		}
	}
}

func assertEnumerateAgreesWithIn(t *testing.T, p ir.Program, maxLen int) {
	t.Helper()
	enum := Enumerate(p, maxLen)
	inEnum := make(map[string]map[Status]bool)
	for _, e := range enum {
		k := traceKey(e.Trace)
		if inEnum[k] == nil {
			inEnum[k] = make(map[Status]bool)
		}
		inEnum[k][e.Status] = true
		if !In(e.Status, e.Trace, p) {
			t.Errorf("enumerated %v ⊢ %v not derivable for %v", e.Status, e.Trace, p)
		}
	}
	for _, l := range allTraces([]string{"a", "b", "c"}, min(maxLen, 3)) {
		for _, s := range []Status{Ongoing, Returned} {
			want := In(s, l, p)
			got := inEnum[traceKey(l)][s]
			if got != want {
				t.Errorf("program %v: enumeration disagrees with In(%v, %v): enum=%v in=%v",
					p, s, l, got, want)
			}
		}
	}
}

func TestLanguageDeduplicatesAndSorts(t *testing.T) {
	// A program where the same trace arises both ongoing and returned.
	p := ir.NewIf(ir.NewSeq(ir.NewCall("a"), ir.Return{}), ir.NewCall("a"))
	got := Language(p, 3)
	if len(got) != 1 || len(got[0]) != 1 || got[0][0] != "a" {
		t.Fatalf("Language = %v, want [[a]]", got)
	}

	sorted := Language(paperExample(), 3)
	for i := 1; i < len(sorted); i++ {
		if compareTraces(sorted[i-1], sorted[i]) >= 0 {
			t.Fatalf("Language not in shortlex order: %v", sorted)
		}
	}
}

func TestStatusString(t *testing.T) {
	if Ongoing.String() != "0" || Returned.String() != "R" {
		t.Error("Status.String should use the paper's notation")
	}
	if Status(99).String() != "?" {
		t.Error("unknown status should print ?")
	}
}

func TestEnumerateRespectsBound(t *testing.T) {
	p := ir.NewLoop(ir.NewCall("a"))
	for _, e := range Enumerate(p, 5) {
		if len(e.Trace) > 5 {
			t.Fatalf("trace %v exceeds bound", e.Trace)
		}
	}
	if got := len(Language(p, 5)); got != 6 { // ε, a, aa, ..., aaaaa
		t.Errorf("Language(loop{a()}, 5) has %d traces, want 6", got)
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
