package core

import (
	"math/rand"
	"testing"

	"github.com/shelley-go/shelley/internal/ir"
	"github.com/shelley-go/shelley/internal/regex"
	"github.com/shelley-go/shelley/internal/trace"
)

// These tests are the executable counterpart of the paper's Coq
// mechanization. Theorem 1 (soundness) and Theorem 2 (completeness)
// together state L(p) = L(infer(p)); Corollary 1 concludes L(p) is
// regular. We validate the equality on (a) the paper's own example, (b) a
// corpus of structurally interesting programs, and (c) thousands of
// random programs, by enumerating both sides up to a trace-length bound
// and comparing the sets exactly.

const (
	theoremTraceBound = 4
	randomPrograms    = 1500
)

func interestingPrograms() []ir.Program {
	return []ir.Program{
		paperExample(),
		ir.NewSkip(),
		ir.Return{},
		ir.NewCall("a"),
		ir.NewSeq(ir.NewCall("a"), ir.NewCall("b")),
		ir.NewSeq(ir.NewCall("a"), ir.Return{}, ir.NewCall("b")),
		ir.NewSeq(ir.Return{}, ir.Return{}),
		ir.NewIf(ir.Return{}, ir.NewSkip()),
		ir.NewIf(ir.NewSeq(ir.NewCall("a"), ir.Return{}), ir.NewCall("a")),
		ir.NewLoop(ir.NewSkip()),
		ir.NewLoop(ir.Return{}),
		ir.NewLoop(ir.NewCall("a")),
		ir.NewLoop(ir.NewIf(ir.Return{}, ir.NewCall("a"))),
		ir.NewLoop(ir.NewLoop(ir.NewCall("a"))),
		ir.NewLoop(ir.NewSeq(ir.NewCall("a"), ir.NewLoop(ir.NewIf(ir.NewCall("b"), ir.Return{})))),
		ir.NewSeq(ir.NewLoop(ir.NewCall("a")), ir.NewIf(ir.Return{}, ir.NewCall("b")), ir.NewCall("c")),
	}
}

// assertTheorems checks both directions of L(p) = L(infer(p)) up to the
// trace-length bound.
func assertTheorems(t *testing.T, p ir.Program, bound int) {
	t.Helper()
	inferred := Infer(p)

	semantic := trace.Language(p, bound)
	semanticSet := regex.TraceSet(semantic)

	enumerated := regex.Enumerate(inferred, bound)
	enumeratedSet := regex.TraceSet(enumerated)

	// Theorem 1 (soundness): every semantic trace is in infer(p).
	for _, l := range semantic {
		if _, ok := enumeratedSet[regex.TraceKey(l)]; !ok {
			t.Errorf("soundness violated for %v: trace %v ∈ L(p) but ∉ infer(p) = %v", p, l, inferred)
		}
	}
	// Theorem 2 (completeness): every trace of infer(p) is semantic.
	for _, l := range enumerated {
		if _, ok := semanticSet[regex.TraceKey(l)]; !ok {
			t.Errorf("completeness violated for %v: trace %v ∈ infer(p) = %v but ∉ L(p)", p, l, inferred)
		}
	}
}

func TestTheorem1SoundnessAndTheorem2Completeness(t *testing.T) {
	for _, p := range interestingPrograms() {
		assertTheorems(t, p, theoremTraceBound)
	}
}

func TestTheoremsOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(2023))
	for i := 0; i < randomPrograms; i++ {
		p := ir.Random(rng, ir.GeneratorConfig{MaxDepth: 3, Labels: []string{"a", "b"}})
		assertTheorems(t, p, 3)
		if t.Failed() {
			t.Fatalf("counterexample program #%d: %v", i, p)
		}
	}
}

func TestTheoremsOnDeepRandomPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("deep random programs are slow")
	}
	rng := rand.New(rand.NewSource(406))
	for i := 0; i < 150; i++ {
		p := ir.Random(rng, ir.GeneratorConfig{MaxDepth: 5, Labels: []string{"a", "b", "c"}})
		assertTheorems(t, p, 3)
		if t.Failed() {
			t.Fatalf("counterexample program #%d: %v", i, p)
		}
	}
}

// TestCorollary1Regularity checks that infer(p), a regular expression,
// recognizes L(p): the per-status components of ⟦p⟧ also match the
// per-status semantics, which is the stronger invariant behind the
// corollary.
func TestCorollary1PerStatusDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 400; i++ {
		p := ir.Random(rng, ir.GeneratorConfig{MaxDepth: 3, Labels: []string{"a", "b"}})
		res := Extract(p)
		returned := regex.RawAlts(append([]regex.Regex{regex.Empty()}, res.Returned...)...)

		for _, e := range trace.Enumerate(p, 3) {
			switch e.Status {
			case trace.Ongoing:
				if !regex.Match(res.Ongoing, e.Trace) {
					t.Fatalf("program %v: ongoing trace %v not matched by r = %v", p, e.Trace, res.Ongoing)
				}
			case trace.Returned:
				if !regex.Match(returned, e.Trace) {
					t.Fatalf("program %v: returned trace %v not matched by s = %v", p, e.Trace, res.Returned)
				}
			}
		}
		// Converse: expressions do not invent traces.
		for _, l := range regex.Enumerate(res.Ongoing, 2) {
			if !trace.In(trace.Ongoing, l, p) {
				t.Fatalf("program %v: r = %v matches %v which is not ongoing-derivable", p, res.Ongoing, l)
			}
		}
		for _, l := range regex.Enumerate(returned, 2) {
			if !trace.In(trace.Returned, l, p) {
				t.Fatalf("program %v: s = %v matches %v which is not returned-derivable", p, res.Returned, l)
			}
		}
	}
}

func TestInferredAlphabetSubsetOfProgramLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		p := ir.Random(rng, ir.GeneratorConfig{MaxDepth: 4})
		labels := make(map[string]struct{})
		for _, l := range ir.Labels(p) {
			labels[l] = struct{}{}
		}
		for _, f := range regex.Alphabet(Infer(p)) {
			if _, ok := labels[f]; !ok {
				t.Fatalf("program %v: inferred symbol %q not a program label", p, f)
			}
		}
	}
}
