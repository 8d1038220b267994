package shelley

// This file is the experiment index of DESIGN.md §3: one regeneration
// target per table and figure of the paper. Each TestPaper* test
// recomputes the corresponding artifact and asserts the properties the
// paper reports; the matching Benchmark* targets live in bench_test.go.

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/core"
	"github.com/shelley-go/shelley/internal/ir"
	"github.com/shelley-go/shelley/internal/regex"
	"github.com/shelley-go/shelley/internal/trace"
)

// --- T1: Table 1 — annotations, where they apply, and their meanings ---

func TestPaperTable1Annotations(t *testing.T) {
	src := `@claim("G !x.boom")
@sys(["x"])
class Composite:
    def __init__(self):
        self.x = Base()

    @op_initial
    def first(self):
        self.x.go()
        return ["middle"]

    @op
    def middle(self):
        return ["last", "both"]

    @op_final
    def last(self):
        return []

    @op_initial_final
    def both(self):
        return []

@sys
class Base:
    @op_initial_final
    def go(self):
        return []
`
	m, err := LoadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := m.Class("Composite")
	base, _ := m.Class("Base")

	// @claim applies to a class and records a temporal requirement.
	if got := comp.Claims(); !reflect.DeepEqual(got, []string{"G !x.boom"}) {
		t.Errorf("claims = %v", got)
	}
	// @sys marks a base class; @sys([...]) a composite class.
	if got := base.Subsystems(); len(got) != 0 {
		t.Errorf("base subsystems = %v", got)
	}
	if got := comp.Subsystems(); !reflect.DeepEqual(got, []string{"x"}) {
		t.Errorf("composite subsystems = %v", got)
	}
	// The four method annotations set initial/final as Table 1 states.
	spec, err := comp.SpecDFA("")
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		trace []string
		want  bool
	}{
		{[]string{"first", "middle", "last"}, true}, // initial → op → final
		{[]string{"both"}, true},                    // initial and final at once
		{[]string{"middle"}, false},                 // @op is not initial
		{[]string{"first", "middle"}, false},        // @op is not final
		{[]string{"first"}, false},                  // @op_initial is not final
		{[]string{"last"}, false},                   // @op_final is not initial
	} {
		if got := spec.Accepts(tt.trace); got != tt.want {
			t.Errorf("spec.Accepts(%v) = %v, want %v", tt.trace, got, tt.want)
		}
	}
}

// --- T2: Table 2 — return statements and their meanings ---

func TestPaperTable2Returns(t *testing.T) {
	src := `@sys
class C:
    @op_initial
    def a(self):
        return ["close"]

    @op_initial
    def b(self):
        return ["open", "clean"]

    @op_initial
    def c(self):
        return ["close"], 2

    @op_initial
    def d(self):
        return ["close"], True

    @op_initial
    def e(self):
        return ["open", "clean"], 2

    @op_final
    def close(self):
        return []

    @op_final
    def open(self):
        return []

    @op_final
    def clean(self):
        return []
`
	m, err := LoadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := m.Class("C")
	spec, err := c.SpecDFA("")
	if err != nil {
		t.Fatal(err)
	}
	// Rows 1 and 3 and 4: expecting "close" next (rows 3-5 additionally
	// carry a user value, which does not change the protocol).
	for _, op := range []string{"a", "c", "d"} {
		if !spec.Accepts([]string{op, "close"}) {
			t.Errorf("[%s close] should be accepted", op)
		}
		if spec.Accepts([]string{op, "open"}) {
			t.Errorf("[%s open] should be rejected", op)
		}
	}
	// Rows 2 and 5: expecting "open" or "clean" next.
	for _, op := range []string{"b", "e"} {
		for _, next := range []string{"open", "clean"} {
			if !spec.Accepts([]string{op, next}) {
				t.Errorf("[%s %s] should be accepted", op, next)
			}
		}
		if spec.Accepts([]string{op, "close"}) {
			t.Errorf("[%s close] should be rejected", op)
		}
	}
}

// --- F1: Fig. 1 — the Valve diagram ---

func TestPaperFig1ValveDiagram(t *testing.T) {
	m, err := LoadFile(filepath.Join("testdata", "valve.py"))
	if err != nil {
		t.Fatal(err)
	}
	valve, _ := m.Class("Valve")
	dot := valve.ProtocolDiagram()
	// The five edges drawn in Fig. 1.
	for _, edge := range []string{
		`"test" -> "clean"`, `"test" -> "open"`,
		`"open" -> "close"`, `"close" -> "test"`, `"clean" -> "test"`,
	} {
		if !strings.Contains(dot, edge) {
			t.Errorf("Fig. 1 edge %s missing", edge)
		}
	}
	if strings.Count(dot, `" -> "`) != 5 {
		t.Errorf("Fig. 1 has exactly 5 edges; got\n%s", dot)
	}
}

// --- F2: Fig. 2 — BadSector: diagram and both §2.2 error messages ---

func TestPaperFig2BadSectorErrors(t *testing.T) {
	m, err := LoadFiles(
		filepath.Join("testdata", "valve.py"),
		filepath.Join("testdata", "badsector.py"),
	)
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := m.Class("BadSector")
	report, err := bad.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Diagnostics) != 2 {
		t.Fatalf("diagnostics = %d:\n%s", len(report.Diagnostics), report)
	}

	wantUsage := "Error in specification: INVALID SUBSYSTEM USAGE\n" +
		"Counter example: open_a, a.test, a.open\n" +
		"Subsystems errors:\n" +
		"  * Valve 'a': test, >open< (not final)"
	if got := report.Diagnostics[0].Message; got != wantUsage {
		t.Errorf("usage error:\n%s\nwant:\n%s", got, wantUsage)
	}

	claim := report.Diagnostics[1]
	if claim.Kind != KindClaimFailure {
		t.Fatalf("second diagnostic kind = %v", claim.Kind)
	}
	if !strings.Contains(claim.Message, "Formula: (!a.open) W b.open") {
		t.Errorf("claim error:\n%s", claim.Message)
	}
}

// --- F3: Fig. 3 — the Sector dependency model ---

func TestPaperFig3SectorModel(t *testing.T) {
	m, err := LoadFile(filepath.Join("testdata", "sector.py"))
	if err != nil {
		t.Fatal(err)
	}
	sector, _ := m.Class("Sector")
	dot, err := sector.DependencyDiagram()
	if err != nil {
		t.Fatal(err)
	}
	// 4 entry nodes, 6 exit nodes, 11 arcs — the structure of Fig. 3.
	if got := strings.Count(dot, "shape=box"); got != 4 {
		t.Errorf("entries = %d", got)
	}
	if got := strings.Count(dot, "shape=ellipse"); got != 6 {
		t.Errorf("exits = %d", got)
	}
	if got := strings.Count(dot, " -> "); got != 11 {
		t.Errorf("arcs = %d", got)
	}
}

// --- F4a: Fig. 4 Examples 1-2 — trace membership ---

func paperExampleProgram() ir.Program {
	return ir.NewLoop(ir.NewSeq(
		ir.NewCall("a"),
		ir.NewIf(
			ir.NewSeq(ir.NewCall("b"), ir.Return{}),
			ir.NewCall("c"),
		),
	))
}

func TestPaperFig4Examples12(t *testing.T) {
	p := paperExampleProgram()
	// Example 1: 0 ⊢ [a, c, a, c] ∈ p.
	if !trace.In(trace.Ongoing, []string{"a", "c", "a", "c"}, p) {
		t.Error("Example 1 fails")
	}
	// Example 2: R ⊢ [a, c, a, b] ∈ p.
	if !trace.In(trace.Returned, []string{"a", "c", "a", "b"}, p) {
		t.Error("Example 2 fails")
	}
}

// --- F4b: Fig. 4 Example 3 — behavior inference, verbatim ---

func TestPaperFig4Example3(t *testing.T) {
	res := core.Extract(paperExampleProgram())
	if got, want := res.Ongoing.String(), "(a . (b . 0 + c))*"; got != want {
		t.Errorf("⟦p⟧ ongoing = %q, want %q", got, want)
	}
	if len(res.Returned) != 1 {
		t.Fatalf("⟦p⟧ returned = %v", res.Returned)
	}
	if got, want := res.Returned[0].String(), "(a . (b . 0 + c))* . a . b"; got != want {
		t.Errorf("⟦p⟧ returned = %q, want %q", got, want)
	}
}

// --- TH1+TH2: Theorems 1 and 2 on fresh random programs ---

func TestPaperTheorems(t *testing.T) {
	rng := rand.New(rand.NewSource(20230810)) // the paper's date
	for i := 0; i < 300; i++ {
		p := ir.Random(rng, ir.GeneratorConfig{MaxDepth: 3, Labels: []string{"a", "b"}})
		inferred := core.Infer(p)
		semantic := regex.TraceSet(trace.Language(p, 3))
		enumerated := regex.TraceSet(regex.Enumerate(inferred, 3))
		if len(semantic) != len(enumerated) {
			t.Fatalf("program %v: |L(p)| = %d, |infer(p)| = %d", p, len(semantic), len(enumerated))
		}
		for k := range semantic {
			if _, ok := enumerated[k]; !ok {
				t.Fatalf("program %v: soundness violated", p)
			}
		}
	}
}

// --- C1: Corollary 1 — L(p) is regular; automata round trips ---

func TestPaperCorollary1Regularity(t *testing.T) {
	p := paperExampleProgram()
	inferred := regex.Simplify(core.Infer(p))
	dfa := automata.CompileMinimal(inferred)
	// The DFA decides L(p): agree with the trace semantics on every
	// trace up to length 6.
	alphabet := []string{"a", "b", "c"}
	frontier := [][]string{nil}
	for depth := 0; depth <= 6; depth++ {
		var next [][]string
		for _, tr := range frontier {
			if got, want := dfa.Accepts(tr), trace.InLanguage(tr, p); got != want {
				t.Errorf("DFA(%v) = %v, semantics = %v", tr, got, want)
			}
			if depth < 6 {
				for _, a := range alphabet {
					next = append(next, append(append([]string{}, tr...), a))
				}
			}
		}
		frontier = next
	}
	// Round trip: regex → DFA → regex preserves the language.
	back := dfa.ToRegex()
	if !regex.Equivalent(inferred, back) {
		t.Errorf("round trip changed language: %v vs %v", inferred, back)
	}
}

// --- X1: L* recovers the paper's protocols dynamically ---

func TestPaperX1LearnedModelsMatchStatic(t *testing.T) {
	m, err := LoadFiles(
		filepath.Join("testdata", "valve.py"),
		filepath.Join("testdata", "sector.py"),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Valve", "Sector"} {
		c, ok := m.Class(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		res, err := c.Learn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spec, err := c.SpecDFA("")
		if err != nil {
			t.Fatal(err)
		}
		if !automata.Equivalent(res.DFA, spec) {
			t.Errorf("%s: learned model differs from static model", name)
		}
	}
}
