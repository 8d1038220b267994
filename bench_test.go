package shelley

// Benchmark harness: one Benchmark* target per paper artifact (see the
// experiment index in DESIGN.md §3), plus ablation benchmarks for the
// design choices the library makes. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute timings are machine-dependent; EXPERIMENTS.md records the
// shapes that must hold (e.g. Glushkov ≤ Thompson states, RS ≤ classic
// membership queries).

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/check"
	"github.com/shelley-go/shelley/internal/core"
	"github.com/shelley-go/shelley/internal/ir"
	"github.com/shelley-go/shelley/internal/learn"
	"github.com/shelley-go/shelley/internal/ltlf"
	"github.com/shelley-go/shelley/internal/obs"
	"github.com/shelley-go/shelley/internal/regex"
	"github.com/shelley-go/shelley/internal/trace"
)

func mustRead(b *testing.B, name string) string {
	b.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		b.Fatal(err)
	}
	return string(data)
}

func mustLoadPaper(b *testing.B) *Module {
	b.Helper()
	m, err := LoadFiles(
		filepath.Join("testdata", "valve.py"),
		filepath.Join("testdata", "badsector.py"),
		filepath.Join("testdata", "goodsector.py"),
	)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// --- T1: Table 1 — parsing and modelling every annotation form ---

func BenchmarkTable1Annotations(b *testing.B) {
	src := mustRead(b, "valve.py") + "\n" + mustRead(b, "badsector.py")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LoadSource(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T2: Table 2 — lowering the five return-statement forms ---

func BenchmarkTable2Returns(b *testing.B) {
	src := `@sys
class C:
    @op_initial
    def a(self):
        return ["b"]
    @op_initial
    def b(self):
        return ["a", "b"]
    @op_initial
    def c(self):
        return ["b"], 2
    @op_initial
    def d(self):
        return ["b"], True
    @op_initial_final
    def e(self):
        return ["a", "b"], 2
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LoadSource(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F1: Fig. 1 — regenerating the Valve diagram ---

func BenchmarkFig1ValveDiagram(b *testing.B) {
	m := mustLoadPaper(b)
	valve, _ := m.Class("Valve")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dot := valve.ProtocolDiagram(); len(dot) == 0 {
			b.Fatal("empty diagram")
		}
	}
}

// --- F2: Fig. 2 — full BadSector verification (both errors) ---

func BenchmarkFig2BadSectorCheck(b *testing.B) {
	m := mustLoadPaper(b)
	bad, _ := m.Class("BadSector")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := bad.Check()
		if err != nil {
			b.Fatal(err)
		}
		if len(report.Diagnostics) != 2 {
			b.Fatal("expected both paper errors")
		}
	}
}

// BenchmarkFig2GoodSectorCheck is the passing-counterpart baseline: how
// much of the cost is error search vs. plain verification.
func BenchmarkFig2GoodSectorCheck(b *testing.B) {
	m := mustLoadPaper(b)
	good, _ := m.Class("GoodSector")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := good.Check()
		if err != nil {
			b.Fatal(err)
		}
		if !report.OK() {
			b.Fatal("GoodSector must verify")
		}
	}
}

// --- F3: Fig. 3 — dependency-graph extraction for Sector ---

func BenchmarkFig3SectorModel(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("testdata", "sector.py"))
	if err != nil {
		b.Fatal(err)
	}
	m, err := LoadSource(string(data))
	if err != nil {
		b.Fatal(err)
	}
	sector, _ := m.Class("Sector")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sector.DependencyDiagram(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F4a: Fig. 4 Examples 1-2 — trace-semantics membership ---

func benchProgram() ir.Program {
	return ir.NewLoop(ir.NewSeq(
		ir.NewCall("a"),
		ir.NewIf(
			ir.NewSeq(ir.NewCall("b"), ir.Return{}),
			ir.NewCall("c"),
		),
	))
}

func BenchmarkFig4TraceMembership(b *testing.B) {
	p := benchProgram()
	t1 := []string{"a", "c", "a", "c"}
	t2 := []string{"a", "c", "a", "b"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !trace.In(trace.Ongoing, t1, p) || !trace.In(trace.Returned, t2, p) {
			b.Fatal("paper examples must hold")
		}
	}
}

// --- F4b: Fig. 4 Example 3 — behavior inference ---

func BenchmarkFig4Inference(b *testing.B) {
	p := benchProgram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := core.Extract(p)
		if len(res.Returned) != 1 {
			b.Fatal("inference shape changed")
		}
	}
}

// --- TH1/TH2: the theorem validation loop, as a benchmark ---

func BenchmarkTheoremValidation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	programs := make([]ir.Program, 64)
	for i := range programs {
		programs[i] = ir.Random(rng, ir.GeneratorConfig{MaxDepth: 3, Labels: []string{"a", "b"}})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := programs[i%len(programs)]
		inferred := core.Infer(p)
		sem := regex.TraceSet(trace.Language(p, 3))
		enum := regex.TraceSet(regex.Enumerate(inferred, 3))
		if len(sem) != len(enum) {
			b.Fatal("theorem violated")
		}
	}
}

// --- C1: Corollary 1 — regex→DFA→regex round trip ---

func BenchmarkCorollary1RoundTrip(b *testing.B) {
	inferred := regex.Simplify(core.Infer(benchProgram()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dfa := automata.CompileMinimal(inferred)
		back := dfa.ToRegex()
		if regex.IsEmptyLanguage(back) {
			b.Fatal("round trip lost the language")
		}
	}
}

// --- X1: L* learning of the Valve protocol ---

func BenchmarkLStarValve(b *testing.B) {
	m := mustLoadPaper(b)
	valve, _ := m.Class("Valve")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := valve.Learn(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// ablationRegex is a mid-size expression exercising all operators.
var ablationRegex = regex.MustParse("(a . (b + c))* . a . b . (c + a . (b + c)* . c)")

// BenchmarkAblationThompson/Glushkov/Derivatives compare the three
// regex→automaton constructions (paper future work discusses working
// directly on regular languages; these are the candidate engines).
func BenchmarkAblationThompson(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := automata.FromRegexThompson(ablationRegex)
		if n.NumStates() == 0 {
			b.Fatal("no states")
		}
	}
}

func BenchmarkAblationGlushkov(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := automata.FromRegexGlushkov(ablationRegex)
		if n.NumStates() == 0 {
			b.Fatal("no states")
		}
	}
}

func BenchmarkAblationDerivativeDFA(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := automata.FromRegexDerivatives(ablationRegex)
		if d.NumStates() == 0 {
			b.Fatal("no states")
		}
	}
}

// BenchmarkAblationMatch* compare trace matching via derivatives
// against a precompiled minimal DFA.
func BenchmarkAblationMatchDerivatives(b *testing.B) {
	tr := []string{"a", "b", "a", "c", "a", "b", "c"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		regex.Match(ablationRegex, tr)
	}
}

func BenchmarkAblationMatchDFA(b *testing.B) {
	d := automata.CompileMinimal(ablationRegex)
	tr := []string{"a", "b", "a", "c", "a", "b", "c"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Accepts(tr)
	}
}

// BenchmarkAblationEquivalence* compare equivalence checking with and
// without minimization.
func BenchmarkAblationEquivalenceDerivative(b *testing.B) {
	r1 := regex.MustParse("(a + b)*")
	r2 := regex.MustParse("(a* . b*)*")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !regex.Equivalent(r1, r2) {
			b.Fatal("languages equal")
		}
	}
}

func BenchmarkAblationEquivalenceMinimized(b *testing.B) {
	r1 := regex.MustParse("(a + b)*")
	r2 := regex.MustParse("(a* . b*)*")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d1 := automata.CompileMinimal(r1)
		d2 := automata.CompileMinimal(r2)
		if !automata.Equivalent(d1, d2) {
			b.Fatal("languages equal")
		}
	}
}

// BenchmarkAblationLStar* compare counterexample-processing strategies.
func benchLStar(b *testing.B, strategy learn.Strategy) {
	target := automata.CompileMinimal(regex.MustParse("(a . b . c . a . b)*"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := learn.LStar(learn.NewDFATeacher(target), learn.Config{Strategy: strategy})
		if err != nil {
			b.Fatal(err)
		}
		if res.DFA.NumStates() == 0 {
			b.Fatal("no automaton")
		}
	}
}

func BenchmarkAblationLStarClassic(b *testing.B) { benchLStar(b, learn.ClassicAngluin) }

func BenchmarkAblationLStarRivestSchapire(b *testing.B) { benchLStar(b, learn.RivestSchapire) }

// BenchmarkAblationKearnsVazirani learns the same target with the
// classification-tree algorithm.
func BenchmarkAblationKearnsVazirani(b *testing.B) {
	target := automata.CompileMinimal(regex.MustParse("(a . b . c . a . b)*"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := learn.KearnsVazirani(learn.NewDFATeacher(target), learn.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if res.DFA.NumStates() == 0 {
			b.Fatal("no automaton")
		}
	}
}

// BenchmarkAblationLTLfCompile measures claim compilation, the piece
// that replaces the paper's NuSMV backend.
func BenchmarkAblationLTLfCompile(b *testing.B) {
	f := ltlf.MustParse("(!a.open) W b.open")
	alphabet := []string{
		"a.clean", "a.close", "a.open", "a.test",
		"b.clean", "b.close", "b.open", "b.test",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := ltlf.CompileNegation(f, alphabet)
		if d.NumStates() == 0 {
			b.Fatal("no automaton")
		}
	}
}

// BenchmarkScaleCheckByOps measures how verification scales with the
// number of composite operations (the state-space driver in practice).
func BenchmarkScaleCheckByOps(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(benchName("ops", n), func(b *testing.B) {
			src := syntheticComposite(n)
			m, err := LoadSource(src)
			if err != nil {
				b.Fatal(err)
			}
			c, _ := m.Class("Chain")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report, err := c.Check()
				if err != nil {
					b.Fatal(err)
				}
				if !report.OK() {
					b.Fatalf("chain should verify:\n%s", report)
				}
			}
		})
	}
}

func benchName(prefix string, n int) string {
	return prefix + "=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// syntheticComposite builds a chain of n composite operations that each
// run a full valid valve cycle.
func syntheticComposite(n int) string {
	src := `@sys
class Dev:
    @op_initial
    def acquire(self):
        return ["release"]

    @op_final
    def release(self):
        return ["acquire"]

@sys(["d"])
class Chain:
    def __init__(self):
        self.d = Dev()

`
	for i := 0; i < n; i++ {
		decorator := "@op"
		if i == 0 {
			decorator = "@op_initial"
		}
		if i == n-1 {
			decorator = "@op_final"
			if n == 1 {
				decorator = "@op_initial_final"
			}
		}
		next := "[]"
		if i < n-1 {
			next = `["step` + itoa(i+1) + `"]`
		}
		src += "    " + decorator + "\n" +
			"    def step" + itoa(i) + "(self):\n" +
			"        self.d.acquire()\n" +
			"        self.d.release()\n" +
			"        return " + next + "\n\n"
	}
	return src
}

// BenchmarkAblationFlattening compares the paper's union-level
// flattening against the exit-aware (precise) mode on the BadSector
// verification.
func benchFlattening(b *testing.B, opts ...check.Option) {
	m := mustLoadPaper(b)
	bad, _ := m.Class("BadSector")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := bad.Check(opts...)
		if err != nil {
			b.Fatal(err)
		}
		if report.OK() {
			b.Fatal("BadSector must fail")
		}
	}
}

func BenchmarkAblationFlatteningUnion(b *testing.B) { benchFlattening(b) }

func BenchmarkAblationFlatteningPrecise(b *testing.B) {
	benchFlattening(b, check.Precise())
}

// BenchmarkScaleLTLfByFormulaSize compiles nested weak-until chains of
// growing depth — the claim-compiler scaling series.
func BenchmarkScaleLTLfByFormulaSize(b *testing.B) {
	alphabet := []string{"a", "b", "c", "d"}
	for _, depth := range []int{2, 4, 6, 8} {
		b.Run(benchName("depth", depth), func(b *testing.B) {
			f := ltlf.NewAtom("a")
			syms := []string{"b", "c", "d"}
			for i := 0; i < depth; i++ {
				f = ltlf.WeakUntilOf(ltlf.NotOf(ltlf.NewAtom(syms[i%3])), f)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := ltlf.Compile(f, alphabet)
				if d.NumStates() == 0 {
					b.Fatal("no automaton")
				}
			}
		})
	}
}

// BenchmarkScaleLearnByProtocolSize learns ring protocols of growing
// size — the model-inference scaling series (X1).
func BenchmarkScaleLearnByProtocolSize(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(benchName("states", n), func(b *testing.B) {
			// Ring language: (s0 . s1 . ... . s(n-1))*
			parts := make([]regex.Regex, n)
			for i := range parts {
				parts[i] = regex.Symbol("s" + itoa(i))
			}
			target := automata.CompileMinimal(regex.Star(regex.Concat(parts...)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := learn.LStar(learn.NewDFATeacher(target), learn.Config{})
				if err != nil {
					b.Fatal(err)
				}
				if res.DFA.NumStates() != n {
					b.Fatalf("learned %d states, want %d", res.DFA.NumStates(), n)
				}
			}
		})
	}
}

// BenchmarkScaleEnumerate measures the bounded trace enumerator on the
// paper's example program at growing depth bounds.
func BenchmarkScaleEnumerate(b *testing.B) {
	p := benchProgram()
	for _, depth := range []int{4, 6, 8} {
		b.Run(benchName("depth", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := trace.Language(p, depth); len(got) == 0 {
					b.Fatal("no traces")
				}
			}
		})
	}
}

// --- P1: the memoizing pipeline cache — cold vs cached verification ---

// benchCheckAllModule is the workload for the cache benchmarks: the
// paper's three classes plus a 16-operation synthetic chain, so both
// small and state-space-heavy analyses are in the mix.
func benchCheckAllModule(b *testing.B) *Module {
	b.Helper()
	src := mustRead(b, "valve.py") + "\n" +
		mustRead(b, "badsector.py") + "\n" +
		mustRead(b, "goodsector.py") + "\n" +
		syntheticComposite(16)
	m, err := LoadSource(src)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkCheckAllCold measures full verification with memoization
// disabled: every iteration recomputes every behavior, automaton, and
// report from scratch. Pair with BenchmarkCheckAllCached; EXPERIMENTS.md
// records the ratio (the acceptance bar is ≥ 5×).
func BenchmarkCheckAllCold(b *testing.B) {
	m := benchCheckAllModule(b)
	m.SetPipelineCaching(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := m.CheckAll()
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) == 0 {
			b.Fatal("no reports")
		}
	}
}

// BenchmarkCheckAllCached measures the warm path: one priming pass fills
// the cache, then every iteration is fingerprint lookups plus report
// clones.
func BenchmarkCheckAllCached(b *testing.B) {
	m := benchCheckAllModule(b)
	if _, err := m.CheckAll(); err != nil { // prime
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports, err := m.CheckAll()
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) == 0 {
			b.Fatal("no reports")
		}
	}
}

// BenchmarkCheckAllConcurrentCached is the fan-out on a warm cache —
// the CheckAllConcurrent fast path CI smoke-tests.
func BenchmarkCheckAllConcurrentCached(b *testing.B) {
	m := mustLoadPaper(b)
	if _, err := m.CheckAll(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.CheckAllConcurrent(2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- P3: tracing overhead on the warm path ---

// BenchmarkCheckAllTracingOff is the warm-cache baseline for the
// tracing ablation: CheckAllContext with a plain context, so the only
// obs cost is one nil context lookup per instrumentation point.
func BenchmarkCheckAllTracingOff(b *testing.B) {
	m := benchCheckAllModule(b)
	ctx := context.Background()
	if _, err := m.CheckAllContext(ctx, 1); err != nil { // prime
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.CheckAllContext(ctx, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckAllTracingOn is the same warm workload with a live
// tracer exporting into a ring buffer — the shelleyd -trace
// configuration. EXPERIMENTS.md P3 records the ratio (acceptance bar:
// <5% overhead on the warm path).
func BenchmarkCheckAllTracingOn(b *testing.B) {
	m := benchCheckAllModule(b)
	ring := obs.NewRing(1 << 12)
	ctx := obs.ContextWithTracer(context.Background(), obs.New(obs.WithExporter(ring)))
	if _, err := m.CheckAllContext(ctx, 1); err != nil { // prime
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.CheckAllContext(ctx, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceExecution runs the concrete Valve cycle on the
// emulated board.
func BenchmarkDeviceExecution(b *testing.B) {
	m := mustLoadPaper(b)
	valve, _ := m.Class("Valve")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		board := NewBoard()
		dev, err := valve.NewDevice(board)
		if err != nil {
			b.Fatal(err)
		}
		board.SetInput(29, true)
		for _, op := range []string{"test", "open", "close"} {
			if _, _, err := dev.Call(op); err != nil {
				b.Fatal(err)
			}
		}
	}
}
