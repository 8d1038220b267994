package shelley

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/internal/pipeline"
	"github.com/shelley-go/shelley/internal/pyparse"
)

// sessionSource builds a module of one base class (Dev, last in the
// file so editing it shifts no other class's positions) and nComposites
// composites over it. Composite method bodies are derived from seeds so
// a test can regenerate exactly one method with a new seed — a
// one-method, layout-preserving edit.
func sessionSource(nComposites int, seeds map[string]int64) string {
	var b strings.Builder
	for i := 0; i < nComposites; i++ {
		name := fmt.Sprintf("Ctl%d", i)
		fmt.Fprintf(&b, "@sys([\"d\"])\nclass %s:\n    def __init__(self):\n        self.d = Dev()\n\n", name)
		for m := 0; m < 2; m++ {
			decorator := "@op_initial"
			next := fmt.Sprintf("[\"m%d\"]", m+1)
			if m == 1 {
				decorator = "@op_final"
				next = "[]"
			}
			seed := seeds[fmt.Sprintf("%s.m%d", name, m)]
			rng := rand.New(rand.NewSource(seed))
			fmt.Fprintf(&b, "    %s\n    def m%d(self):\n", decorator, m)
			// Fixed statement count and shape; only the call targets
			// draw from the seed, so every generation has identical
			// line/column layout.
			for s := 0; s < 3; s++ {
				fmt.Fprintf(&b, "        self.d.op%d()\n", rng.Intn(2))
			}
			fmt.Fprintf(&b, "        return %s\n\n", next)
		}
	}
	b.WriteString("@sys\nclass Dev:\n")
	devSeed := seeds["Dev"]
	rng := rand.New(rand.NewSource(devSeed))
	for i := 0; i < 2; i++ {
		decorator := "@op_initial_final"
		var next []string
		for j := 0; j < 2; j++ {
			if rng.Intn(2) == 0 {
				next = append(next, fmt.Sprintf("%q", fmt.Sprintf("op%d", j)))
			}
		}
		fmt.Fprintf(&b, "    %s\n    def op%d(self):\n        return [%s]\n\n",
			decorator, i, strings.Join(next, ", "))
	}
	return b.String()
}

// TestSessionDiffGranularity pins the diff layers: first generation is
// Initial; a one-method body edit in a composite marks only that class
// (and that method) changed with no protocol propagation; a protocol
// edit to the base class invalidates every dependent.
func TestSessionDiffGranularity(t *testing.T) {
	ctx := context.Background()
	seeds := map[string]int64{"Ctl0.m0": 1, "Ctl0.m1": 2, "Ctl1.m0": 3, "Ctl1.m1": 4, "Dev": 10}
	s := NewSession()

	_, d, err := s.Update(ctx, "v1", []byte(sessionSource(2, seeds)))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Initial || len(d.Added) != 3 || len(d.Invalidated) != 3 {
		t.Fatalf("initial diff = %+v", d)
	}

	// Identical source: recognized without reparsing, everything
	// unchanged.
	_, d, err = s.Update(ctx, "v1", []byte(sessionSource(2, seeds)))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Clean() || len(d.Unchanged) != 3 {
		t.Fatalf("identical source diff = %+v", d)
	}

	// Body-only edit of Ctl1.m0 (call targets move, layout identical):
	// one class changed, one method changed, no propagation.
	seeds["Ctl1.m0"] = 99
	_, d, err = s.Update(ctx, "v2", []byte(sessionSource(2, seeds)))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(d.Changed) != "[Ctl1]" || len(d.ProtocolChanged) != 0 {
		t.Fatalf("body edit diff = %+v", d)
	}
	if fmt.Sprint(d.Invalidated) != "[Ctl1]" {
		t.Fatalf("body edit invalidated %v, want [Ctl1]", d.Invalidated)
	}
	md := d.Methods["Ctl1"]
	if fmt.Sprint(md.Changed) != "[m0]" || fmt.Sprint(md.Unchanged) != "[m1]" {
		t.Fatalf("method diff = %+v", md)
	}

	// Protocol edit of Dev (different continuation sets): Dev changes
	// at the protocol level and both composites are invalidated.
	seeds["Dev"] = 11
	if sessionSource(2, seeds) == sessionSource(2, map[string]int64{"Ctl0.m0": 1, "Ctl0.m1": 2, "Ctl1.m0": 99, "Ctl1.m1": 4, "Dev": 10}) {
		t.Skip("seed collision: new Dev seed generated identical protocol")
	}
	_, d, err = s.Update(ctx, "v3", []byte(sessionSource(2, seeds)))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(d.Changed) != "[Dev]" || fmt.Sprint(d.ProtocolChanged) != "[Dev]" {
		t.Fatalf("protocol edit diff = %+v", d)
	}
	if fmt.Sprint(d.Invalidated) != "[Ctl0 Ctl1 Dev]" {
		t.Fatalf("protocol edit invalidated %v, want [Ctl0 Ctl1 Dev]", d.Invalidated)
	}

	// A load error must leave the previous generation resident.
	if _, _, err := s.Update(ctx, "broken", []byte("class {")); err == nil {
		t.Fatal("broken source loaded")
	}
	if s.Module() == nil || len(s.Module().Classes()) != 3 {
		t.Fatal("failed update evicted the resident module")
	}
}

// TestSessionIncrementalReuse pins the stage-level reuse contract of a
// warm edit loop: an identical re-check is all hits; a one-method edit
// re-executes the report stage for exactly the invalidated classes and
// reuses every other class's report.
func TestSessionIncrementalReuse(t *testing.T) {
	ctx := context.Background()
	seeds := map[string]int64{"Dev": 10}
	for i := 0; i < 6; i++ {
		seeds[fmt.Sprintf("Ctl%d.m0", i)] = int64(2*i + 1)
		seeds[fmt.Sprintf("Ctl%d.m1", i)] = int64(2*i + 2)
	}
	s := NewSession()

	cold, err := s.Recheck(ctx, "v1", []byte(sessionSource(6, seeds)))
	if err != nil {
		t.Fatal(err)
	}
	if cold.CheckedClasses != 7 || cold.ReusedReports != 0 {
		t.Fatalf("cold round: checked=%d reused=%d, want 7/0", cold.CheckedClasses, cold.ReusedReports)
	}

	warm, err := s.Recheck(ctx, "v1", []byte(sessionSource(6, seeds)))
	if err != nil {
		t.Fatal(err)
	}
	if warm.CheckedClasses != 0 || warm.ReusedReports != 7 {
		t.Fatalf("identical round: checked=%d reused=%d, want 0/7", warm.CheckedClasses, warm.ReusedReports)
	}
	if warm.Stats.TotalMisses() != 0 {
		t.Fatalf("identical round ran %d stage builds:\n%s", warm.Stats.TotalMisses(), warm.Stats)
	}

	// One-method body edit in one composite: exactly one report
	// re-executes; the base class and the five untouched composites are
	// answered from cache, and no protocol automaton is rebuilt.
	seeds["Ctl3.m1"] = 1001
	inc, err := s.Recheck(ctx, "v2", []byte(sessionSource(6, seeds)))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(inc.Diff.Invalidated) != "[Ctl3]" {
		t.Fatalf("invalidated %v, want [Ctl3]", inc.Diff.Invalidated)
	}
	if inc.CheckedClasses != 1 || inc.ReusedReports != 6 {
		t.Fatalf("incremental round: checked=%d reused=%d, want 1/6\n%s", inc.CheckedClasses, inc.ReusedReports, inc.Stats)
	}
	if specMisses := inc.Stats.Of(pipeline.StageSpec).Misses; specMisses != 0 {
		t.Fatalf("body-only edit rebuilt %d protocol automata", specMisses)
	}

	// The incremental reports are byte-identical to a cold full check
	// of the same source.
	fresh, err := LoadSource(sessionSource(6, seeds))
	if err != nil {
		t.Fatal(err)
	}
	freshReports, err := fresh.CheckAllConcurrent(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range inc.Reports {
		if r.String() != freshReports[i].String() {
			t.Fatalf("class %d: incremental report diverged from cold check:\n--- incremental ---\n%s\n--- cold ---\n%s",
				i, r.String(), freshReports[i].String())
		}
	}
}

// TestSessionPropertyRandomEdits is the incremental-invalidation
// property test: across random modules and random one-method edits, the
// warm incremental re-check must (a) re-execute the report stage for
// exactly the classes the depgraph-propagated diff invalidates, reusing
// every other class's report, and (b) produce reports byte-identical to
// a cold full check of the same source. Runs under -race in CI — the
// cold comparison check runs concurrently, sharing nothing with the
// session cache.
func TestSessionPropertyRandomEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	ctx := context.Background()
	for trial := 0; trial < 25; trial++ {
		nComposites := 2 + rng.Intn(3)
		seeds := map[string]int64{"Dev": rng.Int63()}
		var methodKeys []string
		for i := 0; i < nComposites; i++ {
			for m := 0; m < 2; m++ {
				k := fmt.Sprintf("Ctl%d.m%d", i, m)
				seeds[k] = rng.Int63()
				methodKeys = append(methodKeys, k)
			}
		}
		s := NewSession()
		if _, err := s.Recheck(ctx, "v1", []byte(sessionSource(nComposites, seeds))); err != nil {
			t.Fatalf("trial %d: cold round: %v", trial, err)
		}

		// Random one-method edit: either one composite method's body
		// (layout-preserving, no propagation expected) or the base
		// class's protocol (propagates to every composite).
		if rng.Intn(3) > 0 {
			seeds[methodKeys[rng.Intn(len(methodKeys))]] = rng.Int63()
		} else {
			seeds["Dev"] = rng.Int63()
		}
		src := sessionSource(nComposites, seeds)
		inc, err := s.Recheck(ctx, "v2", []byte(src))
		if err != nil {
			t.Fatalf("trial %d: incremental round: %v", trial, err)
		}

		total := nComposites + 1
		wantChecked := len(inc.Diff.Invalidated)
		if inc.CheckedClasses != wantChecked || inc.ReusedReports != total-wantChecked {
			t.Fatalf("trial %d: checked=%d reused=%d, want %d/%d (invalidated %v)\n%s",
				trial, inc.CheckedClasses, inc.ReusedReports, wantChecked, total-wantChecked,
				inc.Diff.Invalidated, inc.Stats)
		}
		if len(inc.Diff.ProtocolChanged) == 0 {
			// A body-only edit must not rebuild any protocol automaton
			// or re-verify any dependent.
			if specMisses := inc.Stats.Of(pipeline.StageSpec).Misses; specMisses != 0 {
				t.Fatalf("trial %d: body-only edit rebuilt %d protocol automata", trial, specMisses)
			}
		}

		fresh, err := LoadSource(src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		freshReports, err := fresh.CheckAllConcurrent(4)
		if err != nil {
			t.Fatalf("trial %d: cold check: %v", trial, err)
		}
		for i, r := range inc.Reports {
			if r.String() != freshReports[i].String() {
				t.Fatalf("trial %d class %d: incremental report diverged from cold check\n--- incremental ---\n%s\n--- cold ---\n%s\nsource:\n%s",
					trial, i, r.String(), freshReports[i].String(), src)
			}
		}
	}
}

// assertSessionMatchesWhole pushes src through s and checks the outcome
// against a cold whole-module load of src: the same error text (or
// none), the same classes in order with equal model fingerprints, each
// re-parsing from the span it keeps to the syntax tree of a whole-module
// parse of src (positions included), and the same registry.
func assertSessionMatchesWhole(t *testing.T, s *Session, src string) {
	t.Helper()
	want, wantErr := LoadSource(src)
	got, _, err := s.Update(context.Background(), "", []byte(src))
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("session load error %v, whole-module load error %v\nsource: %q", err, wantErr, src)
	}
	if err != nil {
		return
	}
	gc, wc := got.Classes(), want.Classes()
	if len(gc) != len(wc) {
		t.Fatalf("session loaded %d classes, whole-module %d\nsource: %q", len(gc), len(wc), src)
	}
	tree, err := pyparse.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range wc {
		g := gc[i]
		gt, gerr := g.classDef()
		wt, werr := w.classDef()
		if gerr != nil || werr != nil {
			t.Fatalf("class %d: re-parse errors %v, %v\nsource: %q", i, gerr, werr, src)
		}
		if g.Name() != w.Name() || !reflect.DeepEqual(gt, tree.Classes[i]) || !reflect.DeepEqual(wt, tree.Classes[i]) {
			t.Fatalf("class %d: re-parsed session tree of %s or whole-module tree of %s differs from the tree of a whole-module parse\nsource: %q", i, g.Name(), w.Name(), src)
		}
		if g.model.Fingerprint() != w.model.Fingerprint() {
			t.Fatalf("class %d (%s): model fingerprints differ\nsource: %q", i, w.Name(), src)
		}
	}
	for name, w := range want.registry {
		if g := got.registry[name]; g == nil || g.Fingerprint() != w.Fingerprint() {
			t.Fatalf("registry entry %s differs\nsource: %q", name, src)
		}
	}
}

// crlf gives src CRLF line ends.
func crlf(src string) string { return strings.ReplaceAll(src, "\n", "\r\n") }

// FuzzSessionParseMatchesWhole is the differential test of the
// incremental frontend: a session's block-by-block load of a source —
// first cold, then as an edit of another source whose unchanged blocks
// it reuses — equals a whole-module parse of the same source.
func FuzzSessionParseMatchesWhole(f *testing.F) {
	const base = "@sys\nclass A:\n    @op_initial_final\n    def a(self):\n        return [\"a\"]\n\n"
	const composite = "@sys([\"x\"])\nclass B:\n    def __init__(self):\n        self.x = A()\n\n    @op_initial_final\n    def b(self):\n        self.x.a()\n        return []\n"
	valve, err := os.ReadFile(filepath.Join("testdata", "valve.py"))
	if err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		crlf(string(valve)), // CRLF line endings
		strings.TrimSuffix(base, "\n\n") + " \\\n" + composite,                            // backslash line before a class line
		strings.Replace(base, "return", "return \\\n", 1) + composite,                     // backslash inside a class
		strings.Replace(base, "return [\"a\"]", "x = (\n", 1) + composite + "        )\n", // class line inside an open bracket
		"import machine\n" + base + composite,                                             // module-level statement
		base + "@helper\ndef f():\n    return 1\n" + composite,                            // decorated module-level def
		"# a leading comment\n\n" + base + composite,                                      // leading comment
		base + strings.TrimSuffix(composite, "\n"),                                        // no trailing newline
		base + composite + base,                                                           // duplicate class names
		base + "@sys\n" + composite,                                                       // decorators stacked across a class line
		base + "\rclass C:\n    pass\n",                                                   // carriage return at column 0
		strings.Replace(base, "]\n", "]\x00\n", 1) + composite,                            // NUL byte
		"# a leading \x00 comment\n" + base + composite,                                   // NUL byte above the first class
		"# only a comment \x00\n",                                                         // NUL byte in a source with no class
		crlf(strings.TrimSuffix(base, "\n\n") + " \\\n" + composite),                      // backslash-CRLF before a decorator line
		crlf(strings.TrimSuffix(base, "\n\n") + " \\\nclass C:\n    pass\n"),              // backslash-CRLF before a class line
		crlf(strings.Replace(base, "return", "return \\\n", 1) + composite),               // backslash-CRLF inside a class
		base + "@sys\n", // decorators with no class
		"    " + base,   // indented first line
		"",
	}
	for _, dir := range []string{"testdata", filepath.Join("testdata", "pathological")} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.py"))
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, string(b))
		}
	}
	for _, src := range seeds {
		f.Add(src, src+"\n"+base)                    // append a class: every old block reused
		f.Add(src, "\n"+src)                         // shift every line: nothing reused
		f.Add(base+composite, src)                   // replace a module wholesale
		f.Add(src, strings.Replace(src, "(", "", 1)) // break (or keep) the first bracket
	}

	f.Fuzz(func(t *testing.T, a, b string) {
		s := NewSession()
		assertSessionMatchesWhole(t, s, a)
		assertSessionMatchesWhole(t, s, b)
	})
}

// TestSessionReusesUnchangedClasses pins the incremental frontend: after
// a one-method edit of the 13-class edit-loop module, the twelve
// unchanged classes keep their models from the previous generation,
// pointer for pointer; only the edited class is parsed and modeled
// again.
func TestSessionReusesUnchangedClasses(t *testing.T) {
	ctx := context.Background()
	s := NewSession()
	before, _, err := s.Update(ctx, "v1", []byte(editLoopSource(0)))
	if err != nil {
		t.Fatal(err)
	}
	after, d, err := s.Update(ctx, "v2", []byte(editLoopSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(d.Changed) != "[Ctl5]" {
		t.Fatalf("changed %v, want [Ctl5]", d.Changed)
	}
	bc, ac := before.Classes(), after.Classes()
	if len(bc) != 13 || len(ac) != 13 {
		t.Fatalf("class counts %d, %d, want 13", len(bc), len(ac))
	}
	for i := range ac {
		reused := ac[i].model == bc[i].model
		if want := ac[i].Name() != "Ctl5"; reused != want {
			t.Errorf("class %s: reused = %v, want %v", ac[i].Name(), reused, want)
		}
	}
}

// TestSessionReparsesShiftedClasses inserts a line into the middle
// class of three: the class above keeps its model, the edited class and
// the one below it (whose positions moved) are parsed again, and the
// round's reports are byte-identical to a cold LoadSource + CheckAll.
func TestSessionReparsesShiftedClasses(t *testing.T) {
	src := paperSource(t)
	edited := strings.Replace(src, "class BadSector:\n", "class BadSector:\n    # an inserted line\n", 1)
	if edited == src {
		t.Fatal("edit did not apply")
	}

	ctx := context.Background()
	s := NewSession()
	first, err := s.Recheck(ctx, "v1", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Recheck(ctx, "v2", []byte(edited))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Module.Classes() {
		reused := c.model == first.Module.Classes()[i].model
		if want := c.Name() == "Valve"; reused != want {
			t.Errorf("class %s: reused = %v, want %v", c.Name(), reused, want)
		}
	}

	cold, err := LoadSource(edited)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != len(want) {
		t.Fatalf("%d reports, want %d", len(res.Reports), len(want))
	}
	for i, r := range res.Reports {
		if r.String() != want[i].String() {
			t.Fatalf("report %d diverged from a cold check:\n--- session ---\n%s\n--- cold ---\n%s", i, r, want[i])
		}
	}
	if res.Reports[1].OK() {
		t.Fatalf("BadSector report carries no finding:\n%s", res.Reports[1])
	}
}

// TestSessionBrokenBlockKeepsGeneration breaks one class block of a
// resident module: the update fails with exactly LoadSource's error
// (text and position), and the previous generation stays resident.
func TestSessionBrokenBlockKeepsGeneration(t *testing.T) {
	ctx := context.Background()
	s := NewSession()
	good, _, err := s.Update(ctx, "", []byte(editLoopSource(0)))
	if err != nil {
		t.Fatal(err)
	}
	broken := strings.Replace(editLoopSource(1), "class Ctl7:", "class Ctl7(:", 1)
	_, wantErr := LoadSource(broken)
	if wantErr == nil {
		t.Fatal("broken source loads")
	}
	if _, _, err := s.Update(ctx, "", []byte(broken)); fmt.Sprint(err) != wantErr.Error() {
		t.Fatalf("session error %v, LoadSource error %v", err, wantErr)
	}
	if s.Module() != good {
		t.Fatal("a failed update replaced the resident generation")
	}
	// The next good edit still reuses the resident generation's blocks.
	next, _, err := s.Update(ctx, "", []byte(editLoopSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if next.Classes()[0].model != good.Classes()[0].model {
		t.Fatal("the edit after a failed update reparsed an unchanged class")
	}
}

// TestSessionBlockMemory edits every class of a 200-class module once
// through one session. Each reused syntax tree slices the source of
// the update that parsed it; unless each block is parsed from its own
// copy, every update's whole source stays alive and the heap grows
// with the number of edits. The post-GC heap at the end must stay
// within twice its value after the first update.
func TestSessionBlockMemory(t *testing.T) {
	const n = 200
	edited := make([]bool, n)
	source := func() []byte {
		var b strings.Builder
		for i := 0; i < n; i++ {
			next := "a"
			if edited[i] {
				next = "b"
			}
			fmt.Fprintf(&b, "@sys\nclass C%d:\n    @op_initial_final\n    def a(self):\n        return [%q]\n\n", i, next)
			b.WriteString("    @op_initial_final\n    def b(self):\n        return [\"a\"]\n\n")
		}
		return []byte(b.String())
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	ctx := context.Background()
	s := NewSession()
	if _, _, err := s.Update(ctx, "", source()); err != nil {
		t.Fatal(err)
	}
	first := heap()
	for i := 0; i < n; i++ {
		edited[i] = true
		if _, d, err := s.Update(ctx, "", source()); err != nil || len(d.Changed) != 1 {
			t.Fatalf("edit %d: changed %v, err %v", i, d.Changed, err)
		}
	}
	last := heap()
	runtime.KeepAlive(s)
	t.Logf("post-GC heap %d KB after the first update, %d KB after %d edits", first/1024, last/1024, n)
	if last > 2*first {
		t.Errorf("heap grew from %d KB to %d KB over %d one-class edits (> 2x)", first/1024, last/1024, n)
	}
}
