package shelley

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/regex"
)

// thin wrappers keep the facade test readable.
func regexParse(src string) (regex.Regex, error)  { return regex.Parse(src) }
func automataCompile(r regex.Regex) *automata.DFA { return automata.CompileMinimal(r) }
func automataEquivalent(a, b *automata.DFA) bool  { return automata.Equivalent(a, b) }

func loadPaper(t *testing.T) *Module {
	t.Helper()
	m, err := LoadFiles(
		filepath.Join("testdata", "valve.py"),
		filepath.Join("testdata", "badsector.py"),
		filepath.Join("testdata", "goodsector.py"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLoadFileAndClassLookup(t *testing.T) {
	m, err := LoadFile(filepath.Join("testdata", "valve.py"))
	if err != nil {
		t.Fatal(err)
	}
	valve, ok := m.Class("Valve")
	if !ok {
		t.Fatal("Valve not found")
	}
	if got := valve.Operations(); !reflect.DeepEqual(got, []string{"test", "open", "close", "clean"}) {
		t.Errorf("operations = %v", got)
	}
	if len(valve.Subsystems()) != 0 || len(valve.Claims()) != 0 {
		t.Error("Valve is a base class without claims")
	}
	if _, ok := m.Class("Nope"); ok {
		t.Error("lookup of missing class should fail")
	}
}

func TestLoadFilesMergesRegistries(t *testing.T) {
	m := loadPaper(t)
	if got := m.Names(); !reflect.DeepEqual(got, []string{"BadSector", "GoodSector", "Valve"}) {
		t.Errorf("names = %v", got)
	}
	bad, _ := m.Class("BadSector")
	report, err := bad.Check()
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() {
		t.Error("BadSector must fail verification")
	}
	good, _ := m.Class("GoodSector")
	report, err = good.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Errorf("GoodSector must verify:\n%s", report)
	}
}

func TestLoadFilesRejectsDuplicates(t *testing.T) {
	p := filepath.Join("testdata", "valve.py")
	if _, err := LoadFiles(p, p); err == nil {
		t.Error("duplicate class across files should be rejected")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadFile(filepath.Join("testdata", "missing.py")); err == nil {
		t.Error("missing file should error")
	}
	if _, err := LoadSource("class C\n"); err == nil {
		t.Error("syntax error should surface")
	}
	if _, err := LoadSource("@sys\nclass C:\n    pass\n"); err == nil {
		t.Error("class without operations should surface a model error")
	}
}

// TestLoadSourceRejectsNUL pins that a NUL byte between two classes is
// a load error naming its line and column, not an early end of file
// that silently drops the second class.
func TestLoadSourceRejectsNUL(t *testing.T) {
	valve := readFileT(t, filepath.Join("testdata", "valve.py"))
	_, err := LoadSource(valve + "\x00" + readFileT(t, filepath.Join("testdata", "sector.py")))
	want := fmt.Sprintf("%d:1: source code cannot contain null bytes", strings.Count(valve, "\n")+1)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadSource with a NUL byte: error %v, want one containing %q", err, want)
	}
}

// TestLoadSourceCRLFContinuation pins that backslash continuations load
// the same with CRLF line ends as with LF ones.
func TestLoadSourceCRLFContinuation(t *testing.T) {
	lf := strings.ReplaceAll(readFileT(t, filepath.Join("testdata", "valve.py")), "return [", "return \\\n            [")
	crlf := strings.ReplaceAll(lf, "\n", "\r\n")
	var got [2]string
	for i, src := range []string{lf, crlf} {
		m, err := LoadSource(src)
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		reports, err := m.CheckAll()
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		for _, c := range m.Classes() {
			got[i] += c.Name() + " " + c.model.Fingerprint() + "\n"
		}
		b, err := json.Marshal(reports)
		if err != nil {
			t.Fatal(err)
		}
		got[i] += string(b)
	}
	if got[0] != got[1] {
		t.Fatalf("CRLF load differs from LF load:\nLF:   %s\nCRLF: %s", got[0], got[1])
	}
}

func TestCheckAll(t *testing.T) {
	m := loadPaper(t)
	reports, err := m.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	byClass := map[string]bool{}
	for _, r := range reports {
		byClass[r.Class] = r.OK()
	}
	if !byClass["Valve"] || byClass["BadSector"] || !byClass["GoodSector"] {
		t.Errorf("verdicts = %v", byClass)
	}
}

func TestBehaviorStrings(t *testing.T) {
	m := loadPaper(t)
	bad, _ := m.Class("BadSector")
	raw, err := bad.Behavior("open_a")
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"a.test", "a.open", "a.clean"} {
		if !strings.Contains(raw, sub) {
			t.Errorf("behavior %q missing %q", raw, sub)
		}
	}
	simp, err := bad.BehaviorSimplified("open_a")
	if err != nil {
		t.Fatal(err)
	}
	if want := "a.test . a.clean + a.test . a.open"; simp != want {
		t.Errorf("simplified = %q, want %q", simp, want)
	}
	if _, err := bad.Behavior("nope"); err == nil {
		t.Error("behavior of missing op should error")
	}
	if _, err := bad.BehaviorSimplified("nope"); err == nil {
		t.Error("simplified behavior of missing op should error")
	}
}

func TestDiagrams(t *testing.T) {
	m := loadPaper(t)
	valve, _ := m.Class("Valve")
	if dot := valve.ProtocolDiagram(); !strings.Contains(dot, `"test" -> "open"`) {
		t.Errorf("protocol diagram:\n%s", dot)
	}
	dep, err := valve.DependencyDiagram()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dep, "shape=box") {
		t.Errorf("dependency diagram:\n%s", dep)
	}
}

func TestSpecDFAFacade(t *testing.T) {
	m := loadPaper(t)
	valve, _ := m.Class("Valve")
	d, err := valve.SpecDFA("")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepts([]string{"test", "open", "close"}) {
		t.Error("spec should accept a full cycle")
	}
}

func TestSimulationFacade(t *testing.T) {
	m := loadPaper(t)
	good, _ := m.Class("GoodSector")
	sys, err := good.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Invoke("run"); err != nil {
		t.Fatal(err)
	}
	if !sys.CanStop() {
		t.Error("GoodSector run should end stoppable")
	}

	valve, _ := m.Class("Valve")
	inst := valve.NewInstance()
	if _, err := inst.Call("test"); err != nil {
		t.Fatal(err)
	}
}

func TestLearnFacade(t *testing.T) {
	m := loadPaper(t)
	valve, _ := m.Class("Valve")
	res, err := valve.Learn()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := valve.SpecDFA("")
	if err != nil {
		t.Fatal(err)
	}
	if res.DFA.NumStates() != spec.Minimize().NumStates() {
		t.Errorf("learned %d states, want %d", res.DFA.NumStates(), spec.Minimize().NumStates())
	}
	if res.MembershipQueries == 0 {
		t.Error("query stats missing")
	}
}

func TestDeviceFacade(t *testing.T) {
	m := loadPaper(t)
	valve, _ := m.Class("Valve")
	board := NewBoard()
	dev, err := valve.NewDevice(board)
	if err != nil {
		t.Fatal(err)
	}
	board.SetInput(29, true) // sensor says openable
	next, _, err := dev.Call("test")
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 1 || next[0] != "open" {
		t.Errorf("next = %v", next)
	}
	if _, _, err := dev.Call("open"); err != nil {
		t.Fatal(err)
	}
	high := board.HighPins()
	if len(high) != 2 || high[0] != 27 {
		t.Errorf("pins = %v, want control pin 27 high", high)
	}
	// Composites cannot be devices.
	bad, _ := m.Class("BadSector")
	if _, err := bad.NewDevice(board); err == nil {
		t.Error("composite NewDevice should error")
	}
}

func TestUsageViolationsFacade(t *testing.T) {
	m := loadPaper(t)
	bad, _ := m.Class("BadSector")
	vs, err := bad.UsageViolations(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 || vs[0].Subsystem != "a" {
		t.Errorf("violations = %+v", vs)
	}
	// Every reported violation replays as a runtime failure.
	for _, v := range vs {
		if err := bad.ReplayFlat(v.Trace); err == nil {
			t.Errorf("violation %v replayed cleanly", v.Trace)
		}
	}
}

func TestProtocolRegexFacade(t *testing.T) {
	m := loadPaper(t)
	valve, _ := m.Class("Valve")
	src, err := valve.ProtocolRegex()
	if err != nil {
		t.Fatal(err)
	}
	// The regex must denote exactly the spec language.
	r, err := regexParse(src)
	if err != nil {
		t.Fatalf("ProtocolRegex output %q does not parse: %v", src, err)
	}
	spec, err := valve.SpecDFA("")
	if err != nil {
		t.Fatal(err)
	}
	back := automataCompile(r)
	if !automataEquivalent(back, spec) {
		t.Errorf("ProtocolRegex %q does not match the spec language", src)
	}
}

func TestConformanceSuiteFacade(t *testing.T) {
	m := loadPaper(t)
	valve, _ := m.Class("Valve")
	suite, err := valve.ConformanceSuite(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) == 0 {
		t.Fatal("empty suite")
	}
	spec, err := valve.SpecDFA("")
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range suite {
		if valve.RunTrace(tr) != spec.Accepts(tr) {
			t.Fatalf("simulator disagrees with spec on %v", tr)
		}
	}
}
