package shelley

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/hw"
	"github.com/shelley-go/shelley/internal/interp"
	"github.com/shelley-go/shelley/internal/pyast"
	"github.com/shelley-go/shelley/internal/pyexec"
	"github.com/shelley-go/shelley/internal/pyparse"
)

// thin aliases keep the conformance test readable.
func hwNewBoard() *hw.Board                { return hw.NewBoard() }
func pyexecNewEnv(b *hw.Board) *pyexec.Env { return pyexec.NewEnv(b) }
func pyexecNewObject(c *pyast.ClassDef, e *pyexec.Env) (*pyexec.Object, error) {
	return pyexec.NewObject(c, e)
}

// Integration tests over the smart-home scenario (testdata/smarthome.py):
// a three-subsystem thermostat node with two temporal claims, exercised
// through every layer of the public API.

func loadSmartHome(t *testing.T) *Module {
	t.Helper()
	m, err := LoadFile(filepath.Join("testdata", "smarthome.py"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSmartHomeVerifies(t *testing.T) {
	m := loadSmartHome(t)
	reports, err := m.CheckAllConcurrent(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.OK() {
			t.Errorf("%s should verify:\n%s", r.Class, r)
		}
	}
}

func TestSmartHomeClaimViolationsCaught(t *testing.T) {
	// Mutate: heat before measure order is enforced by claim 1 — swap
	// the protocol so heat is initial, violating (!h.on) W s.sample.
	src := readFileT(t, filepath.Join("testdata", "smarthome.py"))
	src = strings.Replace(src, "@op_initial\n    def measure", "@op\n    def measure", 1)
	src = strings.Replace(src, "@op\n    def heat", "@op_initial\n    def heat", 1)
	src = strings.Replace(src, `return ["heat", "report", "idle"]`, `return ["report", "idle"]`, 1)
	src = strings.Replace(src, `self.h.off()
        return ["report", "idle"]`, `self.h.off()
        return ["measure"]`, 1)
	m, err := LoadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	thermo, _ := m.Class("Thermostat")
	report, err := thermo.Check()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range report.Diagnostics {
		if d.Kind == KindClaimFailure && strings.Contains(d.Message, "(!h.on) W s.sample") {
			found = true
			if len(d.Counterexample) == 0 || d.Counterexample[0] != "h.on" {
				t.Errorf("counterexample = %v, want to start with h.on", d.Counterexample)
			}
		}
	}
	if !found {
		t.Errorf("expected claim 1 to fail:\n%s", report)
	}
}

func TestSmartHomeUsageViolationCaught(t *testing.T) {
	// Forget to sleep the radio in report.
	src := readFileT(t, filepath.Join("testdata", "smarthome.py"))
	src = strings.Replace(src, "        self.r.sleep()\n", "", 1)
	m, err := LoadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	thermo, _ := m.Class("Thermostat")
	report, err := thermo.Check()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range report.Diagnostics {
		if d.Kind == KindInvalidSubsystemUsage && strings.Contains(d.Message, "Radio 'r'") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected radio usage error:\n%s", report)
	}
}

func TestSmartHomeSimulation(t *testing.T) {
	m := loadSmartHome(t)
	thermo, _ := m.Class("Thermostat")
	sys, err := thermo.NewSystem(interp.WithChooser(interp.NewRandomChoice(3)))
	if err != nil {
		t.Fatal(err)
	}
	day := []string{"measure", "heat", "report", "idle", "measure", "idle"}
	for _, op := range day {
		if err := sys.Invoke(op); err != nil {
			t.Fatalf("invoke %s: %v (trace so far %v)", op, err, sys.Trace())
		}
	}
	if !sys.CanStop() {
		t.Errorf("dangling: %v", sys.DanglingSubsystems())
	}
	// The flat trace respects claim 1: h.on never before the first
	// s.sample.
	sawSample := false
	for _, ev := range sys.Trace() {
		if ev == "s.sample" {
			sawSample = true
		}
		if ev == "h.on" && !sawSample {
			t.Errorf("claim 1 violated at runtime: %v", sys.Trace())
		}
	}
}

func TestSmartHomeLearning(t *testing.T) {
	m := loadSmartHome(t)
	for _, name := range []string{"Radio", "Sensor", "Heater"} {
		c, _ := m.Class(name)
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

func TestSmartHomeNuSMVExport(t *testing.T) {
	m := loadSmartHome(t)
	thermo, _ := m.Class("Thermostat")
	smv, err := thermo.ExportNuSMV()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(smv, "LTLSPEC"); got != 2 {
		t.Errorf("LTLSPEC count = %d, want 2", got)
	}
	for _, want := range []string{"e_s_sample", "e_h_on", "e_r_sleep", "SPEC EF state = end"} {
		if !strings.Contains(smv, want) {
			t.Errorf("export missing %q", want)
		}
	}
}

func TestSmartHomeFlattenedLanguageShape(t *testing.T) {
	m := loadSmartHome(t)
	thermo, _ := m.Class("Thermostat")
	flat, err := thermo.FlattenedDFA()
	if err != nil {
		t.Fatal(err)
	}
	accepted := [][]string{
		{},                                // never used
		{"s.start", "s.sample", "s.stop"}, // measure; idle
		{"s.start", "s.sample", "s.stop", "h.on", "h.off"},               // measure; heat; idle
		{"s.start", "s.sample", "s.stop", "r.wake", "r.send", "r.sleep"}, // measure; report; idle
	}
	rejected := [][]string{
		{"h.on", "h.off"},                         // heat is not initial
		{"s.start", "s.sample", "s.stop", "h.on"}, // heater left on
		{"r.wake"}, // report can't come first
	}
	for _, tr := range accepted {
		if !flat.Accepts(tr) {
			t.Errorf("flattened language should accept %v", tr)
		}
	}
	for _, tr := range rejected {
		if flat.Accepts(tr) {
			t.Errorf("flattened language should reject %v", tr)
		}
	}
}

func readFileT(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDeviceConformsToExtractedModel links the concrete executor to the
// formal model: every trace produced by actually running the Valve
// device (under random environments and random caller choices) is a
// prefix of the statically extracted protocol language, and the device
// is stoppable exactly when the spec automaton accepts the trace.
func TestDeviceConformsToExtractedModel(t *testing.T) {
	m := loadPaper(t)
	valve, _ := m.Class("Valve")
	spec, err := valve.SpecDFA("")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for run := 0; run < 200; run++ {
		board := NewBoard()
		dev, err := valve.NewDevice(board)
		if err != nil {
			t.Fatal(err)
		}
		var trace []string
		for step := 0; step < 12; step++ {
			board.SetInput(29, rng.Intn(2) == 0) // random sensor reading
			allowed := dev.Allowed()
			if len(allowed) == 0 {
				break
			}
			op := allowed[rng.Intn(len(allowed))]
			if _, _, err := dev.Call(op); err != nil {
				t.Fatalf("run %d: allowed call %s failed: %v (trace %v)", run, op, err, trace)
			}
			trace = append(trace, op)

			// The concrete trace must be a live prefix of the spec.
			if spec.Run(trace) < 0 {
				t.Fatalf("run %d: device trace %v left the spec language", run, trace)
			}
			if got, want := dev.CanStop(), spec.Accepts(trace); got != want {
				t.Fatalf("run %d: CanStop = %v but spec accepts = %v at %v", run, got, want, trace)
			}
		}
	}
}

// TestVerifiedClassTracesReplayCleanly is the soundness story end to
// end: for classes that verify OK, every complete usage trace sampled
// from the (exit-aware) flattened model replays in the runtime
// simulator without protocol errors and without dangling subsystems.
func TestVerifiedClassTracesReplayCleanly(t *testing.T) {
	cases := []struct {
		files []string
		class string
	}{
		{[]string{"valve.py", "goodsector.py"}, "GoodSector"},
		{[]string{"smarthome.py"}, "Thermostat"},
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range cases {
		t.Run(tc.class, func(t *testing.T) {
			paths := make([]string, len(tc.files))
			for i, f := range tc.files {
				paths[i] = filepath.Join("testdata", f)
			}
			m, err := LoadFiles(paths...)
			if err != nil {
				t.Fatal(err)
			}
			c, _ := m.Class(tc.class)
			report, err := c.Check(Precise())
			if err != nil {
				t.Fatal(err)
			}
			if !report.OK() {
				t.Fatalf("%s must verify:\n%s", tc.class, report)
			}
			flat, err := c.FlattenedDFA(Precise())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 150; i++ {
				tr, ok := flat.RandomAccepted(rng, 14)
				if !ok {
					t.Fatal("no trace sampled")
				}
				if err := c.ReplayFlat(tr); err != nil {
					t.Fatalf("verified trace %v failed at runtime: %v", tr, err)
				}
			}
		})
	}
}

// TestConcreteCompositeTraceInStaticModel is the third conformance
// bridge: the flattened trace produced by *concretely executing* a
// composite (real branch decisions over real pins) is always in the
// exit-aware flattened language of the static model.
func TestConcreteCompositeTraceInStaticModel(t *testing.T) {
	src := readFileT(t, filepath.Join("testdata", "valve.py")) + "\n" +
		readFileT(t, filepath.Join("testdata", "goodsector.py"))
	m, err := LoadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	good, _ := m.Class("GoodSector")
	flat, err := good.FlattenedDFA(Precise())
	if err != nil {
		t.Fatal(err)
	}

	ast, err := pyparse.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for run := 0; run < 50; run++ {
		board := hwNewBoard()
		env := pyexecNewEnv(board)
		for _, cls := range ast.Classes {
			env.RegisterClass(cls)
		}
		var sectorAST = ast.Classes[1]
		obj, err := pyexecNewObject(sectorAST, env)
		if err != nil {
			t.Fatal(err)
		}
		board.SetInput(29, rng.Intn(2) == 0)
		if _, _, err := obj.Call("run"); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		trace := env.Events()
		if !flat.Accepts(trace) {
			t.Fatalf("run %d: concrete trace %v not in the static model", run, trace)
		}
	}
}
