package interp

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/internal/model"
	"github.com/shelley-go/shelley/internal/pyparse"
)

func classFrom(t *testing.T, src, name string) *model.Class {
	t.Helper()
	ast, err := pyparse.ParseClass(src, name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := model.FromAST(ast)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func valve(t *testing.T) *model.Class { return classFrom(t, readTestdata(t, "valve.py"), "Valve") }

func TestInstanceLifecycle(t *testing.T) {
	v := NewInstance(valve(t))
	if !v.CanStop() {
		t.Error("fresh instance can stop")
	}
	if got := v.Allowed(); !reflect.DeepEqual(got, []string{"test"}) {
		t.Errorf("fresh Allowed = %v", got)
	}
	// FirstChoice picks test's first exit: ["open"].
	next, err := v.Call("test")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next, []string{"open"}) {
		t.Errorf("test returned %v", next)
	}
	if v.CanStop() {
		t.Error("after test (not final) the instance cannot stop")
	}
	if _, err := v.Call("open"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Call("close"); err != nil {
		t.Fatal(err)
	}
	if !v.CanStop() {
		t.Error("after close (final) the instance can stop")
	}
	if got := v.Trace(); !reflect.DeepEqual(got, []string{"test", "open", "close"}) {
		t.Errorf("trace = %v", got)
	}
}

func TestInstanceRejectsProtocolViolations(t *testing.T) {
	v := NewInstance(valve(t))
	// open is not initial.
	_, err := v.Call("open")
	var perr *ProtocolError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *ProtocolError", err)
	}
	if !perr.Fresh || perr.Op != "open" || perr.Class != "Valve" {
		t.Errorf("perr = %+v", perr)
	}
	if !strings.Contains(perr.Error(), "fresh instance") {
		t.Errorf("message = %q", perr.Error())
	}
	// After the error the state is unchanged: test is still callable.
	if _, err := v.Call("test"); err != nil {
		t.Fatal(err)
	}
	// FirstChoice chose ["open"], so clean is rejected.
	if _, err := v.Call("clean"); err == nil {
		t.Error("clean should be rejected after test chose the open exit")
	}
}

func TestInstanceUnknownOperation(t *testing.T) {
	v := NewInstance(valve(t))
	if _, err := v.Call("explode"); err == nil {
		t.Error("unknown operation should error")
	}
}

func TestScriptedChooserDrivesExits(t *testing.T) {
	// Script: test takes exit 1 (["clean"]).
	v := NewInstance(valve(t), WithChooser(newScriptedChoice(1)))
	next, err := v.Call("test")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next, []string{"clean"}) {
		t.Errorf("test returned %v, want [clean]", next)
	}
	if _, err := v.Call("clean"); err != nil {
		t.Fatal(err)
	}
	if !v.CanStop() {
		t.Error("clean is final")
	}
}

func TestAngelicModeUsesUnionSemantics(t *testing.T) {
	v := NewInstance(valve(t), WithAngelic())
	next, err := v.Call("test")
	if err != nil {
		t.Fatal(err)
	}
	// Union of test's exits: clean + open (sorted).
	if !reflect.DeepEqual(next, []string{"clean", "open"}) {
		t.Errorf("angelic test returned %v", next)
	}
	if _, err := v.Call("clean"); err != nil {
		t.Errorf("angelic mode should allow clean after test: %v", err)
	}
}

func TestRunMatchesSpecDFA(t *testing.T) {
	c := valve(t)
	spec, err := c.SpecDFA("")
	if err != nil {
		t.Fatal(err)
	}
	// Every trace up to length 4: Run (angelic) must agree with the
	// specification automaton.
	alphabet := spec.Alphabet()
	frontier := [][]string{nil}
	for depth := 0; depth <= 4; depth++ {
		var next [][]string
		for _, tr := range frontier {
			if got, want := Run(c, tr, WithAngelic()), spec.Accepts(tr); got != want {
				t.Errorf("Run(%v) = %v, spec = %v", tr, got, want)
			}
			for _, a := range alphabet {
				next = append(next, append(append([]string{}, tr...), a))
			}
		}
		frontier = next
	}
}

func TestRunPrefix(t *testing.T) {
	c := valve(t)
	if !RunPrefix(c, []string{"test", "open"}, WithAngelic()) {
		t.Error("test,open is a valid prefix")
	}
	if Run(c, []string{"test", "open"}, WithAngelic()) {
		t.Error("test,open is not a complete usage (open not final)")
	}
	if RunPrefix(c, []string{"open"}, WithAngelic()) {
		t.Error("open is not a valid prefix")
	}
}

func TestReset(t *testing.T) {
	v := NewInstance(valve(t))
	if _, err := v.Call("test"); err != nil {
		t.Fatal(err)
	}
	v.Reset()
	if !v.CanStop() || len(v.Trace()) != 0 {
		t.Error("Reset should restore the fresh state")
	}
	if _, err := v.Call("test"); err != nil {
		t.Errorf("after Reset, test is allowed again: %v", err)
	}
}

func TestSystemRunsGoodSector(t *testing.T) {
	v := valve(t)
	good := classFrom(t, readTestdata(t, "goodsector.py"), "GoodSector")
	classes := map[string]*model.Class{"Valve": v, "GoodSector": good}

	// FirstChoice: both matches take their first branch (open paths).
	s, err := NewSystem(good, classes)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke("run"); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []string{"b.test", "b.open", "a.test", "a.open", "a.close", "b.close"}
	if got := s.Trace(); !reflect.DeepEqual(got, want) {
		t.Errorf("flat trace = %v, want %v", got, want)
	}
	if !s.CanStop() {
		t.Errorf("system should be stoppable; dangling: %v", s.DanglingSubsystems())
	}
	if got := s.rootRef.Trace(); !reflect.DeepEqual(got, []string{"run"}) {
		t.Errorf("ops trace = %v", got)
	}
}

func TestSystemBadSectorLeavesValveOpen(t *testing.T) {
	v := valve(t)
	bad := classFrom(t, readTestdata(t, "badsector.py"), "BadSector")
	classes := map[string]*model.Class{"Valve": v, "BadSector": bad}

	s, err := NewSystem(bad, classes)
	if err != nil {
		t.Fatal(err)
	}
	// FirstChoice: open_a takes the ["open"] branch → a.test, a.open,
	// and open_a is final, so the user may stop... leaving valve a open.
	if err := s.Invoke("open_a"); err != nil {
		t.Fatalf("open_a: %v", err)
	}
	if s.CanStop() {
		t.Error("valve a is open; the system must not be stoppable")
	}
	if got := s.DanglingSubsystems(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("dangling = %v", got)
	}
}

func TestSystemRejectsCompositeProtocolViolation(t *testing.T) {
	v := valve(t)
	bad := classFrom(t, readTestdata(t, "badsector.py"), "BadSector")
	classes := map[string]*model.Class{"Valve": v, "BadSector": bad}
	s, err := NewSystem(bad, classes)
	if err != nil {
		t.Fatal(err)
	}
	// open_b is not initial.
	if err := s.Invoke("open_b"); err == nil {
		t.Error("open_b on a fresh BadSector should be rejected")
	}
	if err := s.Invoke("nope"); err == nil {
		t.Error("unknown composite operation should be rejected")
	}
}

func TestSystemLoopBounded(t *testing.T) {
	v := valve(t)
	src := `@sys(["w"])
class Looper:
    def __init__(self):
        self.w = Valve()

    @op_initial_final
    def spin(self):
        while self.go():
            match self.w.test():
                case ["open"]:
                    self.w.open()
                    self.w.close()
                case ["clean"]:
                    self.w.clean()
        return []
`
	looper := classFrom(t, src, "Looper")
	classes := map[string]*model.Class{"Valve": v, "Looper": looper}
	// Chooser: loop continues (0) then body branches... use random with
	// a fixed seed and just require termination + protocol safety.
	s, err := NewSystem(looper, classes, WithChooser(NewRandomChoice(7)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke("spin"); err != nil {
		t.Fatalf("spin: %v", err)
	}
}

func TestReplayFlatValidatesCounterexamples(t *testing.T) {
	v := valve(t)
	bad := classFrom(t, readTestdata(t, "badsector.py"), "BadSector")
	classes := map[string]*model.Class{"Valve": v, "BadSector": bad}

	// The checker's usage counterexample: a.test, a.open leaves valve a
	// in a non-final state.
	err := ReplayFlat(bad, classes, []string{"a.test", "a.open"})
	if err == nil {
		t.Fatal("replay should detect the dangling valve")
	}
	if !strings.Contains(err.Error(), "non-final state") {
		t.Errorf("err = %v", err)
	}

	// A correct complete usage replays cleanly.
	good := []string{"a.test", "a.open", "a.close"}
	if err := ReplayFlat(bad, classes, good); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}

	// An outright illegal step is also caught.
	err = ReplayFlat(bad, classes, []string{"a.open"})
	var perr *ProtocolError
	if !errors.As(err, &perr) {
		t.Errorf("err = %v, want ProtocolError", err)
	}
}

func TestChoosers(t *testing.T) {
	if (FirstChoice{}).Choose(5) != 0 {
		t.Error("FirstChoice should pick 0")
	}
	s := newScriptedChoice(2, 1)
	if s.Choose(3) != 2 || s.Choose(3) != 1 || s.Choose(3) != 0 {
		t.Error("ScriptedChoice should replay then default to 0")
	}
	r := NewRandomChoice(1)
	for i := 0; i < 100; i++ {
		if v := r.Choose(3); v < 0 || v > 2 {
			t.Fatalf("RandomChoice out of range: %d", v)
		}
	}
}

func TestSystemBacktracksAcrossWrongBranch(t *testing.T) {
	v := valve(t)
	// The chooser prefers the else-branch (script 1), which calls
	// a.clean; but the valve's test (script continues with 0s) takes the
	// ["open"] exit, so clean is rejected and the runtime must backtrack
	// into the then-branch.
	src := `@sys(["a"])
class Twisty:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def go(self):
        match self.a.test():
            case ["open"]:
                self.a.open()
                self.a.close()
                return []
            case ["clean"]:
                self.a.clean()
                return []
`
	twisty := classFrom(t, src, "Twisty")
	classes := map[string]*model.Class{"Valve": v, "Twisty": twisty}
	// Script: first decision is the valve's exit in a.test? Order of
	// choices: the If branch decision comes first (program structure),
	// then the exit choice when a.test runs. Prefer the else branch (1)
	// while the valve keeps taking exit 0 (open).
	s, err := NewSystem(twisty, classes, WithChooser(newScriptedChoice(1, 0, 0, 0, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke("go"); err != nil {
		t.Fatalf("backtracking should recover: %v", err)
	}
	got := s.Trace()
	want := []string{"a.test", "a.open", "a.close"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("trace = %v, want %v", got, want)
	}
}

func TestSystemLoopBacktrackStopsIteration(t *testing.T) {
	v := valve(t)
	// Loop body calls a.open unconditionally; after the first full
	// cycle the valve expects test, so a second iteration would fail —
	// the runtime backtracks and exits the loop instead of erroring.
	src := `@sys(["a"])
class Once:
    def __init__(self):
        self.a = Valve()

    @op_initial_final
    def go(self):
        self.a.test()
        while self.more():
            self.a.open()
        self.a.close()
        return []
`
	once := classFrom(t, src, "Once")
	classes := map[string]*model.Class{"Valve": v, "Once": once}
	// Chooser: always continue the loop (0 = continue in loop decision),
	// valve exits are 0 (open path).
	s, err := NewSystem(once, classes, WithChooser(newScriptedChoice(0, 0, 0, 0, 0, 0, 0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Invoke("go"); err != nil {
		t.Fatalf("loop backtracking should recover: %v", err)
	}
	want := []string{"a.test", "a.open", "a.close"}
	if !reflect.DeepEqual(s.Trace(), want) {
		t.Errorf("trace = %v, want %v", s.Trace(), want)
	}
}

// scriptedChoice replays a fixed decision sequence, then falls back to
// zero. It makes executions fully reproducible.
type scriptedChoice struct {
	script []int
	pos    int
}

// newScriptedChoice returns a chooser that replays script.
func newScriptedChoice(script ...int) *scriptedChoice {
	return &scriptedChoice{script: script}
}

// Choose implements Chooser.
func (s *scriptedChoice) Choose(n int) int {
	if s.pos >= len(s.script) {
		return 0
	}
	v := s.script[s.pos] % n
	s.pos++
	return v
}

// Reset returns the instance to the fresh state, clearing the trace.
func (i *Instance) Reset() {
	i.fresh = true
	i.lastOp = nil
	i.allowed = nil
	i.trace = nil
}

// Trace returns the calls made so far.
func (i *Instance) Trace() []string { return append([]string(nil), i.trace...) }
