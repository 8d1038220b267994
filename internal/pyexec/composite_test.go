package pyexec

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/internal/hw"
	"github.com/shelley-go/shelley/internal/pyast"
	"github.com/shelley-go/shelley/internal/pyparse"
)

func parsePaperModule(t *testing.T, files ...string) *pyast.Module {
	t.Helper()
	src := ""
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", f))
		if err != nil {
			t.Fatal(err)
		}
		src += string(b) + "\n"
	}
	m, err := pyparse.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func classOf(t *testing.T, m *pyast.Module, name string) *pyast.ClassDef {
	t.Helper()
	for _, c := range m.Classes {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("class %s missing", name)
	return nil
}

// TestBadSectorConcreteExecution runs the paper's §2.2 case study fully
// concretely: BadSector's __init__ builds two real Valve devices, the
// match statements dispatch on the lists a.test() actually returns, and
// the bug (valve a left open after open_a) materializes as a high
// control pin and a dangling subsystem.
func TestBadSectorConcreteExecution(t *testing.T) {
	m := parsePaperModule(t, "valve.py", "badsector.py")
	board := hw.NewBoard()
	env := NewEnv(board)
	registerModule(env, m)

	sector, err := NewObject(classOf(t, m, "BadSector"), env)
	if err != nil {
		t.Fatal(err)
	}
	// Both valves share the same pin numbers in the listing; on a real
	// board they'd differ, but the emulation is per-constructor-call
	// only for IN pins set via the board. Drive the shared status pin
	// high: a.test takes the ["open"] branch.
	board.SetInput(29, true)

	next, _, err := sector.Call("open_a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next, []string{"open_b"}) {
		t.Fatalf("open_a returned %v, want [open_b]", next)
	}
	// Valve a took test→open: it is NOT stoppable — the §2.2 bug, live.
	if sector.CanStop() != true {
		t.Error("open_a is @op_initial_final: the composite protocol lets the caller stop")
	}
	if got := danglingFields(sector); !reflect.DeepEqual(got, []string{"a"}) {
		t.Errorf("dangling = %v, want [a] (valve a left open)", got)
	}
	a, ok := subObject(sector, "a")
	if !ok {
		t.Fatal("subsystem a missing")
	}
	if a.CanStop() {
		t.Error("valve a is open (not final)")
	}
	// The physical control pin is high.
	if got := board.HighPins(); !reflect.DeepEqual(got, []int{27, 29}) {
		t.Errorf("high pins = %v, want [27 29]", got)
	}

	// Completing the protocol with open_b closes both valves.
	next, _, err = sector.Call("open_b")
	if err != nil {
		t.Fatalf("open_b: %v", err)
	}
	if len(next) != 0 {
		t.Errorf("open_b returned %v", next)
	}
	if got := danglingFields(sector); len(got) != 0 {
		t.Errorf("dangling after open_b = %v", got)
	}
	if got := board.HighPins(); !reflect.DeepEqual(got, []int{29}) {
		t.Errorf("high pins after full run = %v, want only the sensor", got)
	}
}

func TestBadSectorConcreteCleanBranch(t *testing.T) {
	m := parsePaperModule(t, "valve.py", "badsector.py")
	board := hw.NewBoard()
	env := NewEnv(board)
	registerModule(env, m)
	sector, err := NewObject(classOf(t, m, "BadSector"), env)
	if err != nil {
		t.Fatal(err)
	}
	board.SetInput(29, false) // a.test takes the ["clean"] branch
	next, _, err := sector.Call("open_a")
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 0 {
		t.Errorf("clean branch returns []; got %v", next)
	}
	// After the clean branch, nothing may follow.
	if _, _, err := sector.Call("open_b"); err == nil {
		t.Error("open_b must be rejected after the [] return")
	}
	if got := danglingFields(sector); len(got) != 0 {
		t.Errorf("dangling = %v (clean is final)", got)
	}
}

func TestGoodSectorConcreteExecution(t *testing.T) {
	m := parsePaperModule(t, "valve.py", "goodsector.py")
	board := hw.NewBoard()
	env := NewEnv(board)
	registerModule(env, m)
	sector, err := NewObject(classOf(t, m, "GoodSector"), env)
	if err != nil {
		t.Fatal(err)
	}
	board.SetInput(29, true) // both valves read openable
	if _, _, err := sector.Call("run"); err != nil {
		t.Fatal(err)
	}
	if got := danglingFields(sector); len(got) != 0 {
		t.Errorf("GoodSector must leave no valve open: %v", got)
	}
	if !sector.CanStop() {
		t.Error("run is final")
	}
	// Only the sensor pin remains high.
	if got := board.HighPins(); !reflect.DeepEqual(got, []int{29}) {
		t.Errorf("high pins = %v", got)
	}
}

func TestConstructorArityAndMethodArgsRejected(t *testing.T) {
	m := parsePaperModule(t, "valve.py")
	env := NewEnv(hw.NewBoard())
	registerModule(env, m)
	src := `class C:
    def __init__(self):
        self.v = Valve(1)

    @op_initial
    def m(self):
        return []
`
	cls, err := pyparse.ParseClass(src, "C")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewObject(cls, env); err == nil || !strings.Contains(err.Error(), "no arguments") {
		t.Errorf("err = %v", err)
	}
}

// TestThreeLevelConcreteExecution runs a Controller → Sector → Valve
// hierarchy fully concretely, the deepest composition the valvefarm
// example verifies statically.
func TestThreeLevelConcreteExecution(t *testing.T) {
	src := `
@sys
class Valve:
    def __init__(self):
        self.control = Pin(27, OUT)
        self.status = Pin(29, IN)

    @op_initial
    def test(self):
        if self.status.value():
            return ["open"]
        else:
            return ["skip_it"]

    @op
    def open(self):
        self.control.on()
        return ["close"]

    @op_final
    def close(self):
        self.control.off()
        return ["test"]

    @op_final
    def skip_it(self):
        return ["test"]


@sys(["v"])
class Sector:
    def __init__(self):
        self.v = Valve()

    @op_initial_final
    def water(self):
        match self.v.test():
            case ["open"]:
                self.v.open()
                self.v.close()
                return ["water"]
            case ["skip_it"]:
                self.v.skip_it()
                return ["water"]


@sys(["s"])
class Controller:
    def __init__(self):
        self.s = Sector()

    @op_initial_final
    def day(self):
        self.s.water()
        self.s.water()
        return ["day"]
`
	m, err := pyparse.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	board := hw.NewBoard()
	env := NewEnv(board)
	registerModule(env, m)
	ctl, err := NewObject(classOf(t, m, "Controller"), env)
	if err != nil {
		t.Fatal(err)
	}
	board.SetInput(29, true)
	if _, _, err := ctl.Call("day"); err != nil {
		t.Fatalf("day: %v", err)
	}
	if got := danglingFields(ctl); len(got) != 0 {
		t.Errorf("dangling = %v", got)
	}
	// Descend two levels: the valve really cycled.
	sector, ok := subObject(ctl, "s")
	if !ok {
		t.Fatal("sector missing")
	}
	valve, ok := subObject(sector, "v")
	if !ok {
		t.Fatal("valve missing")
	}
	if !valve.CanStop() {
		t.Error("valve should be closed")
	}
	// Running day again works (water is repeatable).
	if _, _, err := ctl.Call("day"); err != nil {
		t.Fatalf("second day: %v", err)
	}
}

// TestConcreteEventsRecorded: the env records the flattened subsystem
// trace of a concrete composite run, in execution order.
func TestConcreteEventsRecorded(t *testing.T) {
	m := parsePaperModule(t, "valve.py", "goodsector.py")
	board := hw.NewBoard()
	env := NewEnv(board)
	registerModule(env, m)
	sector, err := NewObject(classOf(t, m, "GoodSector"), env)
	if err != nil {
		t.Fatal(err)
	}
	board.SetInput(29, true)
	if _, _, err := sector.Call("run"); err != nil {
		t.Fatal(err)
	}
	want := []string{"b.test", "b.open", "a.test", "a.open", "a.close", "b.close"}
	if got := env.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("events = %v, want %v", got, want)
	}
}

// registerModule registers every class of the module, so a composite's
// __init__ can construct its subsystems by name.
func registerModule(e *Env, m *pyast.Module) {
	for _, cls := range m.Classes {
		e.RegisterClass(cls)
	}
}

// danglingFields lists object-valued fields that are not stoppable —
// the concrete counterpart of interp.System.DanglingSubsystems, sorted
// by field name.
func danglingFields(o *Object) []string {
	var out []string
	for name, v := range o.fields {
		if ov, ok := v.(ObjectValue); ok && !ov.Object.CanStop() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// subObject returns the live object behind an object-valued field.
func subObject(o *Object, field string) (*Object, bool) {
	v, ok := o.fields[field]
	if !ok {
		return nil, false
	}
	ov, ok := v.(ObjectValue)
	if !ok {
		return nil, false
	}
	return ov.Object, true
}
