package pyexec

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/internal/hw"
	"github.com/shelley-go/shelley/internal/pyast"
	"github.com/shelley-go/shelley/internal/pyparse"
)

func parseClass(t *testing.T, src, name string) *pyast.ClassDef {
	t.Helper()
	cls, err := pyparse.ParseClass(src, name)
	if err != nil {
		t.Fatal(err)
	}
	return cls
}

func valveAST(t *testing.T) *pyast.ClassDef {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "valve.py"))
	if err != nil {
		t.Fatal(err)
	}
	return parseClass(t, string(b), "Valve")
}

// TestValveDeviceExecution runs Listing 2.1 concretely: the status pin
// decides which exit test takes, and the control pin reflects the valve
// being open.
func TestValveDeviceExecution(t *testing.T) {
	board := hw.NewBoard()
	env := NewEnv(board)
	valve, err := NewObject(valveAST(t), env)
	if err != nil {
		t.Fatal(err)
	}

	// __init__ configured the three pins of Listing 2.1.
	if _, ok := valve.fields["control"]; !ok {
		t.Fatal("control pin missing")
	}
	if got := board.HighPins(); len(got) != 0 {
		t.Fatalf("all pins start low, got %v", got)
	}

	// Environment: status sensor reads "openable".
	board.SetInput(29, true)

	next, _, err := valve.Call("test")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next, []string{"open"}) {
		t.Fatalf("test returned %v, want [open] (status pin is high)", next)
	}
	if _, _, err := valve.Call("open"); err != nil {
		t.Fatal(err)
	}
	// The control pin (27) is physically high now.
	if got := board.HighPins(); !reflect.DeepEqual(got, []int{27, 29}) {
		t.Errorf("high pins = %v, want [27 29]", got)
	}
	if valve.CanStop() {
		t.Error("open is not final")
	}
	if _, _, err := valve.Call("close"); err != nil {
		t.Fatal(err)
	}
	if got := board.HighPins(); !reflect.DeepEqual(got, []int{29}) {
		t.Errorf("after close, high pins = %v, want [29]", got)
	}
	if !valve.CanStop() {
		t.Error("close is final")
	}
}

func TestValveDeviceTakesCleanBranchWhenStatusLow(t *testing.T) {
	board := hw.NewBoard()
	valve, err := NewObject(valveAST(t), NewEnv(board))
	if err != nil {
		t.Fatal(err)
	}
	board.SetInput(29, false)
	next, _, err := valve.Call("test")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next, []string{"clean"}) {
		t.Fatalf("test returned %v, want [clean]", next)
	}
	// The protocol now only allows clean.
	if _, _, err := valve.Call("open"); err == nil {
		t.Error("open must be rejected after the clean exit")
	}
	if _, _, err := valve.Call("clean"); err != nil {
		t.Fatal(err)
	}
	// clean drives pin 28.
	if got := board.HighPins(); !reflect.DeepEqual(got, []int{28}) {
		t.Errorf("high pins = %v, want [28]", got)
	}
}

func TestDeviceProtocolEnforcement(t *testing.T) {
	valve, err := NewObject(valveAST(t), NewEnv(hw.NewBoard()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, callErr := valve.Call("open"); callErr == nil {
		t.Error("open is not initial")
	} else if !strings.Contains(callErr.Error(), "not allowed") {
		t.Errorf("err = %v", callErr)
	}
	_, _, err = valve.Call("explode")
	if err == nil || !strings.Contains(err.Error(), "no method") {
		t.Errorf("err = %v", err)
	}
	if got := valve.Allowed(); !reflect.DeepEqual(got, []string{"test"}) {
		t.Errorf("allowed = %v", got)
	}
}

func TestReturnWithUserValue(t *testing.T) {
	src := `class C:
    @op_initial
    def m(self):
        return ["n"], 42

    @op_final
    def n(self):
        return [], "bye"
`
	obj, err := NewObject(parseClass(t, src, "C"), NewEnv(hw.NewBoard()))
	if err != nil {
		t.Fatal(err)
	}
	next, user, err := obj.Call("m")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next, []string{"n"}) {
		t.Errorf("next = %v", next)
	}
	if iv, ok := user.(IntValue); !ok || iv.V != 42 {
		t.Errorf("user value = %v", user)
	}
	next, user, err = obj.Call("n")
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 0 {
		t.Errorf("next = %v, want empty", next)
	}
	if sv, ok := user.(StringValue); !ok || sv.V != "bye" {
		t.Errorf("user value = %v", user)
	}
}

func TestLoopsAndArithmetic(t *testing.T) {
	src := `class C:
    def __init__(self):
        self.led = Pin(1, OUT)

    @op_initial_final
    def blink(self):
        n = 0
        while n < 3:
            self.led.on()
            self.led.off()
            n = n + 1
        for i in range(2):
            self.led.on()
        return ["blink"], n
`
	obj, err := NewObject(parseClass(t, src, "C"), NewEnv(hw.NewBoard()))
	if err != nil {
		t.Fatal(err)
	}
	_, user, err := obj.Call("blink")
	if err != nil {
		t.Fatal(err)
	}
	if iv, ok := user.(IntValue); !ok || iv.V != 3 {
		t.Errorf("loop counter = %v, want 3", user)
	}
}

func TestMatchOnReturnedValue(t *testing.T) {
	// A device whose helper-free match dispatches on an int field.
	src := `class C:
    def __init__(self):
        self.mode = 2

    @op_initial_final
    def act(self):
        match self.mode:
            case 1:
                return ["act"], "one"
            case 2:
                return ["act"], "two"
            case _:
                return [], "other"
`
	obj, err := NewObject(parseClass(t, src, "C"), NewEnv(hw.NewBoard()))
	if err != nil {
		t.Fatal(err)
	}
	_, user, err := obj.Call("act")
	if err != nil {
		t.Fatal(err)
	}
	if sv, ok := user.(StringValue); !ok || sv.V != "two" {
		t.Errorf("user = %v", user)
	}
}

func TestDrivingInputPinIsError(t *testing.T) {
	src := `class C:
    def __init__(self):
        self.sensor = Pin(9, IN)

    @op_initial_final
    def zap(self):
        self.sensor.on()
        return []
`
	obj, err := NewObject(parseClass(t, src, "C"), NewEnv(hw.NewBoard()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := obj.Call("zap"); err == nil || !strings.Contains(err.Error(), "cannot drive") {
		t.Errorf("err = %v", err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"undefined name", "class C:\n    @op_initial\n    def m(self):\n        return [x]\n"},
		{"unknown field", "class C:\n    @op_initial\n    def m(self):\n        self.ghost.on()\n        return []\n"},
		{"unknown constructor", "class C:\n    def __init__(self):\n        self.x = Widget()\n    @op_initial\n    def m(self):\n        return []\n"},
		{"non-string label", "class C:\n    @op_initial\n    def m(self):\n        return [1]\n"},
		{"division by zero", "class C:\n    @op_initial\n    def m(self):\n        x = 1 / 0\n        return []\n"},
		{"infinite loop capped", "class C:\n    @op_initial\n    def m(self):\n        while True:\n            pass\n        return []\n"},
		{"break unsupported", "class C:\n    @op_initial\n    def m(self):\n        while True:\n            break\n        return []\n"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			cls := parseClass(t, tt.src, "C")
			obj, err := NewObject(cls, NewEnv(hw.NewBoard()))
			if err != nil {
				return // __init__ failures are also acceptable detections
			}
			if _, _, err := obj.Call("m"); err == nil {
				t.Error("expected runtime error")
			}
		})
	}
}

func TestBuiltinRegistrationAndGlobals(t *testing.T) {
	src := `class C:
    def __init__(self):
        self.dev = Gadget(7)

    @op_initial_final
    def m(self):
        if limit > 2:
            return ["m"]
        return []
`
	env := NewEnv(hw.NewBoard())
	env.builtins["Gadget"] = func(args []Value) (Value, error) {
		return IntValue{V: args[0].(IntValue).V * 2}, nil
	}
	env.globals["limit"] = IntValue{V: 5}
	obj, err := NewObject(parseClass(t, src, "C"), env)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := obj.fields["dev"]; v.(IntValue).V != 14 {
		t.Errorf("gadget = %v", v)
	}
	next, _, err := obj.Call("m")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next, []string{"m"}) {
		t.Errorf("next = %v", next)
	}
}

func TestTruthyAndEqual(t *testing.T) {
	if Truthy(NoneValue{}) || Truthy(BoolValue{}) || Truthy(IntValue{}) ||
		Truthy(StringValue{}) || Truthy(ListValue{}) {
		t.Error("zero values should be falsy")
	}
	if !Truthy(IntValue{V: 3}) || !Truthy(StringValue{V: "x"}) ||
		!Truthy(ListValue{Elems: []Value{NoneValue{}}}) {
		t.Error("non-empty values should be truthy")
	}
	if !equal(ListValue{Elems: []Value{StringValue{V: "a"}}}, ListValue{Elems: []Value{StringValue{V: "a"}}}) {
		t.Error("equal lists")
	}
	if equal(IntValue{V: 1}, StringValue{V: "1"}) {
		t.Error("different kinds are unequal")
	}
}

func TestBooleanShortCircuit(t *testing.T) {
	// `x or (1/0)` must not evaluate the crash when x is truthy.
	src := `class C:
    @op_initial_final
    def m(self):
        if True or 1 / 0 == 0:
            return []
        return []
`
	obj, err := NewObject(parseClass(t, src, "C"), NewEnv(hw.NewBoard()))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := obj.Call("m"); err != nil {
		t.Errorf("short-circuit failed: %v", err)
	}
}
