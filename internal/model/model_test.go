package model

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/internal/core"
	"github.com/shelley-go/shelley/internal/pyast"
	"github.com/shelley-go/shelley/internal/pyparse"
	"github.com/shelley-go/shelley/internal/regex"
)

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func classFrom(t *testing.T, src, name string) *Class {
	t.Helper()
	ast, err := pyparse.ParseClass(src, name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := FromAST(ast)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func valve(t *testing.T) *Class { return classFrom(t, readTestdata(t, "valve.py"), "Valve") }
func badSector(t *testing.T) *Class {
	return classFrom(t, readTestdata(t, "badsector.py"), "BadSector")
}

func TestValveModel(t *testing.T) {
	c := valve(t)
	if !c.IsSys || len(c.SubsystemNames) != 0 || len(c.Claims) != 0 {
		t.Errorf("Valve header: sys=%v subs=%v claims=%v", c.IsSys, c.SubsystemNames, c.Claims)
	}
	if got := c.OperationNames(); !reflect.DeepEqual(got, []string{"test", "open", "close", "clean"}) {
		t.Fatalf("operations = %v", got)
	}
	tests := []struct {
		name           string
		initial, final bool
	}{
		{"test", true, false},
		{"open", false, false},
		{"close", false, true},
		{"clean", false, true},
	}
	for _, tt := range tests {
		op := c.Operation(tt.name)
		if op.Initial != tt.initial || op.Final != tt.final {
			t.Errorf("%s: initial=%v final=%v", tt.name, op.Initial, op.Final)
		}
		if !op.Annotated {
			t.Errorf("%s should be annotated", tt.name)
		}
	}
	if got := c.InitialOperations(); !reflect.DeepEqual(got, []string{"test"}) {
		t.Errorf("initials = %v", got)
	}
	if probs := c.Validate(); len(probs) != 0 {
		t.Errorf("Valve should validate cleanly: %v", probs)
	}
}

// TestFig1ValveProtocol checks the edge relation drawn in Fig. 1.
func TestFig1ValveProtocol(t *testing.T) {
	edges := valve(t).ProtocolEdges()
	want := map[string][]string{
		"test":  {"clean", "open"},
		"open":  {"close"},
		"close": {"test"},
		"clean": {"test"},
	}
	if !reflect.DeepEqual(edges, want) {
		t.Errorf("edges = %v, want %v", edges, want)
	}
}

func TestValveSpecDFA(t *testing.T) {
	d, err := valve(t).SpecDFA("")
	if err != nil {
		t.Fatal(err)
	}
	accepted := [][]string{
		{}, // never used
		{"test", "clean"},
		{"test", "open", "close"},
		{"test", "open", "close", "test", "clean"},
	}
	rejected := [][]string{
		{"open"},                  // not initial
		{"test"},                  // test is not final
		{"test", "open"},          // open is not final (the paper's point)
		{"test", "test"},          // test cannot follow test
		{"test", "open", "clean"}, // clean cannot follow open
	}
	for _, tr := range accepted {
		if !d.Accepts(tr) {
			t.Errorf("spec should accept %v", tr)
		}
	}
	for _, tr := range rejected {
		if d.Accepts(tr) {
			t.Errorf("spec should reject %v", tr)
		}
	}
}

func TestValveSpecDFAQualified(t *testing.T) {
	d, err := valve(t).SpecDFA("a")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepts([]string{"a.test", "a.open", "a.close"}) {
		t.Error("qualified spec should accept a.test a.open a.close")
	}
	if d.Accepts([]string{"test"}) {
		t.Error("qualified spec must not accept unqualified names")
	}
}

func TestBadSectorModel(t *testing.T) {
	c := badSector(t)
	if !c.IsSys {
		t.Error("BadSector is @sys")
	}
	if !reflect.DeepEqual(c.SubsystemNames, []string{"a", "b"}) {
		t.Errorf("subsystems = %v", c.SubsystemNames)
	}
	if c.SubsystemTypes["a"] != "Valve" || c.SubsystemTypes["b"] != "Valve" {
		t.Errorf("types = %v", c.SubsystemTypes)
	}
	if len(c.Claims) != 1 || c.Claims[0].Formula != "(!a.open) W b.open" {
		t.Errorf("claims = %v", c.Claims)
	}
	openA := c.Operation("open_a")
	if !openA.Initial || !openA.Final {
		t.Error("open_a is @op_initial_final")
	}
	if probs := c.Validate(); len(probs) != 0 {
		t.Errorf("BadSector structure should validate: %v", probs)
	}
}

func TestBadSectorBehaviors(t *testing.T) {
	c := badSector(t)
	// open_a lowers to: a.test(); if(*){a.open(); return}else{a.clean(); return}
	got := c.Operation("open_a").Behavior().String()
	// Both branches return, so the ongoing component is the dead a.test·(...·∅...)
	// and the returned set holds the two real paths.
	for _, want := range []string{"a.test", "a.open", "a.clean"} {
		if !strings.Contains(got, want) {
			t.Errorf("open_a behavior %q missing %q", got, want)
		}
	}
}

func TestSectorFallbackAnnotations(t *testing.T) {
	c := classFrom(t, readTestdata(t, "sector.py"), "Sector")
	if c.IsSys {
		t.Error("Sector has no @sys")
	}
	if got := len(c.Operations); got != 4 {
		t.Fatalf("operations = %d", got)
	}
	for _, op := range c.Operations {
		if op.Annotated {
			t.Errorf("%s should be unannotated", op.Name)
		}
		if !op.Initial || !op.Final {
			t.Errorf("%s: fallback operations are initial+final", op.Name)
		}
	}
}

func TestFromASTErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown class decorator", "@frob\nclass C:\n    @op\n    def m(self):\n        return []\n"},
		{"unknown method decorator", "class C:\n    @op_sometimes\n    def m(self):\n        return []\n"},
		{"multiple op decorators", "class C:\n    @op\n    @op_final\n    def m(self):\n        return []\n"},
		{"sys with two args", "@sys([\"a\"], [\"b\"])\nclass C:\n    @op\n    def m(self):\n        return []\n"},
		{"sys with non-list", "@sys(42)\nclass C:\n    @op\n    def m(self):\n        return []\n"},
		{"sys duplicate subsystem", "@sys([\"a\", \"a\"])\nclass C:\n    def __init__(self):\n        self.a = V()\n    @op\n    def m(self):\n        return []\n"},
		{"claim non-string", "@claim(42)\nclass C:\n    @op\n    def m(self):\n        return []\n"},
		{"claim no args", "@claim()\nclass C:\n    @op\n    def m(self):\n        return []\n"},
		{"op on init", "class C:\n    @op\n    def __init__(self):\n        pass\n"},
		{"no operations", "class C:\n    def __init__(self):\n        pass\n"},
		{"subsystem not initialized", "@sys([\"a\"])\nclass C:\n    def __init__(self):\n        pass\n    @op\n    def m(self):\n        return []\n"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			ast, err := pyparse.ParseClass(tt.src, "C")
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if _, err := FromAST(ast); err == nil {
				t.Error("expected FromAST error")
			}
		})
	}
}

func TestValidateFindsProblems(t *testing.T) {
	cases := []struct {
		name string
		src  string
		code ProblemCode
	}{
		{
			"no initial",
			"@sys\nclass C:\n    @op\n    def m(self):\n        return []\n",
			ProblemNoInitial,
		},
		{
			"undefined next",
			"@sys\nclass C:\n    @op_initial_final\n    def m(self):\n        return [\"ghost\"]\n",
			ProblemUndefinedNext,
		},
		{
			"undeclared return",
			"@sys\nclass C:\n    @op_initial_final\n    def m(self):\n        return 42\n",
			ProblemUndeclaredReturn,
		},
		{
			"may fall through",
			"@sys\nclass C:\n    @op_initial_final\n    def m(self):\n        if x:\n            return []\n",
			ProblemMayFallThrough,
		},
		{
			"no returns",
			"@sys\nclass C:\n    @op_initial_final\n    def m(self):\n        pass\n",
			ProblemNoReturns,
		},
		{
			"unreachable op",
			"@sys\nclass C:\n    @op_initial_final\n    def m(self):\n        return []\n    @op_final\n    def n(self):\n        return []\n",
			ProblemUnreachableOp,
		},
		{
			"no final reachable",
			"@sys\nclass C:\n    @op_initial\n    def m(self):\n        return [\"m\"]\n    @op_final\n    def n(self):\n        return []\n",
			ProblemNoFinalReachable,
		},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			ast, err := pyparse.ParseClass(tt.src, "C")
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			c, err := FromAST(ast)
			if err != nil {
				t.Fatalf("FromAST: %v", err)
			}
			probs := c.Validate()
			for _, p := range probs {
				if p.Code == tt.code {
					if p.String() == "" {
						t.Error("problem should render")
					}
					return
				}
			}
			t.Errorf("expected %v, got %v", tt.code, probs)
		})
	}
}

func TestDepGraphFromModel(t *testing.T) {
	g, err := valve(t).DepGraph()
	if err != nil {
		t.Fatal(err)
	}
	// 4 ops; test has 2 exits, open 1, close 1, clean 1 → 9 nodes.
	if got := g.NumNodes(); got != 9 {
		t.Errorf("nodes = %d, want 9", got)
	}
}

func TestProblemCodeStrings(t *testing.T) {
	for c := ProblemNoInitial; c <= ProblemNoFinalReachable; c++ {
		if s := c.String(); s == "" || strings.HasPrefix(s, "PROBLEM(") {
			t.Errorf("code %d renders as %q", c, s)
		}
	}
	if !strings.HasPrefix(ProblemCode(99).String(), "PROBLEM(") {
		t.Error("unknown code should render as PROBLEM(n)")
	}
}

func TestMissingAstClass(t *testing.T) {
	// FromAST on a class parsed from pyast directly.
	ast := &pyast.ClassDef{Name: "Empty"}
	if _, err := FromAST(ast); err == nil {
		t.Error("class without operations should be rejected")
	}
}

// Behavior returns the operation's inferred behavior over subsystem
// operations (paper §3.2), in the paper-verbatim form.
func (op *Operation) Behavior() regex.Regex { return core.Infer(op.Method.Program) }
