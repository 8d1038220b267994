package pyast_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/internal/pyast"
	"github.com/shelley-go/shelley/internal/pyparse"
)

// The tests live in pyast_test to use the parser without an import
// cycle (pyparse imports pyast).

func parseModule(t *testing.T, src string) *pyast.Module {
	t.Helper()
	m, err := pyparse.ParseModule(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return m
}

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestUnparseRoundTripTestdata(t *testing.T) {
	for _, file := range []string{"valve.py", "badsector.py", "goodsector.py", "sector.py"} {
		t.Run(file, func(t *testing.T) {
			src := readTestdata(t, file)
			m1 := parseModule(t, src)
			out1 := pyast.Unparse(m1)
			m2 := parseModule(t, out1)
			out2 := pyast.Unparse(m2)
			// The printer is a normal form: printing is idempotent after
			// one round.
			if out1 != out2 {
				t.Errorf("unparse not idempotent for %s:\n--- first ---\n%s\n--- second ---\n%s",
					file, out1, out2)
			}
		})
	}
}

func TestUnparseShapes(t *testing.T) {
	src := `@claim("(!a.open) W b.open")
@sys(["a", "b"])
class C:
    def __init__(self):
        self.a = Valve()

    @op_initial
    def m(self, n):
        while self.ok() and not done:
            for i in range(10):
                self.a.test()
        if x == 1:
            return ["m"], True
        elif y:
            pass
        else:
            match self.a.test():
                case ["open"]:
                    return []
                case _:
                    return []
        return -1
`
	m := parseModule(t, src)
	out := pyast.Unparse(m)
	for _, want := range []string{
		`@claim("(!a.open) W b.open")`,
		`@sys(["a", "b"])`,
		"class C:",
		"def __init__(self):",
		"self.a = Valve()",
		"@op_initial",
		"def m(self, n):",
		"while self.ok() and not done:",
		"for i in range(10):",
		"if x == 1:",
		`return ["m"], True`,
		"elif y:",
		"match self.a.test():",
		`case ["open"]:`,
		"case _:",
		"return -1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("unparse missing %q:\n%s", want, out)
		}
	}
	// Round trip must re-parse.
	if _, err := pyparse.ParseModule(out); err != nil {
		t.Fatalf("unparse output does not reparse: %v\n%s", err, out)
	}
}

func TestUnparsePrecedence(t *testing.T) {
	src := `class C:
    def m(self):
        x = (a + b) * c
        y = a + b * c
        z = not (a and b)
        w = -(a + b)
        v = (a or b) and c
`
	m := parseModule(t, src)
	out := pyast.Unparse(m)
	for _, want := range []string{
		"x = (a + b) * c",
		"y = a + b * c",
		"z = not (a and b)",
		"w = -(a + b)",
		"v = (a or b) and c",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("precedence: missing %q in\n%s", want, out)
		}
	}
}

func TestUnparseEmptyBodies(t *testing.T) {
	cls := &pyast.ClassDef{Name: "Empty"}
	out := pyast.Unparse(&pyast.Module{Classes: []*pyast.ClassDef{cls}})
	if !strings.Contains(out, "class Empty:") || !strings.Contains(out, "pass") {
		t.Errorf("empty class:\n%s", out)
	}
}

func TestUnparseExpr(t *testing.T) {
	m := parseModule(t, "x = self.a.test(1, \"s\", [True, None])\n")
	got := pyast.Unparse(m)
	if got != "x = self.a.test(1, \"s\", [True, None])\n" {
		t.Errorf("Unparse = %q", got)
	}
}

func TestWalkVisitsEverything(t *testing.T) {
	m := parseModule(t, readTestdata(t, "badsector.py"))
	var classes, funcs, calls, returns, matches int
	walkModule(m, func(n pyast.Node) bool {
		switch n.(type) {
		case *pyast.ClassDef:
			classes++
		case *pyast.FuncDef:
			funcs++
		case *pyast.CallExpr:
			calls++
		case *pyast.Return:
			returns++
		case *pyast.Match:
			matches++
		}
		return true
	})
	if classes != 1 {
		t.Errorf("classes = %d", classes)
	}
	if funcs != 3 { // __init__, open_a, open_b
		t.Errorf("funcs = %d", funcs)
	}
	if returns != 4 {
		t.Errorf("returns = %d", returns)
	}
	if matches != 2 {
		t.Errorf("matches = %d", matches)
	}
	if calls < 8 {
		t.Errorf("calls = %d, want at least 8", calls)
	}
}

func TestWalkPrune(t *testing.T) {
	m := parseModule(t, readTestdata(t, "badsector.py"))
	var visited int
	walkModule(m, func(n pyast.Node) bool {
		visited++
		_, isFunc := n.(*pyast.FuncDef)
		return !isFunc // do not descend into method bodies
	})
	var all int
	walkModule(m, func(pyast.Node) bool { all++; return true })
	if visited >= all {
		t.Errorf("pruned walk visited %d, full walk %d", visited, all)
	}
}

func TestWalkNil(t *testing.T) {
	// Walking nil must be a no-op, not a panic.
	pyast.Walk(nil, func(pyast.Node) bool { t.Fatal("visited nil"); return true })
}

func TestDottedName(t *testing.T) {
	m := parseModule(t, "x = self.a.b.c\ny = f().g\n")
	asg := m.Stmts[0].(*pyast.Assign)
	name, ok := pyast.DottedName(asg.Value)
	if !ok || name != "self.a.b.c" {
		t.Errorf("DottedName = %q, %v", name, ok)
	}
	asg2 := m.Stmts[1].(*pyast.Assign)
	if _, ok := pyast.DottedName(asg2.Value); ok {
		t.Error("call-rooted chain should not be a dotted name")
	}
}

func TestStringElements(t *testing.T) {
	m := parseModule(t, "a = [\"x\", \"y\"]\nb = []\nc = [\"x\", 1]\nd = 5\n")
	get := func(i int) pyast.Expr { return m.Stmts[i].(*pyast.Assign).Value }
	if els, ok := pyast.StringElements(get(0)); !ok || len(els) != 2 || els[1] != "y" {
		t.Errorf("case a: %v %v", els, ok)
	}
	if els, ok := pyast.StringElements(get(1)); !ok || len(els) != 0 {
		t.Errorf("case b: %v %v", els, ok)
	}
	if _, ok := pyast.StringElements(get(2)); ok {
		t.Error("mixed list should fail")
	}
	if _, ok := pyast.StringElements(get(3)); ok {
		t.Error("non-list should fail")
	}
}

func TestNodePositions(t *testing.T) {
	src := `import os

@sys
class C:
    def m(self, p):
        x = 1
        self.a.f([1], (2, 3))
        if not x:
            return ["m"], True
        while x < 2:
            pass
        for i in r():
            break
        match x:
            case _:
                continue
`
	m := parseModule(t, src)
	// Every node reachable by the walker must report a plausible
	// position (line ≥ 1) — Pos is what diagnostics anchor on.
	count := 0
	walkModule(m, func(n pyast.Node) bool {
		count++
		if n.Pos().Line < 1 && !isPositionlessOK(n) {
			t.Errorf("node %T has no position", n)
		}
		return true
	})
	if count < 25 {
		t.Errorf("walker visited only %d nodes", count)
	}
	cls := m.Classes[0]
	if cls.Pos().Line != 4 {
		t.Errorf("class at line %d, want 4", cls.Pos().Line)
	}
	method := cls.Methods[0]
	if method.Pos().Line != 5 {
		t.Errorf("method at line %d, want 5", method.Pos().Line)
	}
	if m.Stmts[0].Pos().Line != 1 {
		t.Errorf("import at line %d", m.Stmts[0].Pos().Line)
	}
}

// isPositionlessOK allows the empty TupleExpr, whose position is the
// zero value by construction.
func isPositionlessOK(n pyast.Node) bool {
	tup, ok := n.(*pyast.TupleExpr)
	return ok && len(tup.Elts) == 0
}

// walkModule walks every class and top-level statement of a module.
func walkModule(m *pyast.Module, visit func(pyast.Node) bool) {
	for _, s := range m.Stmts {
		pyast.Walk(s, visit)
	}
	for _, c := range m.Classes {
		pyast.Walk(c, visit)
	}
}
