package nusmv

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/ltlf"
	"github.com/shelley-go/shelley/internal/model"
	"github.com/shelley-go/shelley/internal/pyparse"
	"github.com/shelley-go/shelley/internal/regex"
)

func valveSpec(t *testing.T) *automata.DFA {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "valve.py"))
	if err != nil {
		t.Fatal(err)
	}
	ast, err := pyparse.ParseClass(string(b), "Valve")
	if err != nil {
		t.Fatal(err)
	}
	c, err := model.FromAST(ast)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.SpecDFA("")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestExportValveStructure(t *testing.T) {
	out := Export("Valve", valveSpec(t), nil)
	for _, want := range []string{
		"MODULE main",
		"event : {e_clean, e_close, e_open, e_test, e__end};",
		"init(state) := s0;",
		"next(state) := case",
		"state = end : end;",
		"TRUE : dead;",
		"SPEC EF state = end",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
	// Initial transition: only test is callable from the start state.
	if !strings.Contains(out, "state = s0 & event = e_test : ") {
		t.Error("missing initial test transition")
	}
	if strings.Contains(out, "state = s0 & event = e_open : ") {
		t.Error("open must not be callable from the start state")
	}
	// The start state is accepting (empty usage): it can end.
	if !strings.Contains(out, "state = s0 & event = e__end : end;") {
		t.Error("start state should close the trace")
	}
}

func TestExportDeterministic(t *testing.T) {
	d := valveSpec(t)
	first := Export("Valve", d, []ltlf.Formula{ltlf.MustParse("G !open")})
	for i := 0; i < 5; i++ {
		if Export("Valve", d, []ltlf.Formula{ltlf.MustParse("G !open")}) != first {
			t.Fatal("export is not deterministic")
		}
	}
}

func TestExportClaims(t *testing.T) {
	d := valveSpec(t)
	out := Export("Valve", d, []ltlf.Formula{ltlf.MustParse("(!open) W clean"), ltlf.MustParse("G (open -> X close)")})
	if got := strings.Count(out, "LTLSPEC"); got != 2 {
		t.Errorf("LTLSPEC count = %d, want 2", got)
	}
	if !strings.Contains(out, "-- Claim 1: !open W clean") {
		t.Errorf("claim comment missing:\n%s", out)
	}
	if !strings.Contains(out, "event = e_open") {
		t.Error("atom translation missing")
	}
}

func TestEventIDSanitization(t *testing.T) {
	tests := map[string]string{
		"a.test":  "e_a_test",
		"open":    "e_open",
		"x-y z":   "e_x_y_z",
		"_end":    "e__end",
		"B2.go_1": "e_B2_go_1",
	}
	for in, want := range tests {
		if got := eventID(in); got != want {
			t.Errorf("eventID(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEvents(t *testing.T) {
	d := automata.CompileMinimal(regex.MustParse("a.x . b"))
	// One event per symbol in alphabet order, then the end event.
	if out, want := Export("M", d, nil), "event : {e_a_x, e_b, e__end};"; !strings.Contains(out, want) {
		t.Errorf("export does not declare %q:\n%s", want, out)
	}
}

func TestLTLfToLTLShapes(t *testing.T) {
	tests := []struct {
		formula string
		wantSub []string
	}{
		{"a", []string{"event = e_a"}},
		{"!a", []string{"!(", "event = e_a"}},
		{"X a", []string{"(X ("}},
		{"N a", []string{"(X (!("}},
		{"F a", []string{"(F ("}},
		{"a U b", []string{" U ", "event = e_a", "event = e_b"}},
		{"a -> b", []string{" -> "}},
		{"true", []string{"TRUE"}},
		{"false", []string{"FALSE"}},
		{"a & b", []string{" & "}},
		{"a | b", []string{" | "}},
		{"a R b", []string{" U "}}, // release is reduced through W
		{"G a", []string{" U !", "G ("}},
		{"a W b", []string{" U ", " | "}},
	}
	for _, tt := range tests {
		got := ltlfToLTL(ltlf.MustParse(tt.formula))
		for _, sub := range tt.wantSub {
			if !strings.Contains(got, sub) {
				t.Errorf("ltlfToLTL(%q) = %q missing %q", tt.formula, got, sub)
			}
		}
	}
}

// TestExportEncodesLanguage spot-checks the ω-regular encoding: the
// transition table of the export matches the DFA on every edge.
func TestExportEncodesLanguage(t *testing.T) {
	d := automata.CompileMinimal(regex.MustParse("(a . b)*"))
	out := Export("ab", d, nil)
	// Two states; from s0 on a to s1, s1 on b to s0; only s0 accepting.
	if !strings.Contains(out, "state = s0 & event = e_a : s1;") {
		t.Errorf("missing a-edge:\n%s", out)
	}
	if !strings.Contains(out, "state = s1 & event = e_b : s0;") {
		t.Errorf("missing b-edge:\n%s", out)
	}
	if !strings.Contains(out, "state = s0 & event = e__end : end;") {
		t.Error("s0 should be able to end")
	}
	if strings.Contains(out, "state = s1 & event = e__end") {
		t.Error("s1 is not accepting and must not end")
	}
}
