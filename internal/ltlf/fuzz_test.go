package ltlf

import "testing"

// FuzzParse checks the claim parser's totality and print/parse
// stability, and that NNF preserves evaluation on a few probe traces.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "a", "!a", "a & b | c", "(!a.open) W b.open",
		"G (a -> X b)", "F (a & X a)", "a U b U c", "true", "false",
		"a R b", "N a",
	} {
		f.Add(s)
	}
	probes := [][]string{nil, {"a"}, {"b", "a"}, {"a", "a", "b"}}
	f.Fuzz(func(t *testing.T, src string) {
		formula, err := Parse(src)
		if err != nil {
			return
		}
		printed := formula.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form %q does not reparse: %v", printed, err)
		}
		if key(back) != key(formula) {
			t.Fatalf("print/parse not stable: %q -> %q", printed, back.String())
		}
		g := ToNNF(formula)
		for _, tr := range probes {
			if Eval(formula, tr) != Eval(g, tr) {
				t.Fatalf("NNF changed semantics of %q on %v", src, tr)
			}
		}
	})
}
