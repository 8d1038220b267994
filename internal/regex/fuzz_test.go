package regex

import "testing"

// FuzzParse checks the regex parser's totality and the print/parse
// fixpoint: once parsed, printing and reparsing is stable.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "0", "1", "a", "a . b", "a + b", "a*", "(a . (b . 0 + c))*",
		"a.open . b.close", "((a))", "a b c", "a**",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r, err := Parse(src)
		if err != nil {
			return
		}
		printed := r.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form %q does not reparse: %v", printed, err)
		}
		if !equal(back, r) {
			t.Fatalf("print/parse not stable: %q -> %q", printed, back.String())
		}
	})
}
