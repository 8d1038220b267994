package pytoken

import (
	"fmt"
	"testing"
)

func TestClassBlocks(t *testing.T) {
	const a = "@sys\n# note\nclass A:\n    pass\n\n"
	const b = "class B(A):\n    x = [\n# inside brackets\n    ]\n"
	src := "# header\n\n" + a + b
	blocks, ok := ClassBlocks([]byte(src))
	if !ok {
		t.Fatal("ClassBlocks refused a source of decorated classes")
	}
	// The first block owns the header lines above it.
	want := []Block{{Start: 0, End: 10 + len(a), Line: 1}, {Start: 10 + len(a), End: len(src), Line: 8}}
	if fmt.Sprint(blocks) != fmt.Sprint(want) {
		t.Fatalf("blocks = %v, want %v", blocks, want)
	}

	for _, src := range []string{
		"import x\n" + a,           // module-level statement
		a + "def f():\n    pass\n", // module-level def
		a + "x = 1 + \\\n",         // backslash continuation
		a + "x = 1 + \\\r\n",       // backslash continuation before a CRLF
		a + "@sys\n",               // decorators with no class
		"    x = 1\n" + a,          // indented line before the first block
		a + "\rclass C:\n",         // carriage return before a class line
		"classy = 1\n",             // a name that only starts with "class"
		"# no class\n",             // no class line at all
	} {
		if _, ok := ClassBlocks([]byte(src)); ok {
			t.Errorf("ClassBlocks(%q) cut a source it cannot vouch for", src)
		}
	}
}
