package pytoken

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzTokenize drives the lexer with arbitrary inputs; run the seeds in
// regular `go test`, or explore with `go test -fuzz=FuzzTokenize`.
func FuzzTokenize(f *testing.F) {
	seeds := []string{
		"",
		"x = 1\n",
		"@sys\nclass C:\n    def m(self):\n        return [\"a\"]\n",
		"if x:\n    a()\nelse:\n    b()\n",
		"s = \"esc\\n\\t\\\"q\\\"\"\n",
		"f(1,\n  2)\n",
		"match x:\n    case [\"a\"]:\n        pass\n",
		"\t\tweird indent\n",
		"0x1F + 3.14 + 1_000\n",
		"# only a comment\n",
		"a \\\n b\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Tokenize(src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != EOF {
			t.Fatalf("token stream must end in EOF: %v", toks)
		}
		depth := 0
		for _, tok := range toks {
			switch tok.Kind {
			case Indent:
				depth++
			case Dedent:
				depth--
			}
			if depth < 0 {
				t.Fatal("dedent below zero")
			}
		}
		if depth != 0 {
			t.Fatal("unbalanced indentation")
		}
	})
}

// FuzzTokenCoverage checks that the lexer never skips input silently:
// every byte of a source that tokenizes lies inside a token, or is
// whitespace, a comment or an explicit line join.
func FuzzTokenCoverage(f *testing.F) {
	for _, dir := range []string{"testdata", filepath.Join("testdata", "pathological")} {
		paths, err := filepath.Glob(filepath.Join("..", "..", dir, "*.py"))
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(b))
			f.Add(strings.ReplaceAll(string(b), "\n", "\r\n"))
		}
	}
	// The hand-written seeds of the root package's
	// FuzzSessionParseMatchesWhole, in the same order.
	const base = "@sys\nclass A:\n    @op_initial_final\n    def a(self):\n        return [\"a\"]\n\n"
	const composite = "@sys([\"x\"])\nclass B:\n    def __init__(self):\n        self.x = A()\n\n    @op_initial_final\n    def b(self):\n        self.x.a()\n        return []\n"
	crlf := func(s string) string { return strings.ReplaceAll(s, "\n", "\r\n") }
	for _, s := range []string{
		strings.TrimSuffix(base, "\n\n") + " \\\n" + composite,
		strings.Replace(base, "return", "return \\\n", 1) + composite,
		strings.Replace(base, "return [\"a\"]", "x = (\n", 1) + composite + "        )\n",
		"import machine\n" + base + composite,
		base + "@helper\ndef f():\n    return 1\n" + composite,
		"# a leading comment\n\n" + base + composite,
		base + strings.TrimSuffix(composite, "\n"),
		base + composite + base,
		base + "@sys\n" + composite,
		base + "\rclass C:\n    pass\n",
		strings.Replace(base, "]\n", "]\x00\n", 1) + composite,
		"# a leading \x00 comment\n" + base + composite,
		"# only a comment \x00\n",
		crlf(strings.TrimSuffix(base, "\n\n") + " \\\n" + composite),
		crlf(strings.TrimSuffix(base, "\n\n") + " \\\nclass C:\n    pass\n"),
		crlf(strings.Replace(base, "return", "return \\\n", 1) + composite),
		base + "@sys\n",
		"    " + base,
		"",
		"#\x00",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Tokenize(src)
		if err != nil {
			return
		}
		if err := checkCoverage(src, toks); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	})
}

// checkCoverage reports the first byte of src that no token covers and
// that is not whitespace, a comment or a line join, and any token whose
// position or text disagrees with the bytes it covers.
func checkCoverage(src string, toks []Token) error {
	lineStart := []int{0}
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			lineStart = append(lineStart, i+1)
		}
	}
	spelling := map[Kind]string{}
	for _, op := range operators {
		spelling[op.kind] = op.text
	}
	covered := make([]bool, len(src))
	prevEnd := 0
	for _, tok := range toks {
		if tok.Pos.Line < 1 || tok.Pos.Line > len(lineStart) {
			return fmt.Errorf("token %v at %v: no such line", tok, tok.Pos)
		}
		start := lineStart[tok.Pos.Line-1] + tok.Pos.Col - 1
		var end int
		switch {
		case tok.Kind == EOF || tok.Kind == Newline || tok.Kind == Indent || tok.Kind == Dedent:
			continue // zero width
		case tok.Kind == String:
			quote := src[start]
			for end = start + 1; src[end] != quote; end++ {
				if src[end] == '\\' {
					end++
				}
			}
			end++
		case spelling[tok.Kind] != "":
			end = start + len(spelling[tok.Kind])
		default:
			end = start + len(tok.Text)
			if src[start:end] != tok.Text {
				return fmt.Errorf("token %v at %v covers %q", tok, tok.Pos, src[start:end])
			}
		}
		if start < prevEnd || end > len(src) {
			return fmt.Errorf("token %v at %v overlaps its predecessor or the end", tok, tok.Pos)
		}
		for i := start; i < end; i++ {
			covered[i] = true
		}
		prevEnd = end
	}
	for i := 0; i < len(src); i++ {
		if covered[i] {
			continue
		}
		switch c := src[i]; {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
		case c == '#':
			for i+1 < len(src) && src[i+1] != '\n' {
				i++
			}
		case c == '\\' && strings.HasPrefix(src[i+1:], "\n"):
			i++
		case c == '\\' && strings.HasPrefix(src[i+1:], "\r\n"):
			i += 2
		default:
			return fmt.Errorf("byte %q at offset %d lies in no token", c, i)
		}
	}
	return nil
}
