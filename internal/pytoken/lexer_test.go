package pytoken

import (
	"errors"
	"testing"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func assertKinds(t *testing.T, src string, want []Kind) {
	t.Helper()
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("Tokenize(%q) = %v, want %v", src, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize(%q)[%d] = %v, want %v (full: %v)", src, i, got[i], want[i], got)
		}
	}
}

func TestSimpleStatement(t *testing.T) {
	assertKinds(t, "x = 1\n", []Kind{Name, Assign, Number, Newline, EOF})
}

func TestNoTrailingNewlineStillTerminates(t *testing.T) {
	assertKinds(t, "x = 1", []Kind{Name, Assign, Number, Newline, EOF})
}

func TestIndentDedent(t *testing.T) {
	src := "if x:\n    y()\nz()\n"
	assertKinds(t, src, []Kind{
		KwIf, Name, Colon, Newline,
		Indent, Name, LParen, RParen, Newline, Dedent,
		Name, LParen, RParen, Newline, EOF,
	})
}

func TestNestedIndentation(t *testing.T) {
	src := "def f():\n  if x:\n    y()\n"
	assertKinds(t, src, []Kind{
		KwDef, Name, LParen, RParen, Colon, Newline,
		Indent, KwIf, Name, Colon, Newline,
		Indent, Name, LParen, RParen, Newline,
		Dedent, Dedent, EOF,
	})
}

func TestBlankAndCommentLinesIgnored(t *testing.T) {
	src := "a()\n\n# comment\n   # indented comment\nb()\n"
	assertKinds(t, src, []Kind{
		Name, LParen, RParen, Newline,
		Name, LParen, RParen, Newline, EOF,
	})
}

func TestTrailingCommentIgnored(t *testing.T) {
	assertKinds(t, "a()  # call a\n", []Kind{Name, LParen, RParen, Newline, EOF})
}

func TestImplicitLineJoining(t *testing.T) {
	src := "f(1,\n  2,\n  3)\n"
	assertKinds(t, src, []Kind{
		Name, LParen, Number, Comma, Number, Comma, Number, RParen, Newline, EOF,
	})
}

func TestExplicitLineJoining(t *testing.T) {
	assertKinds(t, "x = 1 + \\\n2\n", []Kind{Name, Assign, Number, Plus, Number, Newline, EOF})
}

// TestExplicitLineJoiningCRLF pins that a backslash before a CRLF line
// end joins lines exactly as one before an LF does, positions included.
func TestExplicitLineJoiningCRLF(t *testing.T) {
	lf, err := Tokenize("if x:\n    y = 1 + \\\n        2\n")
	if err != nil {
		t.Fatal(err)
	}
	crlf, err := Tokenize("if x:\r\n    y = 1 + \\\r\n        2\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(crlf) != len(lf) {
		t.Fatalf("CRLF gave %d tokens, LF %d", len(crlf), len(lf))
	}
	for i := range lf {
		// A NEWLINE sits at the end of its line, one column later
		// after the carriage return.
		if lf[i].Kind == Newline {
			lf[i].Pos.Col++
		}
		if crlf[i] != lf[i] {
			t.Fatalf("token %d = %+v, want %+v", i, crlf[i], lf[i])
		}
	}
}

// TestNULIsAnError pins that a NUL byte before the end of input is a
// lexical error at its own position, wherever it sits, and never an
// early end of file.
func TestNULIsAnError(t *testing.T) {
	for _, tt := range []struct{ src, pos string }{
		{"x = 1\x00\ny = 2\n", "1:6"},                 // code
		{"x = 1\n# note \x00 more\ny = 2\n", "2:8"},   // comment
		{"if x:\n  \x00  y = 2\n", "2:3"},             // indentation
		{"x = 1\n\x00\n", "2:1"},                      // a line of its own
		{"s = 'a\x00b'\n", "1:7"},                     // string
		{"s = 'a\\\x00'\n", "1:8"},                    // string escape
		{"class A:\n    pass\n\x00class B:\n", "3:1"}, // between classes
	} {
		_, err := Tokenize(tt.src)
		var lexErr *Error
		if !errors.As(err, &lexErr) {
			t.Errorf("Tokenize(%q) = %v, want a *Error", tt.src, err)
			continue
		}
		if want := tt.pos + ": source code cannot contain null bytes"; err.Error() != want {
			t.Errorf("Tokenize(%q) = %q, want %q", tt.src, err, want)
		}
	}
}

func TestKeywordsAndNames(t *testing.T) {
	src := "class def if elif else match case for while return pass in not and or True False None classes\n"
	assertKinds(t, src, []Kind{
		KwClass, KwDef, KwIf, KwElif, KwElse, KwMatch, KwCase, KwFor, KwWhile,
		KwReturn, KwPass, KwIn, KwNot, KwAnd, KwOr, KwTrue, KwFalse, KwNone,
		Name, Newline, EOF,
	})
}

func TestOperators(t *testing.T) {
	src := "a == b != c <= d >= e < f > g -> h\n"
	assertKinds(t, src, []Kind{
		Name, Eq, Name, NotEq, Name, LtEq, Name, GtEq, Name, Lt, Name, Gt,
		Name, Arrow, Name, Newline, EOF,
	})
}

func TestStringLiterals(t *testing.T) {
	toks, err := Tokenize(`x = "open" + 'clean'` + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Kind != String || toks[2].Text != "open" {
		t.Errorf("first string = %v", toks[2])
	}
	if toks[4].Kind != String || toks[4].Text != "clean" {
		t.Errorf("second string = %v", toks[4])
	}
}

func TestStringEscapes(t *testing.T) {
	toks, err := Tokenize(`s = "a\nb\t\"q\""` + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := toks[2].Text, "a\nb\t\"q\""; got != want {
		t.Errorf("decoded = %q, want %q", got, want)
	}
}

func TestUnterminatedString(t *testing.T) {
	if _, err := Tokenize("s = \"abc\n"); err == nil {
		t.Error("expected unterminated string error")
	}
	if _, err := Tokenize("s = \"abc"); err == nil {
		t.Error("expected unterminated string error at EOF")
	}
}

func TestNumbers(t *testing.T) {
	toks, err := Tokenize("a = 27 + 3.14 + 0xFF + 1_000\n")
	if err != nil {
		t.Fatal(err)
	}
	var nums []string
	for _, tok := range toks {
		if tok.Kind == Number {
			nums = append(nums, tok.Text)
		}
	}
	want := []string{"27", "3.14", "0xFF", "1_000"}
	if len(nums) != len(want) {
		t.Fatalf("numbers = %v, want %v", nums, want)
	}
	for i := range want {
		if nums[i] != want[i] {
			t.Errorf("numbers[%d] = %q, want %q", i, nums[i], want[i])
		}
	}
}

func TestInconsistentDedentIsError(t *testing.T) {
	src := "if x:\n    a()\n  b()\n"
	if _, err := Tokenize(src); err == nil {
		t.Error("expected inconsistent-dedent error")
	}
}

func TestUnexpectedCharacter(t *testing.T) {
	for _, src := range []string{"a ? b\n", "a ! b\n", "a & b\n"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q): expected error", src)
		}
	}
}

func TestMultipleDedentsAtEOF(t *testing.T) {
	src := "if a:\n  if b:\n    c()\n"
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	dedents := 0
	for _, tok := range toks {
		if tok.Kind == Dedent {
			dedents++
		}
	}
	if dedents != 2 {
		t.Errorf("got %d dedents, want 2", dedents)
	}
}

func TestPositions(t *testing.T) {
	toks, err := Tokenize("ab = 1\ncd()\n")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{Line: 1, Col: 1}) {
		t.Errorf("ab at %v", toks[0].Pos)
	}
	// cd is the 5th token (ab, =, 1, newline, cd).
	if toks[4].Pos != (Pos{Line: 2, Col: 1}) {
		t.Errorf("cd at %v, want 2:1", toks[4].Pos)
	}
	if s := toks[4].Pos.String(); s != "2:1" {
		t.Errorf("Pos.String = %q", s)
	}
}

// TestTokenizeAtShiftsLines pins the start-line contract of NewLexer:
// the same tokens and errors as Tokenize, with every line offset by the
// start line less one and every column unchanged.
func TestTokenizeAtShiftsLines(t *testing.T) {
	src := "@sys\nclass A:\n    def f(self):\n        return []\n"
	whole, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	at, err := tokenizeAt(src, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(at) != len(whole) {
		t.Fatalf("tokenizeAt gave %d tokens, Tokenize %d", len(at), len(whole))
	}
	for i, tok := range whole {
		tok.Pos.Line += 6
		if at[i] != tok {
			t.Fatalf("token %d = %+v, want %+v", i, at[i], tok)
		}
	}
	if _, err := tokenizeAt("class A:\n    x = 'open\n", 7); err == nil || err.Error() != "8:9: unterminated string literal" {
		t.Fatalf("error = %v, want 8:9: unterminated string literal", err)
	}
}

func TestDecoratorTokens(t *testing.T) {
	assertKinds(t, "@sys([\"a\", \"b\"])\n", []Kind{
		At, Name, LParen, LBracket, String, Comma, String, RBracket, RParen, Newline, EOF,
	})
}

func TestKindStringCoverage(t *testing.T) {
	for k := EOF; k <= GtEq; k++ {
		if s := k.String(); s == "" {
			t.Errorf("Kind(%d).String is empty", k)
		}
	}
	if Kind(999).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestTokenString(t *testing.T) {
	tests := []struct {
		tok  Token
		want string
	}{
		{Token{Kind: Name, Text: "x"}, `"x"`},
		{Token{Kind: Number, Text: "42"}, `"42"`},
		{Token{Kind: String, Text: "s"}, `string "s"`},
		{Token{Kind: Colon}, "':'"},
	}
	for _, tt := range tests {
		if got := tt.tok.String(); got != tt.want {
			t.Errorf("Token.String = %q, want %q", got, tt.want)
		}
	}
}

func TestTabIndentation(t *testing.T) {
	src := "if x:\n\ta()\n\tb()\n"
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	indents, dedents := 0, 0
	for _, tok := range toks {
		switch tok.Kind {
		case Indent:
			indents++
		case Dedent:
			dedents++
		}
	}
	if indents != 1 || dedents != 1 {
		t.Errorf("indents=%d dedents=%d, want 1/1", indents, dedents)
	}
}
