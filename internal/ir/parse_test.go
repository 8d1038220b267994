package ir

import (
	"math/rand"
	"testing"
)

func TestParseBasics(t *testing.T) {
	tests := []struct {
		src  string
		want Program
	}{
		{"skip", Skip{}},
		{"return", Return{}},
		{"a()", Call{Label: "a"}},
		{"a.open()", Call{Label: "a.open"}},
		{"a(); b()", NewSeq(NewCall("a"), NewCall("b"))},
		{"if(*) { a() } else { skip }", NewIf(NewCall("a"), NewSkip())},
		{"loop(*) { a() }", NewLoop(NewCall("a"))},
		{
			"loop(*) { a(); if(*) { b(); return } else { c() } }",
			NewLoop(NewSeq(NewCall("a"), NewIf(NewSeq(NewCall("b"), Return{}), NewCall("c")))),
		},
	}
	for _, tt := range tests {
		got, err := Parse(tt.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.src, err)
			continue
		}
		if got.String() != tt.want.String() {
			t.Errorf("Parse(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestParseWhitespaceTolerant(t *testing.T) {
	got, err := Parse("  loop( * )  {\n  a() ;\n  return\n}  ")
	if err != nil {
		t.Fatal(err)
	}
	want := NewLoop(NewSeq(NewCall("a"), Return{}))
	if got.String() != want.String() {
		t.Errorf("got %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", ";", "a(", "a)", "if(*) { a() }", "if(*) { a() } else { }",
		"loop(*) a()", "a() b()", "a();", "if() { a() } else { b() }",
		"123()", "skip extra",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestParseRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		p := Random(rng, GeneratorConfig{MaxDepth: 4})
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", p.String(), err)
		}
		if back.String() != p.String() {
			t.Fatalf("round trip: %q -> %q", p.String(), back.String())
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("(")
}
