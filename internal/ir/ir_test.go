package ir

import (
	"math/rand"
	"testing"
)

// exampleLoop is the program of the paper's Examples 1–3:
// loop(★){ a(); if(★){ b(); return } else { c() } }
func exampleLoop() Program {
	return NewLoop(NewSeq(
		NewCall("a"),
		NewIf(
			NewSeq(NewCall("b"), Return{}),
			NewCall("c"),
		),
	))
}

func TestString(t *testing.T) {
	tests := []struct {
		p    Program
		want string
	}{
		{NewCall("a.open"), "a.open()"},
		{NewSkip(), "skip"},
		{Return{}, "return"},
		{NewSeq(NewCall("a"), NewCall("b")), "a(); b()"},
		{NewIf(NewCall("a"), NewSkip()), "if(*) { a() } else { skip }"},
		{NewLoop(NewCall("a")), "loop(*) { a() }"},
		{
			exampleLoop(),
			"loop(*) { a(); if(*) { b(); return } else { c() } }",
		},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestNewSeqFolding(t *testing.T) {
	if _, ok := NewSeq().(Skip); !ok {
		t.Errorf("NewSeq() = %v, want skip", NewSeq())
	}
	a := NewCall("a")
	if NewSeq(a) != a {
		t.Errorf("NewSeq(a) should be a")
	}
	got := NewSeq(NewCall("a"), NewCall("b"), NewCall("c"))
	if got.String() != "a(); b(); c()" {
		t.Errorf("NewSeq 3 = %q", got.String())
	}
	// Right-nested: a;(b;c).
	seq, ok := got.(Seq)
	if !ok {
		t.Fatalf("NewSeq 3 is %T", got)
	}
	if _, ok := seq.Second.(Seq); !ok {
		t.Errorf("NewSeq should right-nest, second = %T", seq.Second)
	}
}

func TestNewChoiceFolding(t *testing.T) {
	if _, ok := NewChoice().(Skip); !ok {
		t.Error("NewChoice() should be skip")
	}
	a := NewCall("a")
	if NewChoice(a) != a {
		t.Error("NewChoice(a) should be a")
	}
	got := NewChoice(NewCall("a"), NewCall("b"), NewCall("c"))
	want := "if(*) { a() } else { if(*) { b() } else { c() } }"
	if got.String() != want {
		t.Errorf("NewChoice 3 = %q, want %q", got.String(), want)
	}
}

func TestSizeDepth(t *testing.T) {
	p := exampleLoop()
	// Nodes: loop, seq, a, if, seq, b, return, c = 8.
	if got := Size(p); got != 8 {
		t.Errorf("Size = %d, want 8", got)
	}
	// loop -> seq -> if -> seq -> b/return.
	if got := Depth(p); got != 5 {
		t.Errorf("Depth = %d, want 5", got)
	}
	if Size(NewSkip()) != 1 || Depth(NewSkip()) != 1 {
		t.Error("skip should have size 1 and depth 1")
	}
}

func TestLabels(t *testing.T) {
	p := NewSeq(NewCall("b"), NewCall("a"), NewCall("b"), NewLoop(NewCall("c")))
	got := Labels(p)
	want := []string{"b", "a", "c"}
	if len(got) != len(want) {
		t.Fatalf("Labels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Labels = %v, want %v (first-occurrence order)", got, want)
		}
	}
	if ls := Labels(NewSkip()); len(ls) != 0 {
		t.Errorf("Labels(skip) = %v, want empty", ls)
	}
}

func TestRandomRespectsConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := GeneratorConfig{MaxDepth: 4, Labels: []string{"x", "y"}}
	for i := 0; i < 500; i++ {
		p := Random(rng, cfg)
		if d := Depth(p); d > cfg.MaxDepth+1 {
			t.Fatalf("Depth = %d exceeds MaxDepth+1 = %d for %v", d, cfg.MaxDepth+1, p)
		}
		for _, l := range Labels(p) {
			if l != "x" && l != "y" {
				t.Fatalf("unexpected label %q in %v", l, p)
			}
		}
	}
}

func TestRandomCoversAllNodeKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := make(map[string]bool)
	var mark func(Program)
	mark = func(p Program) {
		switch p := p.(type) {
		case Call:
			kinds["call"] = true
		case Skip:
			kinds["skip"] = true
		case Return:
			kinds["return"] = true
		case Seq:
			kinds["seq"] = true
			mark(p.First)
			mark(p.Second)
		case If:
			kinds["if"] = true
			mark(p.Then)
			mark(p.Else)
		case Loop:
			kinds["loop"] = true
			mark(p.Body)
		}
	}
	for i := 0; i < 200; i++ {
		mark(Random(rng, GeneratorConfig{}))
	}
	for _, k := range []string{"call", "skip", "return", "seq", "if", "loop"} {
		if !kinds[k] {
			t.Errorf("generator never produced %s nodes", k)
		}
	}
}

// Size returns the number of nodes in p.
func Size(p Program) int {
	switch p := p.(type) {
	case Call, Skip, Return:
		return 1
	case Seq:
		return 1 + Size(p.First) + Size(p.Second)
	case If:
		return 1 + Size(p.Then) + Size(p.Else)
	case Loop:
		return 1 + Size(p.Body)
	}
	return 1
}

// Depth returns the height of the program tree.
func Depth(p Program) int {
	switch p := p.(type) {
	case Call, Skip, Return:
		return 1
	case Seq:
		return 1 + max(Depth(p.First), Depth(p.Second))
	case If:
		return 1 + max(Depth(p.Then), Depth(p.Else))
	case Loop:
		return 1 + Depth(p.Body)
	}
	return 1
}
