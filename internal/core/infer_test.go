package core

import (
	"testing"

	"github.com/shelley-go/shelley/internal/ir"
	"github.com/shelley-go/shelley/internal/regex"
)

// paperExample is loop(★){ a(); if(★){ b(); return } else { c() } },
// shared by Examples 1–3 of the paper.
func paperExample() ir.Program {
	return ir.NewLoop(ir.NewSeq(
		ir.NewCall("a"),
		ir.NewIf(
			ir.NewSeq(ir.NewCall("b"), ir.Return{}),
			ir.NewCall("c"),
		),
	))
}

func TestExtractBaseCases(t *testing.T) {
	tests := []struct {
		name        string
		p           ir.Program
		wantOngoing string
		wantRet     []string
	}{
		{"call", ir.NewCall("f"), "f", nil},
		{"skip", ir.NewSkip(), "1", nil},
		{"return", ir.Return{}, "0", []string{"1"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Extract(tt.p)
			if got.Ongoing.String() != tt.wantOngoing {
				t.Errorf("ongoing = %q, want %q", got.Ongoing.String(), tt.wantOngoing)
			}
			if len(got.Returned) != len(tt.wantRet) {
				t.Fatalf("returned = %v, want %v", got.Returned, tt.wantRet)
			}
			for i, r := range got.Returned {
				if r.String() != tt.wantRet[i] {
					t.Errorf("returned[%d] = %q, want %q", i, r.String(), tt.wantRet[i])
				}
			}
		})
	}
}

func TestExtractSeq(t *testing.T) {
	// ⟦a(); return; b()⟧: the b() is dead code after the return.
	p := ir.NewSeq(ir.NewCall("a"), ir.Return{}, ir.NewCall("b"))
	got := Extract(p)
	// Ongoing: a·(∅·b) — nothing can complete normally.
	if !regex.IsEmptyLanguage(got.Ongoing) {
		t.Errorf("ongoing %v should denote the empty language", got.Ongoing)
	}
	if len(got.Returned) != 1 {
		t.Fatalf("returned = %v, want one entry", got.Returned)
	}
	if !regex.Equivalent(got.Returned[0], regex.Symbol("a")) {
		t.Errorf("returned[0] = %v, want language {a}", got.Returned[0])
	}
}

func TestExtractIfUnionsReturns(t *testing.T) {
	p := ir.NewIf(
		ir.NewSeq(ir.NewCall("a"), ir.Return{}),
		ir.NewSeq(ir.NewCall("b"), ir.Return{}),
	)
	got := Extract(p)
	if len(got.Returned) != 2 {
		t.Fatalf("returned = %v, want two entries", got.Returned)
	}
}

func TestExtractDeduplicatesReturnSet(t *testing.T) {
	// Both branches return after the identical call: s is a *set*.
	p := ir.NewIf(
		ir.NewSeq(ir.NewCall("a"), ir.Return{}),
		ir.NewSeq(ir.NewCall("a"), ir.Return{}),
	)
	got := Extract(p)
	if len(got.Returned) != 1 {
		t.Fatalf("returned = %v, want deduplicated single entry", got.Returned)
	}
}

func TestPaperExample3Verbatim(t *testing.T) {
	// ⟦loop(★){a(); if(★){b(); return} else {c()}}⟧ =
	//   ((a·((b·∅)+c))*, {(a·((b·∅)+c))*·a·b})
	got := Extract(paperExample())
	if want := "(a . (b . 0 + c))*"; got.Ongoing.String() != want {
		t.Errorf("ongoing = %q, want %q", got.Ongoing.String(), want)
	}
	if len(got.Returned) != 1 {
		t.Fatalf("returned = %v, want exactly one behavior", got.Returned)
	}
	if want := "(a . (b . 0 + c))* . a . b"; got.Returned[0].String() != want {
		t.Errorf("returned[0] = %q, want %q", got.Returned[0].String(), want)
	}
}

func TestInferMergesOngoingAndReturned(t *testing.T) {
	got := Infer(paperExample())
	want := "(a . (b . 0 + c))* + (a . (b . 0 + c))* . a . b"
	if got.String() != want {
		t.Errorf("Infer = %q, want %q", got.String(), want)
	}
}

func TestInferSimplifiedPreservesLanguage(t *testing.T) {
	p := paperExample()
	raw := Infer(p)
	simp := regex.Simplify(raw)
	if eq := regex.Equivalent(raw, simp); !eq {
		t.Errorf("simplification changed the language: %v vs %v", raw, simp)
	}
	// The simplified form of Example 3 is (a·c)* + (a·c)*·a·b — the dead
	// b·∅ branch disappears.
	want := regex.MustParse("(a . c)* + (a . c)* . a . b")
	if !regex.Equivalent(simp, want) {
		t.Errorf("simplified = %v, want language of %v", simp, want)
	}
}

func TestMergeWithNoReturns(t *testing.T) {
	got := Extract(ir.NewCall("f")).Merge()
	if regex.Key(got) != regex.Key(regex.Symbol("f")) {
		t.Errorf("Merge = %v, want f", got)
	}
}

func TestLoopReturnPrependsStar(t *testing.T) {
	// loop(★){ if(★){ return } else { a() } }
	p := ir.NewLoop(ir.NewIf(ir.Return{}, ir.NewCall("a")))
	got := Extract(p)
	if len(got.Returned) != 1 {
		t.Fatalf("returned = %v", got.Returned)
	}
	// Returned behavior: (∅+a)* (·ε) — i.e. any number of a's then return.
	want := regex.MustParse("a*")
	if !regex.Equivalent(got.Returned[0], want) {
		t.Errorf("returned[0] = %v, want language a*", got.Returned[0])
	}
	if !regex.Equivalent(got.Ongoing, want) {
		t.Errorf("ongoing = %v, want language a*", got.Ongoing)
	}
}
