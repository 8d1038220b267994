package core

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/shelley-go/shelley/internal/ir"
	"github.com/shelley-go/shelley/internal/regex"
)

func TestExtractPerExitBasics(t *testing.T) {
	// a(); if(*){ b(); return#0 } else { c(); return#1 }
	p := ir.NewSeq(
		ir.NewCall("a"),
		ir.If{
			Then: ir.NewSeq(ir.NewCall("b"), ir.Return{ExitID: 0}),
			Else: ir.NewSeq(ir.NewCall("c"), ir.Return{ExitID: 1}),
		},
	)
	res := ExtractPerExit(p)
	if !regex.IsEmptyLanguage(res.Ongoing) {
		t.Errorf("ongoing = %v, want empty (both branches return)", res.Ongoing)
	}
	if got := exitIDs(res); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("exit ids = %v", got)
	}
	if !regex.Equivalent(res.ByExit[0], regex.MustParse("a . b")) {
		t.Errorf("exit 0 = %v, want a·b", res.ByExit[0])
	}
	if !regex.Equivalent(res.ByExit[1], regex.MustParse("a . c")) {
		t.Errorf("exit 1 = %v, want a·c", res.ByExit[1])
	}
}

func TestExtractPerExitSharedReturnInLoop(t *testing.T) {
	// loop(*){ a(); if(*){ return#0 } else { skip } }: exit 0 is
	// reachable after any positive number of a's... after at least one a.
	p := ir.NewLoop(ir.NewSeq(
		ir.NewCall("a"),
		ir.If{Then: ir.Return{ExitID: 0}, Else: ir.NewSkip()},
	))
	res := ExtractPerExit(p)
	want := regex.MustParse("a* . a")
	if !regex.Equivalent(res.ByExit[0], want) {
		t.Errorf("exit 0 = %v, want a+", res.ByExit[0])
	}
	if !regex.Equivalent(res.Ongoing, regex.MustParse("a*")) {
		t.Errorf("ongoing = %v", res.Ongoing)
	}
}

func TestExtractPerExitSameExitMultiplePaths(t *testing.T) {
	// if(*){ a() } else { b() }; return#0 — one return, two paths.
	p := ir.NewSeq(
		ir.NewIf(ir.NewCall("a"), ir.NewCall("b")),
		ir.Return{ExitID: 0},
	)
	res := ExtractPerExit(p)
	if len(res.ByExit) != 1 {
		t.Fatalf("exits = %v", exitIDs(res))
	}
	if !regex.Equivalent(res.ByExit[0], regex.MustParse("a + b")) {
		t.Errorf("exit 0 = %v", res.ByExit[0])
	}
}

// TestPerExitRefinesExtract checks the refinement property on random
// programs: Ongoing agrees with Extract's ongoing component, and the
// union of the per-exit behaviors equals the language of Extract's
// merged returned set.
func TestPerExitRefinesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 400; i++ {
		p := randomWithExitIDs(rng, 3)
		coarse := Extract(p)
		fine := ExtractPerExit(p)

		if !regex.Equivalent(coarse.Ongoing, fine.Ongoing) {
			t.Fatalf("program %v: ongoing differs: %v vs %v", p, coarse.Ongoing, fine.Ongoing)
		}
		merged := regex.RawAlts(append([]regex.Regex{regex.Empty()}, coarse.Returned...)...)
		if !regex.Equivalent(merged, mergedReturns(fine)) {
			t.Fatalf("program %v: merged returns differ: %v vs %v", p, merged, mergedReturns(fine))
		}
	}
}

// randomWithExitIDs generates a random program and renumbers its return
// statements with unique exit IDs in source order, as lowering does.
func randomWithExitIDs(rng *rand.Rand, depth int) ir.Program {
	p := ir.Random(rng, ir.GeneratorConfig{MaxDepth: depth, Labels: []string{"a", "b"}})
	next := 0
	var renumber func(ir.Program) ir.Program
	renumber = func(p ir.Program) ir.Program {
		switch p := p.(type) {
		case ir.Return:
			id := next
			next++
			return ir.Return{ExitID: id}
		case ir.Seq:
			first := renumber(p.First)
			return ir.Seq{First: first, Second: renumber(p.Second)}
		case ir.If:
			then := renumber(p.Then)
			return ir.If{Then: then, Else: renumber(p.Else)}
		case ir.Loop:
			return ir.Loop{Body: renumber(p.Body)}
		default:
			return p
		}
	}
	return renumber(p)
}

// mergedReturns is the union over all exits — the language of the
// paper's s component.
func mergedReturns(r PerExitResult) regex.Regex {
	parts := make([]regex.Regex, 0, len(r.ByExit)+1)
	parts = append(parts, regex.Empty())
	for _, id := range exitIDs(r) {
		parts = append(parts, r.ByExit[id])
	}
	return regex.Union(parts...)
}

// exitIDs returns the exit IDs present, sorted.
func exitIDs(r PerExitResult) []int {
	out := make([]int, 0, len(r.ByExit))
	for id := range r.ByExit {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
