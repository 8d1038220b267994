package core

import (
	"github.com/shelley-go/shelley/internal/ir"
	"github.com/shelley-go/shelley/internal/regex"
)

// PerExitResult refines ⟦p⟧ = (r, s) by keeping the returned behaviors
// separated per return statement (exit point) instead of as one merged
// set. It powers the checker's optional *exit-aware* flattening mode
// (DESIGN.md §6): pairing each exit's behavior with that exit's declared
// continuation removes the union-level over-approximation while staying
// within the paper's regular-language framework.
//
// The paper's Extract is recovered by merging: the union of all
// ByExit entries equals the language of Extract(p).Returned, a fact the
// tests check on random programs.
type PerExitResult struct {
	// Ongoing is r: traces of runs that fall off the end of p without
	// returning.
	Ongoing regex.Regex

	// ByExit maps each exit ID (ir.Return.ExitID) to the expression of
	// the traces that reach that very return statement. A return inside
	// a loop contributes one entry whose expression covers every number
	// of prior iterations.
	ByExit map[int]regex.Regex
}

// ExtractPerExit computes the per-exit refinement of ⟦p⟧. The recursion
// mirrors Fig. 4, with the returned set indexed by exit ID and same-ID
// contributions merged by union (a single return statement can be
// reached along several paths).
func ExtractPerExit(p ir.Program) PerExitResult {
	switch p := p.(type) {
	case ir.Call:
		return PerExitResult{Ongoing: regex.Symbol(p.Label), ByExit: map[int]regex.Regex{}}
	case ir.Skip:
		return PerExitResult{Ongoing: regex.Epsilon(), ByExit: map[int]regex.Regex{}}
	case ir.Return:
		return PerExitResult{
			Ongoing: regex.Empty(),
			ByExit:  map[int]regex.Regex{p.ExitID: regex.Epsilon()},
		}
	case ir.Seq:
		r1 := ExtractPerExit(p.First)
		r2 := ExtractPerExit(p.Second)
		out := PerExitResult{
			Ongoing: regex.Concat(r1.Ongoing, r2.Ongoing),
			ByExit:  make(map[int]regex.Regex, len(r1.ByExit)+len(r2.ByExit)),
		}
		for id, r := range r2.ByExit {
			out.add(id, regex.Concat(r1.Ongoing, r))
		}
		for id, r := range r1.ByExit {
			out.add(id, r)
		}
		return out
	case ir.If:
		r1 := ExtractPerExit(p.Then)
		r2 := ExtractPerExit(p.Else)
		out := PerExitResult{
			Ongoing: regex.Union(r1.Ongoing, r2.Ongoing),
			ByExit:  make(map[int]regex.Regex, len(r1.ByExit)+len(r2.ByExit)),
		}
		for id, r := range r1.ByExit {
			out.add(id, r)
		}
		for id, r := range r2.ByExit {
			out.add(id, r)
		}
		return out
	case ir.Loop:
		r1 := ExtractPerExit(p.Body)
		star := regex.Star(r1.Ongoing)
		out := PerExitResult{
			Ongoing: star,
			ByExit:  make(map[int]regex.Regex, len(r1.ByExit)),
		}
		for id, r := range r1.ByExit {
			out.add(id, regex.Concat(star, r))
		}
		return out
	}
	return PerExitResult{Ongoing: regex.Empty(), ByExit: map[int]regex.Regex{}}
}

func (r *PerExitResult) add(id int, expr regex.Regex) {
	if prev, ok := r.ByExit[id]; ok {
		r.ByExit[id] = regex.Union(prev, expr)
		return
	}
	r.ByExit[id] = expr
}
