// Package core implements the paper's primary contribution: behavior
// inference (Fig. 4), the function ⟦p⟧ = (r, s) that extracts, from a
// program of the imperative calculus, a regular expression describing
// every trace of method calls the program can produce.
//
// The pair (r, s) separates the two derivation statuses of the trace
// semantics: r is the regular expression of the ongoing behaviors
// (0 ⊢ l ∈ p) and s is a finite set of regular expressions, one per way
// the program can hit a `return` (R ⊢ l ∈ p). infer(p) merges them:
//
//	infer(p) = r + r'1 + ... + r'n    where ⟦p⟧ = (r, {r'1, ..., r'n})
//
// Soundness (Theorem 1) and completeness (Theorem 2) state that
// L(p) = L(infer(p)); Corollary 1 concludes that L(p) is a regular
// language. The paper mechanizes these proofs in Coq; this reproduction
// validates the same statements as executable property-based tests (see
// theorems_test.go) over randomly generated programs.
package core

import (
	"github.com/shelley-go/shelley/internal/ir"
	"github.com/shelley-go/shelley/internal/regex"
)

// Result is the pair ⟦p⟧ = (r, s).
type Result struct {
	// Ongoing is r: the regular expression of traces derivable with
	// status 0 (no return executed).
	Ongoing regex.Regex

	// Returned is s: the finite set of regular expressions of traces
	// derivable with status R, one entry per syntactic path to a return.
	// The set is deduplicated structurally and kept in discovery order,
	// which makes output deterministic.
	Returned []regex.Regex
}

// Extract computes ⟦p⟧ by structural recursion, mirroring Fig. 4 exactly.
// Expressions are built with raw (non-normalizing) constructors except
// for the unit law r·ε = ε·r = r, which the paper itself applies when
// displaying Example 3; this keeps the output shape byte-identical to
// the paper's.
func Extract(p ir.Program) Result {
	switch p := p.(type) {
	case ir.Call:
		// ⟦f()⟧ = (f, ∅)
		return Result{Ongoing: regex.Symbol(p.Label)}
	case ir.Skip:
		// ⟦skip⟧ = (ε, ∅)
		return Result{Ongoing: regex.Epsilon()}
	case ir.Return:
		// ⟦return⟧ = (∅, {ε})
		return Result{Ongoing: regex.Empty(), Returned: []regex.Regex{regex.Epsilon()}}
	case ir.Seq:
		// ⟦p1;p2⟧ = (r1·r2, {r1·r | r ∈ s2} ∪ s1)
		r1 := Extract(p.First)
		r2 := Extract(p.Second)
		ret := make([]regex.Regex, 0, len(r1.Returned)+len(r2.Returned))
		for _, r := range r2.Returned {
			ret = append(ret, cat(r1.Ongoing, r))
		}
		ret = append(ret, r1.Returned...)
		return Result{Ongoing: cat(r1.Ongoing, r2.Ongoing), Returned: dedup(ret)}
	case ir.If:
		// ⟦if(★){p1}else{p2}⟧ = (r1 + r2, s1 ∪ s2)
		r1 := Extract(p.Then)
		r2 := Extract(p.Else)
		ret := make([]regex.Regex, 0, len(r1.Returned)+len(r2.Returned))
		ret = append(ret, r1.Returned...)
		ret = append(ret, r2.Returned...)
		return Result{Ongoing: regex.RawAlt(r1.Ongoing, r2.Ongoing), Returned: dedup(ret)}
	case ir.Loop:
		// ⟦loop(★){p1}⟧ = (r1*, {r1*·r | r ∈ s1})
		r1 := Extract(p.Body)
		star := regex.RawStar(r1.Ongoing)
		ret := make([]regex.Regex, 0, len(r1.Returned))
		for _, r := range r1.Returned {
			ret = append(ret, cat(star, r))
		}
		return Result{Ongoing: star, Returned: dedup(ret)}
	}
	// Unknown node kinds have no derivations; treat as the empty program.
	return Result{Ongoing: regex.Empty()}
}

// Infer computes infer(p) = r + r'1 + ... + r'n. The expression preserves
// the paper's syntactic shape; use regex.Simplify for a normalized form.
func Infer(p ir.Program) regex.Regex {
	res := Extract(p)
	return res.Merge()
}

// Merge folds the pair (r, s) into the single expression infer returns.
func (res Result) Merge() regex.Regex {
	parts := make([]regex.Regex, 0, 1+len(res.Returned))
	parts = append(parts, res.Ongoing)
	parts = append(parts, res.Returned...)
	return regex.RawAlts(parts...)
}

// cat is concatenation with only the unit law applied (r·ε = ε·r = r),
// matching the level of simplification the paper uses when printing
// inference results (b·ε is shown as b, but b·∅ is kept verbatim).
func cat(a, b regex.Regex) regex.Regex {
	if _, ok := a.(regex.EmptyString); ok {
		return b
	}
	if _, ok := b.(regex.EmptyString); ok {
		return a
	}
	return regex.RawCat(a, b)
}

// dedup removes structural duplicates, keeping first occurrences: s is a
// set in the paper.
func dedup(rs []regex.Regex) []regex.Regex {
	if len(rs) < 2 {
		return rs
	}
	seen := make(map[string]struct{}, len(rs))
	out := rs[:0]
	for _, r := range rs {
		k := regex.Key(r)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, r)
	}
	return out
}
