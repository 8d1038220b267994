package automata

import (
	"context"

	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/regex"
)

// ToRegex converts the DFA into a regular expression denoting the same
// language, by state elimination on a generalized NFA (GNFA). Together
// with CompileMinimal this realizes the Corollary 1 round trip
// regex → DFA → regex used by the C1 experiment.
//
// Elimination proceeds in increasing state order, which keeps the output
// deterministic. Edge expressions are built with the normalizing
// constructors, so trivial sublanguages collapse as they appear.
//
// Unbounded: state elimination can square edge-expression sizes per
// eliminated state, so callers handling untrusted input should use
// ToRegexCtx with a budget instead.
func (d *DFA) ToRegex() regex.Regex {
	r, _ := d.ToRegexCtx(context.Background())
	return r
}

// ToRegexCtx is ToRegex bounded by the context's resource budget: it
// stops with a structured budget.Err as soon as any intermediate edge
// expression grows past MaxRegexSize (checked with regex.SizeWithin, so
// the check itself never walks more than the budget), and observes
// cancellation once per eliminated state.
func (d *DFA) ToRegexCtx(ctx context.Context) (regex.Regex, error) {
	gate := budget.NewGate(ctx, "to-regex", "regex-size", 0)
	maxSize := budget.From(ctx).MaxRegexSize

	n := d.NumStates()
	// GNFA states: 0..n-1 original, n = super-start, n+1 = super-accept.
	superStart, superAccept := n, n+1
	total := n + 2

	edge := make([][]regex.Regex, total)
	for i := range edge {
		edge[i] = make([]regex.Regex, total)
		for j := range edge[i] {
			edge[i][j] = regex.Empty()
		}
	}
	for s := 0; s < n; s++ {
		for si, t := range d.row(s) {
			if t < 0 {
				continue
			}
			edge[s][t] = regex.Union(edge[s][t], regex.Symbol(d.alphabet[si]))
		}
		if d.accept[s] {
			edge[s][superAccept] = regex.Epsilon()
		}
	}
	edge[superStart][d.start] = regex.Epsilon()

	alive := make([]bool, total)
	for i := range alive {
		alive[i] = true
	}
	for k := 0; k < n; k++ { // eliminate original states only
		loop := regex.Star(edge[k][k])
		for i := 0; i < total; i++ {
			if !alive[i] || i == k || regex.IsEmptyLanguage(edge[i][k]) {
				continue
			}
			if err := gate.Tick(); err != nil {
				return nil, err
			}
			for j := 0; j < total; j++ {
				if !alive[j] || j == k || regex.IsEmptyLanguage(edge[k][j]) {
					continue
				}
				detour := regex.Concat(edge[i][k], loop, edge[k][j])
				edge[i][j] = regex.Union(edge[i][j], detour)
				if !regex.SizeWithin(edge[i][j], maxSize) {
					return nil, budget.Exceeded(ctx, "to-regex", "regex-size", maxSize)
				}
			}
		}
		alive[k] = false
	}
	return edge[superStart][superAccept], nil
}
