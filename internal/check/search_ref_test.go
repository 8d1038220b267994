package check

import (
	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
)

// This file keeps the three product searches that the shared product
// search (automata.DFA.Search) replaced, verbatim up to renaming, as
// oracles: search_test.go requires the replacements to return the same
// witnesses and to trip the same budgets.

// refShortestBadUsage searches the product of the flattened-behavior DFA
// and one subsystem's specification for the shortest complete usage
// whose projection the spec rejects. The spec only steps on its own
// symbols; other symbols leave it in place. Spec state -2 means the
// projection already died. The product BFS runs under cfg.ctx's
// MaxSearchNodes budget and observes cancellation.
func refShortestBadUsage(cfg config, flat, spec *automata.DFA, specSyms map[string]struct{}) ([]string, bool, error) {
	gate := budget.SearchGate(cfg.ctx, "usage-search")
	type pair struct{ f, s int }
	type node struct {
		at    pair
		trace []string
	}
	start := pair{f: flat.Start(), s: spec.Start()}
	visited := map[pair]struct{}{start: {}}
	frontier := []node{{at: start}}
	for len(frontier) > 0 {
		var next []node
		for _, n := range frontier {
			if err := gate.Tick(); err != nil {
				return nil, false, err
			}
			if flat.Accepting(n.at.f) && (n.at.s < 0 || !spec.Accepting(n.at.s)) {
				return n.trace, true, nil
			}
			for _, sym := range flat.Alphabet() {
				ft := flat.Target(n.at.f, sym)
				if ft < 0 {
					continue
				}
				st := n.at.s
				if _, mine := specSyms[sym]; mine {
					if st >= 0 {
						st = spec.Target(st, sym)
					}
					if st < 0 {
						st = -2 // dead: projection invalid from here on
					}
				}
				np := pair{f: ft, s: st}
				if _, seen := visited[np]; seen {
					continue
				}
				visited[np] = struct{}{}
				trace := make([]string, len(n.trace)+1)
				copy(trace, n.trace)
				trace[len(n.trace)] = sym
				next = append(next, node{at: np, trace: trace})
			}
		}
		frontier = next
	}
	return nil, false, nil
}

// refBadUsages collects up to max violating complete usages for one
// subsystem. Unlike refShortestBadUsage it keeps searching after the first
// hit, but still visits each product state once, so each reported trace
// reaches a distinct violating configuration. The search runs under
// cfg.ctx's MaxSearchNodes budget and observes cancellation.
func refBadUsages(cfg config, flat, spec *automata.DFA, specSyms map[string]struct{}, max int) ([][]string, error) {
	gate := budget.SearchGate(cfg.ctx, "usage-violations")
	type pair struct{ f, s int }
	type node struct {
		at    pair
		trace []string
	}
	start := pair{f: flat.Start(), s: spec.Start()}
	visited := map[pair]struct{}{start: {}}
	frontier := []node{{at: start}}
	var out [][]string
	for len(frontier) > 0 && len(out) < max {
		var next []node
		for _, n := range frontier {
			if err := gate.Tick(); err != nil {
				return nil, err
			}
			if flat.Accepting(n.at.f) && (n.at.s < 0 || !spec.Accepting(n.at.s)) {
				out = append(out, n.trace)
				if len(out) >= max {
					return out, nil
				}
			}
			for _, sym := range flat.Alphabet() {
				ft := flat.Target(n.at.f, sym)
				if ft < 0 {
					continue
				}
				st := n.at.s
				if _, mine := specSyms[sym]; mine {
					if st >= 0 {
						st = spec.Target(st, sym)
					}
					if st < 0 {
						st = -2
					}
				}
				np := pair{f: ft, s: st}
				if _, seen := visited[np]; seen {
					continue
				}
				visited[np] = struct{}{}
				trace := make([]string, len(n.trace)+1)
				copy(trace, n.trace)
				trace[len(n.trace)] = sym
				next = append(next, node{at: np, trace: trace})
			}
		}
		frontier = next
	}
	return out, nil
}

// refClaimSearch is the breadth-first search checkClaims ran inline.
func refClaimSearch(cfg config, flatDFA, violations *automata.DFA) ([]string, bool, error) {
	// Shortest complete trace that violates the claim. The product
	// BFS runs under cfg.ctx's MaxSearchNodes budget and observes
	// cancellation.
	gate := budget.SearchGate(cfg.ctx, "claim-search")
	type pair struct{ f, v int }
	type node struct {
		at    pair
		trace []string
	}
	start := pair{f: flatDFA.Start(), v: violations.Start()}
	visited := map[pair]struct{}{start: {}}
	frontier := []node{{at: start}}
	var witness []string
	found := false
	for len(frontier) > 0 && !found {
		var next []node
		for _, n := range frontier {
			if err := gate.Tick(); err != nil {
				return nil, false, err
			}
			if flatDFA.Accepting(n.at.f) && n.at.v >= 0 && violations.Accepting(n.at.v) {
				witness = n.trace
				found = true
				break
			}
			for _, sym := range flatDFA.Alphabet() {
				ft := flatDFA.Target(n.at.f, sym)
				if ft < 0 {
					continue
				}
				vt := -1
				if n.at.v >= 0 {
					vt = violations.Target(n.at.v, sym)
				}
				if vt < 0 {
					// The violation automaton died: no extension of
					// this trace can violate the claim.
					continue
				}
				np := pair{f: ft, v: vt}
				if _, seen := visited[np]; seen {
					continue
				}
				visited[np] = struct{}{}
				trace := make([]string, len(n.trace)+1)
				copy(trace, n.trace)
				trace[len(n.trace)] = sym
				next = append(next, node{at: np, trace: trace})
			}
		}
		frontier = next
	}
	return witness, found, nil
}
