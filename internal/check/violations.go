package check

import (
	"context"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/model"
)

// Violation is one invalid complete usage of a composite found by
// UsageViolations.
type Violation struct {
	// Subsystem is the field whose protocol the trace violates.
	Subsystem string

	// Trace is the flattened subsystem trace (complete usage).
	Trace []string
}

// UsageViolations enumerates up to max distinct violating complete
// usages per subsystem, shortest first (breadth-first over the product
// automaton, alphabet-ordered, so the output is deterministic). It is
// the tooling counterpart of Check's single-counterexample diagnostic:
// IDE integrations and reports can show several distinct failures at
// once. It runs without a budget; see UsageViolationsContext.
func UsageViolations(c *model.Class, reg Registry, max int, opts ...Option) ([]Violation, error) {
	return UsageViolationsContext(context.Background(), c, reg, max, opts...)
}

// UsageViolationsContext is UsageViolations under ctx's resource budget
// and cancellation, like CheckContext: flattening and determinization
// are bounded as in a check, and each product search by
// MaxSearchNodes.
func UsageViolationsContext(ctx context.Context, c *model.Class, reg Registry, max int, opts ...Option) ([]Violation, error) {
	if len(c.SubsystemNames) == 0 || max <= 0 {
		return nil, nil
	}
	cfg := buildConfig(opts)
	cfg.ctx = ctx
	_, flatDFA, err := flattened(cfg, c, reg)
	if err != nil {
		return nil, err
	}

	var out []Violation
	for _, name := range c.SubsystemNames {
		sub, err := reg.resolve(c, name)
		if err != nil {
			return nil, err
		}
		spec, err := cfg.specDFA(sub, name)
		if err != nil {
			return nil, err
		}
		specSyms := make(map[string]struct{})
		for _, sym := range spec.Alphabet() {
			specSyms[sym] = struct{}{}
		}
		traces, err := badUsages(cfg, flatDFA, spec, specSyms, max)
		if err != nil {
			return nil, err
		}
		for _, tr := range traces {
			out = append(out, Violation{Subsystem: name, Trace: tr})
		}
	}
	return out, nil
}

// badUsages collects up to max violating complete usages for one
// subsystem. Unlike shortestBadUsage it keeps searching after the first
// hit, but still visits each product state once, so each reported trace
// reaches a distinct violating configuration. The search runs under
// cfg.ctx's MaxSearchNodes budget and observes cancellation.
func badUsages(cfg config, flat, spec *automata.DFA, specSyms map[string]struct{}, max int) ([][]string, error) {
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
