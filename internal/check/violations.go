package check

import (
	"context"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/model"
)

// Violation is one invalid complete usage of a composite found by
// UsageViolationsContext.
type Violation struct {
	// Subsystem is the field whose protocol the trace violates.
	Subsystem string

	// Trace is the flattened subsystem trace (complete usage).
	Trace []string
}

// UsageViolationsContext enumerates up to max distinct violating
// complete usages per subsystem, shortest first (breadth-first over the
// product automaton, alphabet-ordered, so the output is deterministic).
// It is the tooling counterpart of Check's single-counterexample
// diagnostic: IDE integrations and reports can show several distinct
// failures at once. It runs under ctx's resource budget and
// cancellation, like CheckContext: flattening and determinization are
// bounded as in a check, and each product search by MaxSearchNodes.
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
		traces, err := badUsages(cfg, "usage-violations", flatDFA, spec, max)
		if err != nil {
			return nil, err
		}
		for _, tr := range traces {
			out = append(out, Violation{Subsystem: name, Trace: tr})
		}
	}
	return out, nil
}

// badUsages returns up to max complete usages of the flattened behavior
// whose projection onto the subsystem's alphabet the spec rejects,
// shortest first, each reaching a distinct product pair. The search
// ticks cfg.ctx's MaxSearchNodes gate named op and observes
// cancellation.
func badUsages(cfg config, op string, flat, spec *automata.DFA, max int) ([][]string, error) {
	return flat.Search(flat.Start(), spec.Over(flat.Alphabet(), true),
		func(f, s bool) bool { return f && !s }, max, budget.SearchGate(cfg.ctx, op))
}
