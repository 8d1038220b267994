package check

import (
	"context"

	"github.com/shelley-go/shelley/internal/core"
	"github.com/shelley-go/shelley/internal/model"
	"github.com/shelley-go/shelley/internal/pipeline"
	"github.com/shelley-go/shelley/internal/regex"
)

// Option configures Check.
type Option func(*config)

type config struct {
	precise bool

	// cache memoizes the expensive pipeline stages; nil disables
	// memoization (see WithCache).
	cache *pipeline.Cache

	// ctx carries the active obs span (if any) so pipeline stages open
	// as children of the verification that triggered them. Never nil
	// after buildConfig.
	ctx context.Context

	// keys memoizes the cache keys of the class being checked, so one
	// check builds them once (keysFor).
	keys Keys
}

// Precise switches the composite analysis to *exit-aware* flattening:
// the behavior of each operation is split per return statement
// (core.ExtractPerExit) and paired with that exit's declared
// continuation set, eliminating the union-level over-approximation of
// the paper's model (DESIGN.md §6). Verdicts can only move from
// "violation" to "ok": the precise language is a subset of the default
// one.
func Precise() Option {
	return func(c *config) { c.precise = true }
}

func buildConfig(opts []Option) config {
	c := config{ctx: context.Background()}
	for _, apply := range opts {
		apply(&c)
	}
	if c.ctx == nil {
		c.ctx = context.Background()
	}
	return c
}

// flattenExitAware builds the exit-aware flat automaton: protocol states
// are "just created" plus one state per (operation, exit point); the
// edge entering operation n toward its exit e substitutes the behavior
// of exactly the paths that reach e's return statement.
//
// Operations whose body can fall off the end without returning
// contribute a pseudo-exit with the ongoing behavior and no
// continuations.
func flattenExitAware(cfg config, c *model.Class, alphabet []string) (*flatAutomaton, error) {
	// Like flatten, the per-exit substitution multiplies protocol edges
	// by behavior copies, so the flat state count is gated.
	fb := newFlatBuilder(cfg, alphabet)
	start := fb.addState(true) // never using the composite is valid
	fb.f.start = start

	// Per-operation refinement and per-(op, exit) states.
	type exitInfo struct {
		state    int
		next     []string
		behavior behaviorCopy
	}
	exitsOf := make(map[string][]exitInfo, len(c.Operations))
	for _, op := range c.Operations {
		fine := core.ExtractPerExit(op.Method.Program)
		var infos []exitInfo
		for _, e := range op.Method.Exits {
			expr, ok := fine.ByExit[e.ID]
			if ok {
				expr = regex.Simplify(expr)
			}
			if !ok || regex.IsEmptyLanguage(expr) {
				continue // unreachable return (e.g. dead code after return)
			}
			b, err := cfg.minimalDFA(expr)
			if err != nil {
				return nil, err
			}
			infos = append(infos, exitInfo{
				state:    fb.addState(op.Final),
				next:     e.Next,
				behavior: newBehaviorCopy(b),
			})
		}
		if !regex.IsEmptyLanguage(regex.Simplify(fine.Ongoing)) {
			// Implicit exit: the body can complete without a return; no
			// operation may follow (Python returns None here, which
			// declares nothing).
			b, err := cfg.minimalDFA(regex.Simplify(fine.Ongoing))
			if err != nil {
				return nil, err
			}
			infos = append(infos, exitInfo{
				state:    fb.addState(op.Final),
				behavior: newBehaviorCopy(b),
			})
		}
		exitsOf[op.Name] = infos
	}

	// connect wires source state s to every exit of operation n through
	// a fresh copy of that exit's behavior automaton.
	connect := func(s int, opName string) {
		if fb.err != nil {
			return
		}
		for _, info := range exitsOf[opName] {
			fb.splice(s, info.state, opName, info.behavior)
		}
	}

	for _, op := range c.Operations {
		if op.Initial {
			connect(start, op.Name)
		}
	}
	for _, op := range c.Operations {
		for _, info := range exitsOf[op.Name] {
			seen := make(map[string]struct{}, len(info.next))
			for _, n := range info.next {
				if _, dup := seen[n]; dup {
					continue
				}
				seen[n] = struct{}{}
				if c.Operation(n) == nil {
					continue // reported by Validate/definedness
				}
				connect(info.state, n)
			}
		}
	}
	if fb.err != nil {
		return nil, fb.err
	}
	return fb.f, nil
}

// flattenWith picks the flattening mode.
func flattenWith(cfg config, c *model.Class, alphabet []string) (*flatAutomaton, error) {
	if cfg.precise {
		return flattenExitAware(cfg, c, alphabet)
	}
	return flatten(cfg, c, alphabet)
}
