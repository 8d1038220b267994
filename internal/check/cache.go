package check

import (
	"context"
	"strings"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/ir"
	"github.com/shelley-go/shelley/internal/model"
	"github.com/shelley-go/shelley/internal/pipeline"
	"github.com/shelley-go/shelley/internal/regex"
)

// WithCache threads a memoizing pipeline cache through every
// verification pass: whole-class reports, flattened composite automata,
// subsystem protocol automata, behavior DFA compiles, and LTLf claim
// compilation are then looked up by content fingerprint instead of
// being rebuilt. A nil cache (or omitting the option) keeps the passes
// fully uncached; the differential tests in the root package assert the
// two modes byte-identical.
func WithCache(cache *pipeline.Cache) Option {
	return func(c *config) { c.cache = cache }
}

// Keys are the content-addressed cache keys of one class under one
// configuration: the whole-report key and the flatten key. Each covers
// everything the analysis of the class reads: the class's own
// fingerprint, the analysis mode, the resource budget (a
// budget-exceeded report is cached deterministically for its budget; a
// retry with a larger budget is a different key and can succeed), and
// the protocol fingerprint of every resolved subsystem class (checkUsage
// and checkClaims depend on the subsystems' protocols, but nothing
// deeper — not their bodies, and a subsystem's own subsystems never
// enter the analysis of the class; keying by the protocol projection
// means a body-only subsystem edit leaves every dependent's cached
// report valid). The report key covers the context's limits whole (its
// searches gate every limit); the flatten key their flattenLimits
// projection, so automata don't fragment on search bounds that cannot
// affect them. A check computes them once and passes them down in its
// config; PeekReport hands them to the CheckContext call that follows a
// miss (WithKeys).
type Keys struct {
	report, flatten string
	built           bool // false in the zero Keys: not computed yet
	ok              bool // false when a subsystem cannot be resolved; the analysis then errors uncached
}

// Unresolvable reports whether building the keys met a subsystem that
// does not resolve; checking the class then fails with that error.
func (k Keys) Unresolvable() bool { return k.built && !k.ok }

// WithKeys makes a check use keys that PeekReport computed for the same
// class under the same options and context budget.
func WithKeys(k Keys) Option {
	return func(c *config) { c.keys = k }
}

// newKeys builds c's cache keys under cfg.
func newKeys(cfg config, c *model.Class, reg Registry) Keys {
	var subs strings.Builder
	for _, name := range c.SubsystemNames {
		sub, err := reg.resolve(c, name)
		if err != nil {
			return Keys{built: true}
		}
		subs.WriteString("|")
		subs.WriteString(name)
		subs.WriteString("=")
		subs.WriteString(sub.ProtocolFingerprint())
	}
	key := func(limits budget.Limits) string {
		var lb [64]byte
		bk := limits.AppendKey(lb[:0])
		var b strings.Builder
		b.Grow(len(c.Fingerprint()) + len("|precise|") + len(bk) + subs.Len())
		b.WriteString(c.Fingerprint())
		if cfg.precise {
			b.WriteString("|precise")
		}
		if len(bk) > 0 {
			b.WriteString("|")
			b.Write(bk)
		}
		b.WriteString(subs.String())
		return b.String()
	}
	limits := budget.From(cfg.ctx)
	k := Keys{report: key(limits), built: true, ok: true}
	k.flatten = k.report
	if fl := flattenLimits(limits); fl != limits {
		k.flatten = key(fl)
	}
	return k
}

// keysFor returns the keys cfg carries for c, building them when it
// carries none.
func (cfg *config) keysFor(c *model.Class, reg Registry) Keys {
	if !cfg.keys.built {
		cfg.keys = newKeys(*cfg, c, reg)
	}
	return cfg.keys
}

// flattenLimits projects l onto the limits flattening can consume: the
// ε-NFA substitution gates nfa-states, its determinization gates
// dfa-states, and the nested behavior compiles gate dfa-states and
// regex-size. Search-node limits only bound the searches that later
// run over the flattened automaton, never the automaton itself, so
// they are excluded from the StageFlatten key — two requests differing
// only in MaxSearchNodes share one flattened automaton.
func flattenLimits(l budget.Limits) budget.Limits {
	l.MaxSearchNodes = 0
	return l
}

// PeekReport returns a clone of c's memoized whole-class report when
// the report stage is already warm: ok is false when the class is
// uncached, unkeyable, still being built, or cached as an error — the
// caller then takes the normal CheckContext path, passing it keys
// (WithKeys; zero without a cache). Unlike the peek in CheckContext, a
// hit is quiet — it does not annotate any span — so
// Module.CheckAllContext can peek every class and report one
// aggregated cache.hit.report count instead of one per class
// (EXPERIMENTS.md P3).
func PeekReport(ctx context.Context, c *model.Class, reg Registry, opts ...Option) (_ *Report, keys Keys, ok bool) {
	cfg := buildConfig(opts)
	cfg.ctx = ctx // the budget carried by ctx is part of the report key
	if cfg.cache == nil {
		return nil, keys, false
	}
	keys = cfg.keysFor(c, reg)
	if !keys.ok {
		return nil, keys, false
	}
	v, cerr, hit := cfg.cache.PeekQuiet(pipeline.StageReport, keys.report)
	if !hit || cerr != nil {
		return nil, keys, false
	}
	r, ok := v.(*Report)
	if !ok || r == nil {
		return nil, keys, false
	}
	return r.Clone(), keys, true
}

// specDFA returns the class's protocol automaton, memoized under
// StageSpec. Cached automata are shared read-only. The key is the
// protocol fingerprint — SpecDFA reads nothing but the protocol
// surface, so a body-only edit re-uses the cached automaton. Must stay
// consistent with Class.specDFA in the root package (same stage, same
// key scheme, shared entries).
func (cfg config) specDFA(c *model.Class, prefix string) (*automata.DFA, error) {
	return pipeline.MemoCtx(cfg.ctx, cfg.cache, pipeline.StageSpec,
		pipeline.SpecKey(c.ProtocolFingerprint(), prefix),
		func(context.Context) (*automata.DFA, error) { return c.SpecDFA(prefix) })
}

// behaviorDFA compiles the minimal DFA of the simplified behavior of a
// method body, memoized per stage (inference, then compilation), under
// cfg.ctx's resource budget.
func (cfg config) behaviorDFA(p ir.Program) (*automata.DFA, error) {
	return cfg.cache.BehaviorDFA(cfg.ctx, p)
}

// minimalDFA compiles one regular expression, memoized by its
// canonical key, under cfg.ctx's resource budget.
func (cfg config) minimalDFA(r regex.Regex) (*automata.DFA, error) {
	return cfg.cache.MinimalDFA(cfg.ctx, r)
}

// flattened builds — or retrieves — the DFA of the composite's
// flattened behavior over its subsystem alphabet (subsystemAlphabet),
// memoized under StageFlatten. The cache keeps only the DFA, which is
// immutable and shared read-only across workers; the singleflight in
// the cache guarantees two workers never run the flatten substitution
// or the subset construction for the same class concurrently. The
// ε-automaton is returned too when this call built it, and is nil after
// a hit: only a usage counterexample needs it, and checkUsage rebuilds
// it then (flattenClass).
func flattened(cfg config, c *model.Class, reg Registry) (flat *flatAutomaton, dfa *automata.DFA, err error) {
	build := func(ctx context.Context) (*automata.DFA, error) {
		// The span-carrying ctx from the memo layer replaces cfg.ctx so
		// nested stage builds parent under the flatten span.
		cfg := cfg
		cfg.ctx = ctx
		if flat, err = flattenClass(cfg, c, reg); err != nil {
			return nil, err
		}
		return flat.toDFA(cfg.ctx)
	}
	if cfg.cache != nil {
		if keys := cfg.keysFor(c, reg); keys.ok {
			dfa, err = pipeline.MemoCtx(cfg.ctx, cfg.cache, pipeline.StageFlatten, keys.flatten, build)
			return flat, dfa, err
		}
	}
	dfa, err = build(cfg.ctx)
	return flat, dfa, err
}

// flattenClass builds the flat ε-automaton of the composite over its
// subsystem alphabet.
func flattenClass(cfg config, c *model.Class, reg Registry) (*flatAutomaton, error) {
	alphabet, err := subsystemAlphabet(c, reg)
	if err != nil {
		return nil, err
	}
	return flattenWith(cfg, c, alphabet)
}
