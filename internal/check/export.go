package check

import (
	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/model"
	"github.com/shelley-go/shelley/internal/pipeline"
)

// FlattenedDFA exposes the composite class's behavior automaton over
// subsystem operations — the object the checker verifies claims
// against — for external backends (the NuSMV exporter) and tooling. For
// a base class (no subsystems) it returns the class's own protocol
// automaton.
//
// Results served from a pipeline cache are cloned: callers own the
// returned automaton and may hold it indefinitely without aliasing the
// shared cache entry.
func FlattenedDFA(c *model.Class, reg Registry, opts ...Option) (*automata.DFA, error) {
	cfg := buildConfig(opts)
	if len(c.SubsystemNames) == 0 {
		spec, err := cfg.specDFA(c, "")
		if err != nil {
			return nil, err
		}
		if cfg.cache != nil {
			spec = spec.Clone()
		}
		return spec, nil
	}
	if cfg.cache != nil {
		if keys := cfg.keysFor(c, reg); keys.ok {
			min, err := pipeline.Memo(cfg.cache, pipeline.StageFlatten, keys.flatten+"|min",
				func() (*automata.DFA, error) {
					_, dfa, err := flattened(cfg, c, reg)
					if err != nil {
						return nil, err
					}
					return dfa.Minimize(), nil
				})
			if err != nil {
				return nil, err
			}
			return min.Clone(), nil
		}
	}
	_, dfa, err := flattened(cfg, c, reg)
	if err != nil {
		return nil, err
	}
	return dfa.Minimize(), nil
}
