package check

import (
	"fmt"
	"slices"
	"strings"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/model"
)

// checkUsage verifies that every complete usage of the composite class
// drives each subsystem according to the subsystem's own protocol. When
// a violation exists, it reports the paper's error message with the
// shortest (alphabet-ordered) counterexample:
//
//	Error in specification: INVALID SUBSYSTEM USAGE
//	Counter example: open_a, a.test, a.open
//	Subsystems errors:
//	  * Valve 'a': test, >open< (not final)
func checkUsage(cfg config, c *model.Class, reg Registry, subs map[string]*model.Class, report *Report) error {
	flat, flatDFA, err := flattened(cfg, c, reg)
	if err != nil {
		return err
	}

	// Specification DFA per subsystem, qualified and completed over its
	// own alphabet.
	specs := make(map[string]*automata.DFA, len(subs))
	for _, name := range c.SubsystemNames {
		spec, err := cfg.specDFA(subs[name], name)
		if err != nil {
			return err
		}
		specs[name] = spec
	}

	// Find, per subsystem, the shortest complete flattened trace whose
	// projection the subsystem's spec rejects; then report the overall
	// shortest (ties broken by subsystem declaration order).
	var best []string
	found := false
	for _, name := range c.SubsystemNames {
		ws, err := badUsages(cfg, "usage-search", flatDFA, specs[name], 1)
		if err != nil {
			return err
		}
		if len(ws) > 0 && (!found || len(ws[0]) < len(best)) {
			best = ws[0]
			found = true
		}
	}
	if !found {
		return nil
	}

	// Annotate the trace with operation boundaries. After a flatten hit
	// the ε-automaton is rebuilt: flattening is deterministic, and the
	// hit was built under the same flatten limits, so no budget trips
	// on the rebuild.
	if flat == nil {
		if flat, err = flattenClass(cfg, c, reg); err != nil {
			return err
		}
	}
	events, err := flat.annotate(best)
	if err != nil {
		return err
	}
	var rendered []string
	for _, e := range events {
		if e.op != "" {
			rendered = append(rendered, e.op)
		} else {
			rendered = append(rendered, e.sym)
		}
	}

	// Per-subsystem error lines for this trace.
	var lines []string
	for _, name := range c.SubsystemNames {
		line, bad := subsystemErrorLine(c, name, specs[name], best)
		if bad {
			lines = append(lines, line)
		}
	}

	report.Diagnostics = append(report.Diagnostics, Diagnostic{
		Kind:           KindInvalidSubsystemUsage,
		Counterexample: best,
		Message: fmt.Sprintf(
			"Error in specification: INVALID SUBSYSTEM USAGE\nCounter example: %s\nSubsystems errors:\n%s",
			traceString(rendered), strings.Join(lines, "\n")),
	})
	return nil
}

// subsystemErrorLine renders one "  * Valve 'a': test, >open< (not
// final)" line by replaying the projection of the trace on the
// subsystem's spec. The second result reports whether the subsystem's
// usage in the trace is actually invalid.
func subsystemErrorLine(c *model.Class, name string, spec *automata.DFA, trace []string) (string, bool) {
	prefix := name + "."
	var shown []string
	state := spec.Start()
	bad := false
	for _, sym := range trace {
		if _, mine := slices.BinarySearch(spec.Alphabet(), sym); !mine {
			continue
		}
		unqualified := strings.TrimPrefix(sym, prefix)
		if state >= 0 {
			state = spec.Target(state, sym)
		}
		if state < 0 && !bad {
			// This step was not allowed by the protocol at all.
			shown = append(shown, ">"+unqualified+"< (invalid)")
			bad = true
			continue
		}
		shown = append(shown, unqualified)
	}
	if !bad {
		if state >= 0 && spec.Accepting(state) {
			return "", false
		}
		// The usage stops at a non-final operation: highlight the last
		// step the way the paper does. An empty projection cannot be
		// rejected (specs accept the empty usage), so shown is non-empty
		// here; guard anyway to stay total.
		if len(shown) == 0 {
			return "", false
		}
		last := shown[len(shown)-1]
		shown[len(shown)-1] = ">" + last + "< (not final)"
	}
	return fmt.Sprintf("  * %s '%s': %s", c.SubsystemTypes[name], name, strings.Join(shown, ", ")), true
}
