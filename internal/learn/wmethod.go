package learn

import (
	"context"
	"fmt"
	"sort"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/regex"
)

// WMethodSuite generates the Chow/Vasilevski W-method conformance test
// suite for the specification automaton: a finite set of traces such
// that any implementation with at most NumStates(spec)+extraStates
// states agrees with the specification on every trace of the suite if
// and only if it implements the same language.
//
// It is the classical bridge from an inferred model back to the device:
// run the suite against an implementation (a simulator instance, or a
// concrete pyexec device) and membership mismatches pinpoint
// non-conformance. The suite is P · Σ^{≤extraStates} · W, where P is a
// transition cover and W a characterization set; everything is built
// with alphabet-ordered BFS, so suites are deterministic.
//
// WMethodSuite runs unbudgeted; suite size is exponential in
// extraStates, so anything that derives extraStates from untrusted
// input should call WMethodSuiteCtx instead.
func WMethodSuite(spec *automata.DFA, extraStates int) [][]string {
	suite, _ := WMethodSuiteCtx(context.Background(), spec, extraStates)
	return suite
}

// WMethodSuiteCtx is WMethodSuite under a context: suite candidates and
// state-pair BFS nodes tick a search gate against the context's
// budget.Limits.MaxSearchNodes, and cancellation is polled along the
// way. Errors match errors.Is against budget.ErrExceeded /
// budget.ErrCanceled. Under a background context with no limits it
// never fails.
func WMethodSuiteCtx(ctx context.Context, spec *automata.DFA, extraStates int) ([][]string, error) {
	gate := budget.SearchGate(ctx, "wmethod-suite")
	total := spec.Complete()
	alphabet := total.Alphabet()

	// State cover: a shortest access string per state.
	access := stateCover(total)

	// Transition cover: the state cover plus every one-step extension.
	var cover [][]string
	for _, p := range access {
		cover = append(cover, p)
		for _, a := range alphabet {
			cover = append(cover, concat(p, []string{a}))
		}
	}

	// Characterization set: suffixes distinguishing every state pair.
	w, err := characterizationSet(total, gate)
	if err != nil {
		return nil, err
	}

	// Middle parts: Σ^0 ... Σ^extraStates.
	middles := [][]string{{}}
	frontier := [][]string{{}}
	for i := 0; i < extraStates; i++ {
		var next [][]string
		for _, m := range frontier {
			for _, a := range alphabet {
				if err := gate.Tick(); err != nil {
					return nil, fmt.Errorf("learn: %w", err)
				}
				next = append(next, concat(m, []string{a}))
			}
		}
		middles = append(middles, next...)
		frontier = next
	}

	// Assemble and deduplicate.
	seen := make(map[string]struct{})
	var suite [][]string
	add := func(t []string) {
		k := traceKey(t)
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		suite = append(suite, t)
	}
	for _, p := range cover {
		for _, m := range middles {
			for _, suffix := range w {
				if err := gate.Tick(); err != nil {
					return nil, fmt.Errorf("learn: %w", err)
				}
				add(concat(concat(p, m), suffix))
			}
		}
	}
	sort.Slice(suite, func(i, j int) bool { return regex.LessTrace(suite[i], suite[j]) })
	return suite, nil
}

// Conformance reports whether the implementation (a membership oracle)
// agrees with the specification on every suite trace; when it does not,
// the first disagreeing trace is returned.
func Conformance(spec *automata.DFA, impl func([]string) bool, suite [][]string) ([]string, bool) {
	for _, t := range suite {
		if impl(t) != spec.Accepts(t) {
			return t, false
		}
	}
	return nil, true
}

// stateCover returns a shortest access string per reachable state of a
// complete DFA, in BFS order from the start state.
func stateCover(d *automata.DFA) [][]string {
	access := make(map[int][]string, d.NumStates())
	access[d.Start()] = []string{}
	queue := []int{d.Start()}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, a := range d.Alphabet() {
			t := d.Target(s, a)
			if t < 0 {
				continue
			}
			if _, seen := access[t]; seen {
				continue
			}
			access[t] = concat(access[s], []string{a})
			queue = append(queue, t)
		}
	}
	states := make([]int, 0, len(access))
	for s := range access {
		states = append(states, s)
	}
	sort.Ints(states)
	out := make([][]string, 0, len(states))
	for _, s := range states {
		out = append(out, access[s])
	}
	return out
}

// characterizationSet returns suffixes that pairwise distinguish every
// pair of distinct-behavior states, found by BFS over state pairs. The
// empty suffix is included when some pair differs in acceptance.
func characterizationSet(d *automata.DFA, gate *budget.Gate) ([][]string, error) {
	n := d.NumStates()
	if n <= 1 {
		return [][]string{{}}, nil
	}
	seen := make(map[string]struct{})
	var w [][]string
	add := func(t []string) {
		k := traceKey(t)
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		w = append(w, t)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			suffix, ok, err := distinguishingSuffix(d, i, j, gate)
			if err != nil {
				return nil, err
			}
			if ok {
				add(suffix)
			}
		}
	}
	if len(w) == 0 {
		w = [][]string{{}}
	}
	return w, nil
}

// distinguishingSuffix finds the shortlex-least suffix on which states i
// and j disagree, or false when they are equivalent. d is total, as
// WMethodSuiteCtx completes it. Every visited state pair ticks the gate.
func distinguishingSuffix(d *automata.DFA, i, j int, gate *budget.Gate) ([]string, bool, error) {
	from := d.Over(d.Alphabet(), false)
	from.Start = j
	w, err := d.Search(i, from, func(a, b bool) bool { return a != b }, 1, gate)
	if err != nil {
		return nil, false, fmt.Errorf("learn: %w", err)
	}
	if len(w) == 0 {
		return nil, false, nil
	}
	return w[0], true, nil
}
