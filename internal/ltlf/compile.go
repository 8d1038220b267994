package ltlf

import (
	"context"
	"slices"
	"sort"
	"strings"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
)

// This file compiles an LTLf formula into a DFA over a given event
// alphabet, by formula progression:
//
//   - the formula is first put in negation normal form (NNF), pushing
//     negations down to atoms using the dualities ¬Xφ = N¬φ,
//     ¬(φ U ψ) = ¬φ R ¬ψ, ¬Gφ = F¬φ, etc.;
//   - a DFA state is a progression residue, canonicalized as a DNF over
//     "literals" (atoms, negated atoms, and temporal subformulas), so
//     the state space is finite — literals are drawn from the finite
//     closure of the input formula;
//   - the transition on event σ is the progression δ(φ, σ): the
//     condition the remaining suffix must satisfy;
//   - a state accepts iff its formula holds on the empty trace.
//
// Compile(¬φ) intersected with a system's behavior automaton yields the
// claim-violation witnesses reported by the checker.

// ToNNF returns an equivalent formula with negation applied only to
// atoms, and with Implies and WeakUntil eliminated.
func ToNNF(f Formula) Formula {
	return nnf(f, false)
}

func nnf(f Formula, negate bool) Formula {
	switch f := f.(type) {
	case Tru:
		if negate {
			return Fls{}
		}
		return f
	case Fls:
		if negate {
			return Tru{}
		}
		return f
	case nonempty:
		if negate {
			// ¬nonempty = "trace is empty" = N false (weak next of
			// false holds only when no next instant exists... on the
			// empty trace it holds; on any non-empty trace, instant 0
			// exists but N false at 0 means no instant 1 — not the
			// same). Express emptiness as ¬(F true) instead.
			return nnf(FinallyOf(True()), true)
		}
		return f
	case Atom:
		if negate {
			return Not{X: f}
		}
		return f
	case Not:
		return nnf(f.X, !negate)
	case And:
		parts := make([]Formula, len(f.Xs))
		for i, x := range f.Xs {
			parts[i] = nnf(x, negate)
		}
		if negate {
			return OrOf(parts...)
		}
		return AndOf(parts...)
	case Or:
		parts := make([]Formula, len(f.Xs))
		for i, x := range f.Xs {
			parts[i] = nnf(x, negate)
		}
		if negate {
			return AndOf(parts...)
		}
		return OrOf(parts...)
	case Implies:
		// l -> r ≡ ¬l ∨ r.
		if negate {
			return AndOf(nnf(f.L, false), nnf(f.R, true))
		}
		return OrOf(nnf(f.L, true), nnf(f.R, false))
	case Next:
		if negate {
			return WeakNext{X: nnf(f.X, true)}
		}
		return Next{X: nnf(f.X, false)}
	case WeakNext:
		if negate {
			return Next{X: nnf(f.X, true)}
		}
		return WeakNext{X: nnf(f.X, false)}
	case Until:
		if negate {
			return Release{L: nnf(f.L, true), R: nnf(f.R, true)}
		}
		return Until{L: nnf(f.L, false), R: nnf(f.R, false)}
	case Release:
		if negate {
			return Until{L: nnf(f.L, true), R: nnf(f.R, true)}
		}
		return Release{L: nnf(f.L, false), R: nnf(f.R, false)}
	case WeakUntil:
		// l W r ≡ (l U r) ∨ G l;  ¬(l W r) ≡ (¬r) U (¬l ∧ ¬r).
		if negate {
			nl, nr := nnf(f.L, true), nnf(f.R, true)
			return Until{L: nr, R: AndOf(nl, nr)}
		}
		return OrOf(
			Until{L: nnf(f.L, false), R: nnf(f.R, false)},
			Globally{X: nnf(f.L, false)},
		)
	case Globally:
		if negate {
			return Finally{X: nnf(f.X, true)}
		}
		return Globally{X: nnf(f.X, false)}
	case Finally:
		if negate {
			return Globally{X: nnf(f.X, true)}
		}
		return Finally{X: nnf(f.X, false)}
	}
	return f
}

// nullable reports whether the empty trace satisfies the NNF formula.
func nullable(f Formula) bool {
	switch f := f.(type) {
	case Tru:
		return true
	case Fls, Atom, nonempty:
		return false
	case Not: // NNF: only over atoms
		return true // empty trace has no events, so ¬atom holds
	case And:
		for _, x := range f.Xs {
			if !nullable(x) {
				return false
			}
		}
		return true
	case Or:
		for _, x := range f.Xs {
			if nullable(x) {
				return true
			}
		}
		return false
	case Next:
		return false
	case WeakNext, Globally, Release:
		return true
	case Until, Finally:
		return false
	case WeakUntil:
		return true
	}
	return false
}

// progress computes δ(f, σ): the NNF condition on the suffix after
// consuming event σ at a (necessarily existing) first instant.
func progress(f Formula, sigma string) Formula {
	switch f := f.(type) {
	case Tru, Fls:
		return f
	case nonempty:
		return Tru{}
	case Atom:
		if f.Name == sigma {
			return Tru{}
		}
		return Fls{}
	case Not: // NNF: f.X is an atom or nonempty
		if a, ok := f.X.(Atom); ok {
			if a.Name == sigma {
				return Fls{}
			}
			return Tru{}
		}
		if _, ok := f.X.(nonempty); ok {
			return Fls{}
		}
		// Non-NNF input; progress the general negation soundly.
		return nnf(progress(nnf(f.X, false), sigma), true)
	case And:
		parts := make([]Formula, len(f.Xs))
		for i, x := range f.Xs {
			parts[i] = progress(x, sigma)
		}
		return AndOf(parts...)
	case Or:
		parts := make([]Formula, len(f.Xs))
		for i, x := range f.Xs {
			parts[i] = progress(x, sigma)
		}
		return OrOf(parts...)
	case Next:
		// The suffix must be non-empty and satisfy f.X at its start.
		return AndOf(nonempty{}, f.X)
	case WeakNext:
		// Either the suffix is empty, or it satisfies f.X. Emptiness is
		// expressible positively as G false (it holds exactly on ε).
		return OrOf(f.X, Globally{X: Fls{}})
	case Until:
		// f ≡ R ∨ (L ∧ X f); on the empty suffix the residue f itself
		// is non-nullable, which encodes the strong-next requirement.
		return OrOf(progress(f.R, sigma), AndOf(progress(f.L, sigma), f))
	case Release:
		// f ≡ R2 ∧ (L ∨ N f); f is nullable, encoding the weak next.
		return AndOf(progress(f.R, sigma), OrOf(progress(f.L, sigma), f))
	case WeakUntil:
		// f ≡ R ∨ (L ∧ N f); f is nullable.
		return OrOf(progress(f.R, sigma), AndOf(progress(f.L, sigma), f))
	case Globally:
		return AndOf(progress(f.X, sigma), f)
	case Finally:
		return OrOf(progress(f.X, sigma), f)
	}
	return Fls{}
}

// canonical produces a canonical key for a progression residue by
// flattening it to DNF over literal keys, with contradiction and
// subsumption pruning. Literals are atoms, negated atoms, and temporal
// subformulas, all drawn from the finite closure of the original
// formula, so the set of canonical states is finite.
func canonical(f Formula) string {
	key, _ := canonicalBounded(f, 0)
	return key
}

// canonicalBounded is canonical with a cap on the number of DNF clauses
// any intermediate flattening may produce (0 = unlimited). Flattening a
// conjunction of k disjunctions multiplies clause counts, so a hostile
// claim formula can make a single canonicalization exponential even
// though the final state space would be small; the cap turns that into
// a reported budget trip. The second result is false when the cap was
// hit (the returned key is then meaningless).
func canonicalBounded(f Formula, maxClauses int) (string, bool) {
	clauses, ok := dnfBounded(f, maxClauses)
	if !ok {
		return "", false
	}
	if len(clauses) == 0 {
		return "<false>", true
	}
	keys := make([]string, 0, len(clauses))
	for _, c := range clauses {
		if len(c) == 0 {
			return "<true>", true // a true clause absorbs the whole DNF
		}
		lits := make([]string, 0, len(c))
		for k := range c {
			lits = append(lits, k)
		}
		sort.Strings(lits)
		keys = append(keys, strings.Join(lits, "&"))
	}
	sort.Strings(keys)
	return strings.Join(keys, " | "), true
}

// dnfBounded flattens the formula into a set of clauses; each clause
// maps literal keys to literal formulas. An empty clause list means
// false; a single empty clause means true. With maxClauses > 0 it bails
// out with ok=false as soon as any intermediate clause set grows past
// maxClauses, BEFORE subsumption pruning, so the exponential
// cross-product of a wide And-of-Ors is cut off at the cap rather than
// materialized and then pruned.
func dnfBounded(f Formula, maxClauses int) (clauses []map[string]Formula, ok bool) {
	switch f := f.(type) {
	case Fls:
		return nil, true
	case Tru:
		return []map[string]Formula{{}}, true
	case And:
		out := []map[string]Formula{{}}
		for _, x := range f.Xs {
			xs, ok := dnfBounded(x, maxClauses)
			if !ok {
				return nil, false
			}
			var merged []map[string]Formula
			for _, a := range out {
				for _, b := range xs {
					if m, ok := mergeClause(a, b); ok {
						merged = append(merged, m)
						if maxClauses > 0 && len(merged) > maxClauses {
							return nil, false
						}
					}
				}
			}
			out = merged
		}
		return pruneSubsumed(out), true
	case Or:
		var out []map[string]Formula
		for _, x := range f.Xs {
			xs, ok := dnfBounded(x, maxClauses)
			if !ok {
				return nil, false
			}
			out = append(out, xs...)
			if maxClauses > 0 && len(out) > maxClauses {
				return nil, false
			}
		}
		return pruneSubsumed(out), true
	default:
		return []map[string]Formula{{key(f): f}}, true
	}
}

func mergeClause(a, b map[string]Formula) (map[string]Formula, bool) {
	m := make(map[string]Formula, len(a)+len(b))
	for k, v := range a {
		m[k] = v
	}
	for k, v := range b {
		// Contradiction pruning for atom literals.
		if _, clash := m[negKey(v, k)]; clash {
			return nil, false
		}
		m[k] = v
	}
	return m, true
}

func pruneSubsumed(cs []map[string]Formula) []map[string]Formula {
	var out []map[string]Formula
	for i, c := range cs {
		subsumed := false
		for j, d := range cs {
			if i == j {
				continue
			}
			if len(d) < len(c) || (len(d) == len(c) && j < i) {
				if clauseSubset(d, c) {
					subsumed = true
					break
				}
			}
		}
		if !subsumed {
			out = append(out, c)
		}
	}
	return out
}

// clauseSubset reports whether every literal of a occurs in b (so a
// subsumes b).
func clauseSubset(a, b map[string]Formula) bool {
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// Compile builds a DFA over the given alphabet accepting exactly the
// traces that satisfy f. Events in the trace outside the alphabet are
// impossible by construction of the callers (the alphabet is the set of
// all subsystem operations). Atoms of f that are not in the alphabet
// can never hold; they are retained (they progress to false on every
// event).
func Compile(f Formula, alphabet []string) *automata.DFA {
	d, _ := CompileCtx(context.Background(), f, alphabet)
	return d
}

// CompileCtx is Compile bounded by the context's resource budget:
// MaxDFAStates caps the progression state count, MaxRegexSize caps the
// DNF clause count of any single canonicalization (the two blowup axes
// of formula progression), and cancellation is observed as states are
// added. The final minimization runs under the same context.
// Progression takes the events in the order alphabet lists them, which
// decides which budget trips first but not the automaton.
func CompileCtx(ctx context.Context, f Formula, alphabet []string) (*automata.DFA, error) {
	gate := budget.DFAGate(ctx, "ltlf-compile")
	maxClauses := budget.From(ctx).MaxRegexSize

	start := ToNNF(f)
	d := automata.NewDFA(alphabet)
	d.SetAccepting(d.Start(), nullable(start))
	if err := gate.Tick(); err != nil {
		return nil, err
	}

	type state struct {
		id int
		f  Formula
	}
	startKey, ok := canonicalBounded(start, maxClauses)
	if !ok {
		return nil, budget.Exceeded(ctx, "ltlf-compile", "dnf-clauses", maxClauses)
	}
	ids := map[string]int{startKey: d.Start()}
	queue := []state{{id: d.Start(), f: start}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, sigma := range alphabet {
			next := progress(cur.f, sigma)
			key, ok := canonicalBounded(next, maxClauses)
			if !ok {
				return nil, budget.Exceeded(ctx, "ltlf-compile", "dnf-clauses", maxClauses)
			}
			if key == "<false>" {
				continue
			}
			id, ok := ids[key]
			if !ok {
				if err := gate.Tick(); err != nil {
					return nil, err
				}
				id = d.AddState(nullable(next))
				ids[key] = id
				queue = append(queue, state{id: id, f: next})
			}
			_ = d.AddTransition(cur.id, sigma, id)
		}
	}
	return d.MinimizeCtx(ctx)
}

// Other is the minterm symbol that stands for every event a formula
// does not name (Minterms). It is no identifier, so no atom can equal
// it.
const Other = "<other>"

// Minterms returns a smaller alphabet that a formula f with the given
// atoms (Atoms(f), sorted) cannot tell from alphabet: progression only
// compares events with the atoms f names, so every other event moves it
// exactly as Other does. The minterms are the atoms of f that occur in
// alphabet, plus Other when some event of alphabet is no atom of f, in
// the order of their first occurrence in alphabet (an event's minterm
// is class(event)). Compiling f over them meets the residues that
// compiling over alphabet meets, in the same order, so the two compiles
// have equal state counts and trip the same budget; relabeling the
// minterm DFA with class gives the other DFA.
func Minterms(atoms, alphabet []string) (minterms []string, class func(event string) string) {
	class = func(event string) string {
		if _, ok := slices.BinarySearch(atoms, event); ok {
			return event
		}
		return Other
	}
	if slices.Contains(alphabet, Other) {
		return alphabet, func(event string) string { return event }
	}
	seenOther := false
	for _, event := range alphabet {
		if m := class(event); m != Other {
			minterms = append(minterms, m)
		} else if !seenOther {
			seenOther = true
			minterms = append(minterms, Other)
		}
	}
	return minterms, class
}

// CompileNegation builds a DFA accepting exactly the traces that VIOLATE
// f; intersecting it with a system's behavior automaton yields
// counterexample witnesses.
func CompileNegation(f Formula, alphabet []string) *automata.DFA {
	return Compile(NotOf(f), alphabet)
}

// CompileNegationCtx is CompileNegation under the context's budget and
// cancellation; it is what the memoizing pipeline calls for claim
// checking, so every hostile claim formula in a served request is
// bounded.
func CompileNegationCtx(ctx context.Context, f Formula, alphabet []string) (*automata.DFA, error) {
	return CompileCtx(ctx, NotOf(f), alphabet)
}
