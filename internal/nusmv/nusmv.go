// Package nusmv exports Shelley models as NuSMV modules — the backend
// path the paper's implementation uses ("Shelley delegates the actual
// model checking to NuSMV, by implementing a translation from a
// nondeterministic finite automaton into a NuSMV model", §5).
//
// The encoding turns the finite-trace (regular) language into an
// ω-regular one in the standard way (De Giacomo & Vardi): a fresh
// end-of-trace event sends the machine into an absorbing `end` state,
// and LTLf claims are rewritten into LTL over an `alive` proposition
// so that finite-trace semantics is preserved on the infinite
// continuations. The generated text is deterministic, so exports can be
// golden-tested and diffed.
package nusmv

import (
	"fmt"
	"strings"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/ltlf"
)

// EndEvent is the synthetic event that closes a finite trace in the
// ω-regular encoding.
const EndEvent = "_end"

// Export renders a NuSMV module for the automaton and claims. The DFA
// is the system's behavior (e.g. a class's SpecDFA or a composite's
// flattened behavior automaton); each claim becomes one LTLSPEC whose
// validity on the NuSMV model coincides with the LTLf validity on the
// automaton's finite traces.
func Export(name string, d *automata.DFA, claims []ltlf.Formula) string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- NuSMV export of the Shelley model %q.\n", name)
	b.WriteString("-- Finite traces are encoded as infinite ones closed by the _end event\n")
	b.WriteString("-- (the standard LTLf-to-LTL reduction); `dead` traps invalid events.\n")
	b.WriteString("MODULE main\n")

	// Event and state enumerations, deterministic order.
	events := make([]string, 0, len(d.Alphabet())+1)
	for _, sym := range d.Alphabet() {
		events = append(events, eventID(sym))
	}
	events = append(events, eventID(EndEvent))

	states := make([]string, 0, d.NumStates()+2)
	for s := 0; s < d.NumStates(); s++ {
		states = append(states, stateID(s))
	}
	states = append(states, "end", "dead")

	b.WriteString("VAR\n")
	fmt.Fprintf(&b, "  event : {%s};\n", strings.Join(events, ", "))
	fmt.Fprintf(&b, "  state : {%s};\n", strings.Join(states, ", "))

	b.WriteString("ASSIGN\n")
	fmt.Fprintf(&b, "  init(state) := %s;\n", stateID(d.Start()))
	b.WriteString("  next(state) := case\n")
	for s := 0; s < d.NumStates(); s++ {
		for _, sym := range d.Alphabet() {
			if t := d.Target(s, sym); t >= 0 {
				fmt.Fprintf(&b, "    state = %s & event = %s : %s;\n",
					stateID(s), eventID(sym), stateID(t))
			}
		}
		if d.Accepting(s) {
			fmt.Fprintf(&b, "    state = %s & event = %s : end;\n",
				stateID(s), eventID(EndEvent))
		}
	}
	b.WriteString("    state = end : end;\n")
	b.WriteString("    TRUE : dead;\n")
	b.WriteString("  esac;\n")

	// The automaton's language is non-empty iff `end` is reachable;
	// export that as a sanity spec.
	b.WriteString("\n-- Sanity: some complete usage exists.\n")
	b.WriteString("SPEC EF state = end\n")

	// Claims: check only along valid, completed traces.
	for i, claim := range claims {
		fmt.Fprintf(&b, "\n-- Claim %d: %s\n", i+1, claim.String())
		fmt.Fprintf(&b, "LTLSPEC (F state = end) -> (%s)\n", ltlfToLTL(claim))
	}
	return b.String()
}

// stateID names automaton states.
func stateID(s int) string { return fmt.Sprintf("s%d", s) }

// eventID sanitizes an event name ("a.test" → "e_a_test") for NuSMV's
// identifier syntax.
func eventID(sym string) string {
	var b strings.Builder
	b.WriteString("e_")
	for _, r := range sym {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// ltlfToLTL rewrites an LTLf formula into LTL text over the encoding:
// `alive` is "state != end & state != dead"; atoms become
// alive & event = e; the temporal operators are relativized to alive
// following the standard translation:
//
//	t(a)      = alive & event = e_a
//	t(X φ)    = X (alive & t(φ))         strong next
//	t(N φ)    = X (!alive | t(φ))        weak next
//	t(G φ)    = (alive & t(φ)) U !alive  -- φ holds at every live instant
//	t(F φ)    = F (alive & t(φ))
//	t(φ U ψ)  = (alive & t(φ)) U (alive & t(ψ))
//	t(φ W ψ)  = t(φ U ψ) | t(G φ)
//	t(φ R ψ)  = t(ψ) holds up to and including the first t(φ), within life
func ltlfToLTL(f ltlf.Formula) string {
	const alive = "(state != end & state != dead)"
	var tr func(ltlf.Formula) string
	tr = func(f ltlf.Formula) string {
		switch f := f.(type) {
		case ltlf.Tru:
			return "TRUE"
		case ltlf.Fls:
			return "FALSE"
		case ltlf.Atom:
			return fmt.Sprintf("(%s & event = %s)", alive, eventID(f.Name))
		case ltlf.Not:
			return "!" + tr(f.X)
		case ltlf.And:
			parts := make([]string, len(f.Xs))
			for i, x := range f.Xs {
				parts[i] = tr(x)
			}
			return "(" + strings.Join(parts, " & ") + ")"
		case ltlf.Or:
			parts := make([]string, len(f.Xs))
			for i, x := range f.Xs {
				parts[i] = tr(x)
			}
			return "(" + strings.Join(parts, " | ") + ")"
		case ltlf.Implies:
			return "(" + tr(f.L) + " -> " + tr(f.R) + ")"
		case ltlf.Next:
			return fmt.Sprintf("(X (%s & %s))", alive, tr(f.X))
		case ltlf.WeakNext:
			return fmt.Sprintf("(X (!%s | %s))", alive, tr(f.X))
		case ltlf.Globally:
			return fmt.Sprintf("((%s -> %s) U !%s | G (%s -> %s))",
				alive, tr(f.X), alive, alive, tr(f.X))
		case ltlf.Finally:
			return fmt.Sprintf("(F (%s & %s))", alive, tr(f.X))
		case ltlf.Until:
			return fmt.Sprintf("((%s & %s) U (%s & %s))", alive, tr(f.L), alive, tr(f.R))
		case ltlf.WeakUntil:
			until := fmt.Sprintf("((%s & %s) U (%s & %s))", alive, tr(f.L), alive, tr(f.R))
			globally := fmt.Sprintf("((%s -> %s) U !%s | G (%s -> %s))",
				alive, tr(f.L), alive, alive, tr(f.L))
			return "(" + until + " | " + globally + ")"
		case ltlf.Release:
			// φ R ψ = ψ W (ψ & φ); reuse the W translation.
			return tr(ltlf.WeakUntilOf(f.R, ltlf.AndOf(f.R, f.L)))
		default:
			return "TRUE"
		}
	}
	return tr(f)
}
