package check

import (
	"fmt"
	"slices"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/ltlf"
	"github.com/shelley-go/shelley/internal/model"
)

// automataDFA shortens the claim checker's signatures.
type automataDFA = automata.DFA

// checkClaims verifies every @claim formula against the complete
// flattened traces of the composite class. A violated claim is reported
// with the paper's message:
//
//	Error in specification: FAIL TO MEET REQUIREMENT
//	Formula: (!a.open) W b.open
//	Counter example: a.test, a.open, b.test, b.open, a.close, b.close
func checkClaims(cfg config, c *model.Class, reg Registry, report *Report) error {
	if len(c.Claims) == 0 {
		return nil
	}
	// Composite claims speak about subsystem operations and are checked
	// against the flattened behavior; base-class claims speak about the
	// class's own operations and are checked against its protocol
	// automaton directly.
	var flatDFA *automataDFA
	var err error
	if len(c.SubsystemNames) > 0 {
		_, flatDFA, err = flattened(cfg, c, reg)
	} else {
		flatDFA, err = cfg.specDFA(c, "")
	}
	if err != nil {
		return err
	}
	alphabet := flatDFA.Alphabet()

	for _, claim := range c.Claims {
		formula, err := ltlf.Parse(claim.Formula)
		if err != nil {
			return fmt.Errorf("check: class %s, claim at %s: %w", c.Name, claim.Pos, err)
		}
		for _, atom := range ltlf.Atoms(formula) {
			if _, ok := slices.BinarySearch(alphabet, atom); !ok {
				report.Diagnostics = append(report.Diagnostics, Diagnostic{
					Kind: KindUnknownClaimAtom,
					Message: fmt.Sprintf(
						"Error in specification: UNKNOWN CLAIM ATOM\nFormula: %s\nAtom %q matches no operation; the claim is vacuous on it",
						claim.Formula, atom),
				})
			}
		}
		violations, err := cfg.cache.ClaimNegation(cfg.ctx, formula, claim.Formula, alphabet)
		if err != nil {
			return err
		}
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
					return err
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
		if !found {
			continue
		}
		report.Diagnostics = append(report.Diagnostics, Diagnostic{
			Kind:           KindClaimFailure,
			Counterexample: witness,
			Message: fmt.Sprintf(
				"Error in specification: FAIL TO MEET REQUIREMENT\nFormula: %s\nCounter example: %s",
				claim.Formula, traceString(witness)),
			Explanation: ltlf.Explain(formula, witness),
		})
	}
	return nil
}
