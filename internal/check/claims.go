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
		formula, atoms, err := claim.Parse()
		if err != nil {
			return fmt.Errorf("check: class %s, claim at %s: %w", c.Name, claim.Pos, err)
		}
		for _, atom := range atoms {
			if _, ok := slices.BinarySearch(alphabet, atom); !ok {
				report.Diagnostics = append(report.Diagnostics, Diagnostic{
					Kind: KindUnknownClaimAtom,
					Message: fmt.Sprintf(
						"Error in specification: UNKNOWN CLAIM ATOM\nFormula: %s\nAtom %q matches no operation; the claim is vacuous on it",
						claim.Formula, atom),
				})
			}
		}
		violations, err := cfg.cache.ClaimNegationOf(cfg.ctx, formula, atoms, claim.Formula, alphabet)
		if err != nil {
			return err
		}
		ws, err := claimViolation(cfg, flatDFA, violations)
		if err != nil {
			return err
		}
		if len(ws) == 0 {
			continue
		}
		witness := ws[0]
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

// claimViolation returns the shortest complete trace of flat that the
// violation automaton accepts, if there is one. The search runs under
// cfg.ctx's MaxSearchNodes budget and observes cancellation.
func claimViolation(cfg config, flat, violations *automataDFA) ([][]string, error) {
	return flat.Search(flat.Start(), violations.Over(flat.Alphabet(), false),
		func(f, v bool) bool { return f && v }, 1, budget.SearchGate(cfg.ctx, "claim-search"))
}
