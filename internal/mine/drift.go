package mine

import (
	"context"

	"github.com/shelley-go/shelley/internal/automata"
)

// Verdicts of the drift detector, ordered from healthy to alarming.
const (
	// VerdictPending: traces have arrived but no mining round has
	// completed for the class yet.
	VerdictPending = "pending"

	// VerdictConformant: the mined language is exactly within the static
	// model and covers it.
	VerdictConformant = "conformant"

	// VerdictUnder: devices stay inside the static model but have not
	// yet exercised all of it (L(mined) ⊊ L(static)). Expected while a
	// fleet warms up; Missing is a shortest unexercised usage.
	VerdictUnder = "under-approximated"

	// VerdictDrift: devices exercise behavior the static model forbids
	// (L(mined) ⊄ L(static)). Counterexample is a shortest offending
	// trace.
	VerdictDrift = "DRIFT"

	// VerdictNoStatic: the class's module is not resident, so there is
	// no static model to diff against; the mined model is still kept.
	VerdictNoStatic = "no-static-model"

	// VerdictError: the last mining round failed (typically a tripped
	// resource budget); Error carries the cause.
	VerdictError = "error"
)

// Report is one class's drift report, served by GET /v1/drift and
// persisted through the artifact store so verdicts survive restarts.
type Report struct {
	ClassFP string `json:"class_fp"`
	Verdict string `json:"verdict"`

	// Counterexample is a shortest trace the fleet executed that the
	// static model rejects (VerdictDrift only).
	Counterexample []string `json:"counterexample,omitempty"`

	// Missing is a shortest static-model usage no device has executed
	// (VerdictUnder only).
	Missing []string `json:"missing,omitempty"`

	MinedStates  int `json:"mined_states,omitempty"`
	StaticStates int `json:"static_states,omitempty"`

	// Corpus statistics at the last mining round.
	Traces  int    `json:"traces"`
	Events  uint64 `json:"events"`
	Devices int    `json:"devices"`
	Shed    uint64 `json:"shed,omitempty"`

	// Learning cost of the last mining round.
	Rounds            int `json:"rounds,omitempty"`
	MembershipQueries int `json:"membership_queries,omitempty"`

	// MinedAtUnix is when the reported model was mined (Unix seconds).
	MinedAtUnix int64 `json:"mined_at_unix,omitempty"`

	// Warm marks a report restored from the store and not yet re-mined
	// in this process.
	Warm bool `json:"warm,omitempty"`

	// Error is the last mining failure (VerdictError).
	Error string `json:"error,omitempty"`
}

// Diff classifies a mined model against the statically inferred one by
// the two language differences. A trace the mined model accepts that
// mentions an event the static model has never heard of (the clearest
// drift there is) lands in the drift direction, since a DFA rejects
// every symbol outside its alphabet. Each difference is one product
// search under the context's resource budget.
//
//	L(mined) \ L(static) ≠ ∅  →  DRIFT, with a shortest witness
//	L(static) \ L(mined) ≠ ∅  →  under-approximated
//	both empty                →  conformant
func Diff(ctx context.Context, mined, static *automata.DFA) (verdict string, counterexample, missing []string, err error) {
	over, drift, err := automata.ShortestDifference(ctx, mined, static)
	if err != nil {
		return "", nil, nil, err
	}
	if drift {
		return VerdictDrift, over, nil, nil
	}
	under, partial, err := automata.ShortestDifference(ctx, static, mined)
	if err != nil {
		return "", nil, nil, err
	}
	if partial {
		return VerdictUnder, nil, under, nil
	}
	return VerdictConformant, nil, nil, nil
}
