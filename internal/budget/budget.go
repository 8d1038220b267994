// Package budget makes verification resource consumption explicit and
// enforceable. Corollary 1 guarantees inferred behavior is regular, but
// regular does not mean small: subset construction, product
// construction, LTLf progression, and state elimination are all
// worst-case exponential, so a hostile (or merely unlucky) class can
// pin a worker and grow memory without bound. This package bounds that
// work with per-request limits that ride the context.Context already
// threaded through the pipeline:
//
//   - Limits caps the states, regex nodes, and search nodes any single
//     construction may allocate; the zero value means unlimited.
//   - With/From attach limits to and read limits from a context, so
//     budgets flow through the memoizing pipeline the same way spans do.
//   - Gate is the amortized enforcement point hot loops call once per
//     unit of work: it trips a structured *Err when the counter passes
//     the limit and polls ctx cancellation every pollEvery ticks, so a
//     fired deadline actually stops the construction instead of merely
//     timing out the response.
//
// A tripped gate annotates the active obs span, so trace exports show
// exactly which construction a request died in.
package budget

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"github.com/shelley-go/shelley/internal/obs"
)

// Limits bounds the resources one verification request may consume.
// The zero value means unlimited (the library default: behavior is
// byte-identical to the pre-budget pipeline).
type Limits struct {
	// MaxNFAStates caps the states of any single NFA construction
	// (Thompson fragments, flatten substitution).
	MaxNFAStates int

	// MaxDFAStates caps the states of any single DFA construction:
	// subset construction, Brzozowski derivatives, product
	// construction, and LTLf progression.
	MaxDFAStates int

	// MaxRegexSize caps the node count of any regex built by state
	// elimination or produced as a derivative.
	MaxRegexSize int

	// MaxSearchNodes caps the (state-pair) nodes visited by
	// counterexample searches (usage and claim BFS products).
	MaxSearchNodes int
}

// Default returns the production limits shelleyd ships with: generous
// enough for every legitimate class in the corpus, small enough that a
// blowup dies in bounded time and memory.
func Default() Limits {
	return Limits{
		MaxNFAStates:   500_000,
		MaxDFAStates:   100_000,
		MaxRegexSize:   500_000,
		MaxSearchNodes: 2_000_000,
	}
}

// Unlimited reports whether l imposes no limits at all.
func (l Limits) Unlimited() bool { return l == Limits{} }

// AppendKey appends a short canonical encoding of the limits to b, for
// use in content-addressed cache keys, so a result computed under one
// budget is never served to a request with another: a build that failed
// with ErrBudgetExceeded is cached deterministically for its budget, and
// a retry with a larger budget hashes to a fresh key and can succeed.
// Unlimited limits append nothing (pre-budget keys are unchanged).
// Cache layers key each stage by the projection of the limits onto the
// resources that stage can consume (zeroing the rest first), so entries
// don't fragment on limits that cannot affect them — e.g. two requests
// differing only in MaxSearchNodes share DFAs.
func (l Limits) AppendKey(b []byte) []byte {
	if l.Unlimited() {
		return b
	}
	b = strconv.AppendInt(append(b, 'b'), int64(l.MaxNFAStates), 10)
	b = strconv.AppendInt(append(b, ','), int64(l.MaxDFAStates), 10)
	b = strconv.AppendInt(append(b, ','), int64(l.MaxRegexSize), 10)
	return strconv.AppendInt(append(b, ','), int64(l.MaxSearchNodes), 10)
}

type ctxKey struct{}

// With returns a context carrying the limits; every budget-aware
// construction downstream reads them with From.
func With(ctx context.Context, l Limits) context.Context {
	return context.WithValue(ctx, ctxKey{}, l)
}

// From returns the limits carried by ctx, or the zero (unlimited)
// Limits when none are attached.
func From(ctx context.Context) Limits {
	if l, ok := ctx.Value(ctxKey{}).(Limits); ok {
		return l
	}
	return Limits{}
}

// ErrExceeded is the sentinel matched by errors.Is for every *Err, so
// callers can classify budget exhaustion without knowing which
// resource tripped.
var ErrExceeded = errors.New("resource budget exceeded")

// ErrCanceled is the sentinel matched by errors.Is for every
// *CancelErr, alongside the underlying context cause.
var ErrCanceled = errors.New("verification canceled")

// Err is a structured budget-exceeded report: which resource, which
// construction, and the limit that tripped. It satisfies
// errors.Is(err, ErrExceeded).
type Err struct {
	// Resource names what ran out: "nfa-states", "dfa-states",
	// "regex-size", or "search-nodes".
	Resource string

	// Op names the construction that tripped, e.g. "determinize",
	// "to-regex", "ltlf-compile", the check's product searches
	// "usage-search", "usage-violations" and "claim-search", or
	// "product" for a drift or equivalence search.
	Op string

	// Limit is the configured bound that was exceeded.
	Limit int
}

func (e *Err) Error() string {
	return fmt.Sprintf("budget: %s limit %d exceeded during %s", e.Resource, e.Limit, e.Op)
}

// Is matches the ErrExceeded sentinel.
func (e *Err) Is(target error) bool { return target == ErrExceeded }

// CancelErr reports which construction a context cancellation (deadline
// or explicit cancel) interrupted. It satisfies errors.Is against
// ErrCanceled and against the underlying context error
// (context.Canceled / context.DeadlineExceeded) via Unwrap.
type CancelErr struct {
	// Op names the construction that observed the cancellation.
	Op string

	// Cause is the context error that fired.
	Cause error
}

func (e *CancelErr) Error() string {
	return fmt.Sprintf("budget: %s canceled: %v", e.Op, e.Cause)
}

// Unwrap exposes the context error for errors.Is.
func (e *CancelErr) Unwrap() error { return e.Cause }

// Is matches the ErrCanceled sentinel.
func (e *CancelErr) Is(target error) bool { return target == ErrCanceled }

// pollEvery amortizes ctx.Err() lookups: hot loops tick once per state
// or node, and a context read per tick would dominate small builds.
const pollEvery = 256

// Gate enforces one resource limit inside one construction. Create one
// per algorithm invocation with NFAGate/DFAGate/SearchGate (or NewGate
// for a custom bound) and call Tick once per unit of work; the zero
// limit disables the counter but cancellation is still polled.
type Gate struct {
	ctx      context.Context
	op       string
	resource string
	limit    int
	n        int
}

// NewGate returns a gate over an explicit limit. op and resource label
// the structured error; limit <= 0 counts nothing (cancellation only).
func NewGate(ctx context.Context, op, resource string, limit int) *Gate {
	return &Gate{ctx: ctx, op: op, resource: resource, limit: limit}
}

// NFAGate gates NFA state allocation against ctx's MaxNFAStates.
func NFAGate(ctx context.Context, op string) *Gate {
	return NewGate(ctx, op, "nfa-states", From(ctx).MaxNFAStates)
}

// DFAGate gates DFA state allocation against ctx's MaxDFAStates.
func DFAGate(ctx context.Context, op string) *Gate {
	return NewGate(ctx, op, "dfa-states", From(ctx).MaxDFAStates)
}

// SearchGate gates search-node visits against ctx's MaxSearchNodes.
func SearchGate(ctx context.Context, op string) *Gate {
	return NewGate(ctx, op, "search-nodes", From(ctx).MaxSearchNodes)
}

// Tick accounts one unit of work. It returns a *Err once the counter
// passes the limit, a *CancelErr once the context is done (polled every
// pollEvery ticks, and on the first), and nil otherwise. Both error
// paths annotate the active obs span so trace exports show where the
// request died.
func (g *Gate) Tick() error {
	g.n++
	if g.limit > 0 && g.n > g.limit {
		return Exceeded(g.ctx, g.op, g.resource, g.limit)
	}
	if g.n%pollEvery == 1 {
		if cause := g.ctx.Err(); cause != nil {
			obs.SpanFrom(g.ctx).SetAttr(obs.String("budget.canceled", g.op))
			return &CancelErr{Op: g.op, Cause: cause}
		}
	}
	return nil
}

// N returns the units of work accounted so far.
func (g *Gate) N() int { return g.n }

// Exceeded builds the structured budget error and annotates ctx's
// active span the way a tripped Gate does. Constructions that enforce a
// limit without counting (e.g. the regex-size check in state
// elimination) call it directly.
func Exceeded(ctx context.Context, op, resource string, limit int) error {
	obs.SpanFrom(ctx).SetAttr(
		obs.String("budget.exceeded", resource),
		obs.String("budget.op", op),
		obs.Int("budget.limit", limit))
	return &Err{Resource: resource, Op: op, Limit: limit}
}
