// Package check implements Shelley's verification passes (§2.2 and §3 of
// the paper) on top of the model layer:
//
//   - structural well-formedness of each class (model.Validate);
//   - method invocation analysis: every call on a subsystem must target
//     an operation that the subsystem's class defines;
//   - match exit-point analysis: a `match` over a subsystem call must
//     handle every exit point of the invoked operation;
//   - subsystem usage verification: every complete usage of the
//     composite must use each subsystem according to the subsystem's own
//     protocol — the paper's INVALID SUBSYSTEM USAGE error;
//   - temporal claims: every @claim formula must hold on every complete
//     flattened trace — the paper's FAIL TO MEET REQUIREMENT error.
//
// Counterexample search is breadth-first with a sorted alphabet, so all
// diagnostics are deterministic and shortest-first, and the two error
// messages of §2.2 are reproduced byte for byte.
package check

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/shelley-go/shelley/internal/model"
	"github.com/shelley-go/shelley/internal/obs"
	"github.com/shelley-go/shelley/internal/pipeline"
	"github.com/shelley-go/shelley/internal/regex"
)

// Registry resolves class names to their models, so composite classes
// can find the specifications of their subsystems.
type Registry map[string]*model.Class

// NewRegistry builds a registry from the given classes.
func NewRegistry(classes ...*model.Class) Registry {
	r := make(Registry, len(classes))
	for _, c := range classes {
		r[c.Name] = c
	}
	return r
}

func (r Registry) resolve(c *model.Class, subsystem string) (*model.Class, error) {
	typeName, ok := c.SubsystemTypes[subsystem]
	if !ok {
		return nil, fmt.Errorf("check: class %s has no subsystem %q", c.Name, subsystem)
	}
	sub, ok := r[typeName]
	if !ok {
		return nil, fmt.Errorf("check: class %s for subsystem %q is not in the registry", typeName, subsystem)
	}
	return sub, nil
}

// Kind classifies a diagnostic.
type Kind int

const (
	// KindStructure is a well-formedness problem from model.Validate.
	KindStructure Kind = iota + 1

	// KindUndefinedMethod is a call to an operation the subsystem's
	// class does not define.
	KindUndefinedMethod

	// KindNonExhaustiveMatch is a match statement that does not handle
	// every exit point of the invoked operation.
	KindNonExhaustiveMatch

	// KindUselessCase is a case pattern that matches no exit point of
	// the invoked operation.
	KindUselessCase

	// KindInvalidSubsystemUsage is the §2.2 INVALID SUBSYSTEM USAGE
	// error.
	KindInvalidSubsystemUsage

	// KindClaimFailure is the §2.2 FAIL TO MEET REQUIREMENT error.
	KindClaimFailure

	// KindUnknownClaimAtom is a claim mentioning an event that no
	// subsystem operation can ever produce — almost always a typo, and
	// dangerous because the claim then holds (or fails) vacuously.
	KindUnknownClaimAtom

	// KindHelperUsesSubsystem is an unannotated method that calls a
	// subsystem: such calls are invisible to the protocol analysis
	// (Shelley only verifies annotated operations), so the usage is
	// unchecked — a soundness hole worth surfacing.
	KindHelperUsesSubsystem
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindStructure:
		return "STRUCTURE"
	case KindUndefinedMethod:
		return "UNDEFINED METHOD"
	case KindNonExhaustiveMatch:
		return "NON-EXHAUSTIVE MATCH"
	case KindUselessCase:
		return "USELESS CASE"
	case KindInvalidSubsystemUsage:
		return "INVALID SUBSYSTEM USAGE"
	case KindClaimFailure:
		return "FAIL TO MEET REQUIREMENT"
	case KindUnknownClaimAtom:
		return "UNKNOWN CLAIM ATOM"
	case KindHelperUsesSubsystem:
		return "UNVERIFIED SUBSYSTEM USE"
	default:
		return fmt.Sprintf("KIND(%d)", int(k))
	}
}

// Diagnostic is one verification finding.
type Diagnostic struct {
	Kind Kind

	// Message is the full, paper-formatted error text.
	Message string

	// Counterexample is the witness trace, when the finding has one.
	Counterexample []string

	// Explanation is an optional step-by-step account of the failure
	// (claim failures carry an ltlf.Explain trace walk); it is kept out
	// of Message so the paper-format output stays byte-exact.
	Explanation string
}

// Report is the outcome of checking one class.
type Report struct {
	// Class is the class name.
	Class string

	// Diagnostics are the findings, in pass order (structure,
	// definedness, exhaustiveness, usage, claims).
	Diagnostics []Diagnostic
}

// OK reports whether the class verified without findings.
func (r *Report) OK() bool { return len(r.Diagnostics) == 0 }

// Clone returns a deep copy of the report. The memoization cache hands
// out clones so callers can hold or mutate reports without poisoning
// the shared entry.
func (r *Report) Clone() *Report {
	out := &Report{Class: r.Class, Diagnostics: append([]Diagnostic(nil), r.Diagnostics...)}
	for i := range out.Diagnostics {
		out.Diagnostics[i].Counterexample = append([]string(nil), out.Diagnostics[i].Counterexample...)
	}
	return out
}

// String renders every diagnostic message, separated by blank lines.
func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("class %s: OK", r.Class)
	}
	msgs := make([]string, len(r.Diagnostics))
	for i, d := range r.Diagnostics {
		msgs[i] = d.Message
	}
	return strings.Join(msgs, "\n\n")
}

// Check verifies one class against the registry. Base classes get the
// structural checks only; composite classes additionally get invocation,
// exhaustiveness, usage, and claim analysis. An error return indicates
// the class could not be analyzed at all (e.g. a subsystem's class is
// missing from the registry); verification findings are reported in the
// Report instead.
func Check(c *model.Class, reg Registry, opts ...Option) (*Report, error) {
	return CheckContext(context.Background(), c, reg, opts...)
}

// CheckContext is Check with a context threaded through for tracing:
// the whole verification runs inside a "check.class" span (child of
// ctx's active span), every cold pipeline stage it triggers opens a
// nested "pipeline.<stage>" span, and every warm lookup increments a
// cache-hit counter on the enclosing span. A warm whole-report hit
// follows the same rule one level up: it increments cache.hit.report
// on the caller's span instead of opening a check.class span — the
// lookup is sub-microsecond and a span per hit would dominate both the
// timeline and the overhead budget (EXPERIMENTS.md P3). When ctx
// carries no tracer the behavior and output are identical to Check.
func CheckContext(ctx context.Context, c *model.Class, reg Registry, opts ...Option) (_ *Report, err error) {
	cfg := buildConfig(opts)
	// ctx must be installed before the keys are built: they cover the
	// context's resource budget (budget.From), so a report computed
	// under one budget is never served to a request with another.
	cfg.ctx = ctx
	// Whole-report memoization: the report is a pure function of the
	// class content, the analysis mode, the resource budget, and the
	// subsystems' content, all of which Keys captures. A warm Check
	// is a cache lookup plus a deep copy, probed before any span is
	// opened.
	key, memoized := "", false
	if cfg.cache != nil {
		if keys := cfg.keysFor(c, reg); keys.ok {
			key, memoized = keys.report, true
			if v, cerr, hit := cfg.cache.Peek(ctx, pipeline.StageReport, key); hit {
				if cerr != nil {
					return nil, cerr
				}
				if r, ok := v.(*Report); ok && r != nil {
					return r.Clone(), nil
				}
			}
		}
	}
	ctx, span := obs.Start(ctx, "check.class",
		obs.String("class", c.Name),
		obs.Int("subsystems", len(c.SubsystemNames)))
	defer func() {
		if err != nil {
			span.SetAttr(obs.String("error", err.Error()))
		}
		span.End()
	}()
	cfg.ctx = ctx
	if memoized {
		report, err := pipeline.MemoCtx(ctx, cfg.cache, pipeline.StageReport, key,
			func(ctx context.Context) (*Report, error) {
				cfg := cfg
				cfg.ctx = ctx
				return check(cfg, c, reg)
			})
		if err != nil {
			return nil, err
		}
		return report.Clone(), nil
	}
	return check(cfg, c, reg)
}

// check runs the passes uncached; Check wraps it with memoization.
func check(cfg config, c *model.Class, reg Registry) (*Report, error) {
	report := &Report{Class: c.Name}

	for _, p := range c.Validate() {
		report.Diagnostics = append(report.Diagnostics, Diagnostic{
			Kind:    KindStructure,
			Message: fmt.Sprintf("Error in specification: %s", p),
		})
	}

	if len(c.SubsystemNames) == 0 {
		// Base classes still get their claims checked, against their own
		// protocol automaton.
		if err := checkClaims(cfg, c, reg, report); err != nil {
			return nil, err
		}
		return report, nil
	}

	// Resolve every subsystem up front.
	subs := make(map[string]*model.Class, len(c.SubsystemNames))
	for _, name := range c.SubsystemNames {
		sub, err := reg.resolve(c, name)
		if err != nil {
			return nil, err
		}
		subs[name] = sub
	}

	defined := checkDefinedness(cfg, c, subs, report)
	checkExhaustiveness(c, subs, report)
	checkHelpers(cfg, c, subs, report)

	// Usage and claim analysis need every called operation to exist.
	if !defined {
		return report, nil
	}
	if err := checkUsage(cfg, c, reg, subs, report); err != nil {
		return nil, err
	}
	if err := checkClaims(cfg, c, reg, report); err != nil {
		return nil, err
	}
	return report, nil
}

// checkDefinedness verifies that every tracked call targets a defined
// operation; it returns true when all calls are defined.
func checkDefinedness(cfg config, c *model.Class, subs map[string]*model.Class, report *Report) bool {
	ok := true
	for _, op := range c.Operations {
		for _, label := range cfg.labelsOf(op) {
			subName, method, found := splitLabel(label)
			if !found {
				continue
			}
			sub, isSub := subs[subName]
			if !isSub {
				continue
			}
			if sub.Operation(method) == nil {
				ok = false
				report.Diagnostics = append(report.Diagnostics, Diagnostic{
					Kind: KindUndefinedMethod,
					Message: fmt.Sprintf(
						"Error in specification: UNDEFINED METHOD\nOperation %s calls %s, but class %s has no operation %q",
						op.Name, label, sub.Name, method),
				})
			}
		}
	}
	return ok
}

// checkExhaustiveness implements the "matching exit points" analysis of
// §2.2: every exit point of the matched operation must be handled by
// some case, and every non-wildcard case must correspond to an actual
// exit point.
func checkExhaustiveness(c *model.Class, subs map[string]*model.Class, report *Report) {
	for _, op := range c.Operations {
		for _, site := range op.Method.Matches {
			subName, method, found := splitLabel(site.Op)
			if !found {
				continue
			}
			sub, isSub := subs[subName]
			if !isSub {
				continue
			}
			target := sub.Operation(method)
			if target == nil {
				continue // reported by definedness
			}

			// The exit points of the target, as canonical label sets.
			exitKeys := make(map[string][]string)
			for _, e := range target.Method.Exits {
				exitKeys[labelSetKey(e.Next)] = e.Next
			}
			caseKeys := make(map[string]struct{})
			for _, pattern := range site.Patterns {
				if pattern == nil {
					continue // wildcard
				}
				k := labelSetKey(pattern)
				caseKeys[k] = struct{}{}
				if _, real := exitKeys[k]; !real {
					report.Diagnostics = append(report.Diagnostics, Diagnostic{
						Kind: KindUselessCase,
						Message: fmt.Sprintf(
							"Error in specification: USELESS CASE\nOperation %s matches %s() against %v, but %s.%s has no such exit point",
							op.Name, site.Op, pattern, sub.Name, method),
					})
				}
			}
			if site.Wildcard {
				continue
			}
			// Deterministic order over missing exits.
			var missing []string
			for k, labels := range exitKeys {
				if _, handled := caseKeys[k]; !handled {
					missing = append(missing, fmt.Sprintf("%v", labels))
				}
			}
			sort.Strings(missing)
			for _, m := range missing {
				report.Diagnostics = append(report.Diagnostics, Diagnostic{
					Kind: KindNonExhaustiveMatch,
					Message: fmt.Sprintf(
						"Error in specification: NON-EXHAUSTIVE MATCH\nOperation %s matches %s() but does not handle exit point %s",
						op.Name, site.Op, m),
				})
			}
		}
	}
}

// checkHelpers warns about unannotated methods that call subsystems:
// those calls are outside the verified protocol entirely.
func checkHelpers(cfg config, c *model.Class, subs map[string]*model.Class, report *Report) {
	for _, helper := range c.Helpers {
		for _, label := range cfg.labelsOf(helper) {
			subName, _, found := splitLabel(label)
			if !found {
				continue
			}
			if _, isSub := subs[subName]; !isSub {
				continue
			}
			report.Diagnostics = append(report.Diagnostics, Diagnostic{
				Kind: KindHelperUsesSubsystem,
				Message: fmt.Sprintf(
					"Error in specification: UNVERIFIED SUBSYSTEM USE\nMethod %s calls %s but carries no @op annotation; the call order is not verified",
					helper.Name, label),
			})
			break // one finding per helper is enough
		}
	}
}

// labelsOf returns the distinct call labels in the operation's
// simplified behavior, which flattening memoizes too.
func (cfg config) labelsOf(op *model.Operation) []string {
	return regex.Alphabet(cfg.cache.InferSimplified(cfg.ctx, op.Method.Program))
}

func splitLabel(label string) (subsystem, method string, ok bool) {
	i := strings.IndexByte(label, '.')
	if i <= 0 || i == len(label)-1 {
		return "", "", false
	}
	return label[:i], label[i+1:], true
}

func labelSetKey(labels []string) string {
	sorted := append([]string(nil), labels...)
	sort.Strings(sorted)
	return strings.Join(sorted, "\x00")
}

// traceString renders a trace the way the paper prints counterexamples.
func traceString(trace []string) string { return strings.Join(trace, ", ") }
