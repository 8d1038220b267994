// Package lower translates MicroPython method bodies (pyast) into the
// imperative calculus (ir) the behavior inference runs on, implementing
// the abstraction step of §3 of the paper:
//
//   - calls on *tracked* fields (the declared subsystems of a composite
//     class) become Call nodes labelled "field.method" (e.g. "a.test");
//   - every other expression or statement of no interest becomes skip
//     (and is dropped from sequences entirely);
//   - if/elif/else chains and match statements become nested
//     nondeterministic choices;
//   - for and while loops become loop(★);
//   - return statements become Return nodes, and their `["m1", ...]`
//     label lists (Table 2 of the paper) are collected as exit points
//     for the method-dependency graph (§3.1).
//
// Tracked calls appearing inside a condition, match subject, assignment
// right-hand side or return value are emitted in evaluation order before
// the construct itself, since the calculus has no expressions. Tracked
// calls inside a loop condition are emitted at the head of the loop body
// (the calculus models a loop only as "body runs some unknown number of
// times").
package lower

import (
	"fmt"
	"strings"

	"github.com/shelley-go/shelley/internal/ir"
	"github.com/shelley-go/shelley/internal/pyast"
	"github.com/shelley-go/shelley/internal/pytoken"
)

// Error is a lowering error with its source position.
type Error struct {
	Pos pytoken.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Exit describes one return statement of a method: an exit point of the
// dependency graph.
type Exit struct {
	// ID is the exit's index in source order (0-based).
	ID int

	// Next lists the methods that may be invoked after this exit, from
	// `return ["m1", ..., mn]`. Empty means no method may follow (the
	// object's lifetime ends here, `return []`).
	Next []string

	// Declared reports whether the return statement carried a
	// protocol label list at all. A bare `return` or a return of a
	// non-list value has Declared == false; annotated operations are
	// required to declare their continuations (checked downstream).
	Declared bool

	// HasValue reports whether the return also carries a user value
	// (`return ["close"], 2` — Table 2 rows 3-5).
	HasValue bool

	Pos pytoken.Pos
}

// MatchSite records a `match self.x.m():` statement over a tracked call,
// for the exit-point exhaustiveness analysis (§3, step 3).
type MatchSite struct {
	// Op is the tracked operation the subject invokes, e.g. "a.test".
	Op string

	// Patterns holds, per case clause, the label list of the pattern
	// (`case ["open"]:` → ["open"]); a nil entry denotes a wildcard or
	// unrecognized pattern, which matches anything.
	Patterns [][]string

	// Wildcard reports whether any case is a catch-all.
	Wildcard bool

	Pos pytoken.Pos
}

// Method is the lowering result for one method body.
type Method struct {
	// Name is the method name.
	Name string

	// Program is the method body in the imperative calculus.
	Program ir.Program

	// Exits are the method's return statements in source order.
	Exits []Exit

	// Matches are the match statements over tracked calls, for the
	// exhaustiveness check.
	Matches []MatchSite

	// AlwaysReturns reports whether every control path through the body
	// ends in a return statement (loops are assumed skippable, matching
	// the calculus's nondeterministic loop).
	AlwaysReturns bool
}

// Tracked decides whether a `self.<field>` receiver is a tracked
// subsystem; it returns the label prefix to use (normally the field name
// itself).
type Tracked func(field string) (label string, ok bool)

// TrackedFields builds a Tracked function from a set of field names, each
// labelled by itself. A nil or empty set tracks nothing (base classes).
func TrackedFields(fields []string) Tracked {
	set := make(map[string]struct{}, len(fields))
	for _, f := range fields {
		set[f] = struct{}{}
	}
	return func(field string) (string, bool) {
		_, ok := set[field]
		return field, ok
	}
}

// LowerMethod lowers one method body.
func LowerMethod(fn *pyast.FuncDef, tracked Tracked) (*Method, error) {
	l := &lowerer{tracked: tracked}
	prog, err := l.stmts(fn.Body)
	if err != nil {
		return nil, err
	}
	return &Method{
		Name:          fn.Name,
		Program:       prog,
		Exits:         l.exits,
		Matches:       l.matches,
		AlwaysReturns: stmtsAlwaysReturn(fn.Body),
	}, nil
}

type lowerer struct {
	tracked Tracked
	exits   []Exit
	matches []MatchSite
}

// stmts lowers a statement list to a sequence, dropping skip parts.
func (l *lowerer) stmts(body []pyast.Stmt) (ir.Program, error) {
	var parts []ir.Program
	for _, s := range body {
		p, err := l.stmt(s)
		if err != nil {
			return nil, err
		}
		if _, isSkip := p.(ir.Skip); isSkip {
			continue
		}
		parts = append(parts, p)
	}
	return ir.NewSeq(parts...), nil
}

func (l *lowerer) stmt(s pyast.Stmt) (ir.Program, error) {
	switch s := s.(type) {
	case *pyast.ExprStmt:
		return l.exprEffects(s.X)
	case *pyast.Assign:
		// Only the right-hand side can invoke tracked methods; the
		// target is a plain field reference.
		return l.exprEffects(s.Value)
	case *pyast.Return:
		return l.lowerReturn(s)
	case *pyast.If:
		return l.lowerIf(s)
	case *pyast.Match:
		return l.lowerMatch(s)
	case *pyast.While:
		cond, err := l.exprEffects(s.Cond)
		if err != nil {
			return nil, err
		}
		body, err := l.stmts(s.Body)
		if err != nil {
			return nil, err
		}
		return ir.NewLoop(seqNonSkip(cond, body)), nil
	case *pyast.For:
		iter, err := l.exprEffects(s.Iter)
		if err != nil {
			return nil, err
		}
		body, err := l.stmts(s.Body)
		if err != nil {
			return nil, err
		}
		// The iterable is evaluated once, before the loop.
		return seqNonSkip(iter, ir.NewLoop(body)), nil
	case *pyast.Pass, *pyast.Import:
		return ir.NewSkip(), nil
	case *pyast.Break:
		return nil, &Error{Pos: s.Pos(), Msg: "'break' is outside the supported subset (the calculus models loops as running an unknown number of iterations)"}
	case *pyast.Continue:
		return nil, &Error{Pos: s.Pos(), Msg: "'continue' is outside the supported subset"}
	default:
		return nil, &Error{Pos: s.Pos(), Msg: fmt.Sprintf("unsupported statement %T", s)}
	}
}

func (l *lowerer) lowerReturn(s *pyast.Return) (ir.Program, error) {
	exit := Exit{ID: len(l.exits), Pos: s.ReturnPos}
	var prefix ir.Program = ir.NewSkip()
	if len(s.Values) > 0 {
		if labels, ok := pyast.StringElements(s.Values[0]); ok {
			exit.Next = labels
			exit.Declared = true
			exit.HasValue = len(s.Values) > 1
		} else {
			exit.HasValue = true
		}
		// Tracked calls inside returned expressions still happen.
		for _, v := range s.Values {
			eff, err := l.exprEffects(v)
			if err != nil {
				return nil, err
			}
			prefix = seqNonSkip(prefix, eff)
		}
	}
	l.exits = append(l.exits, exit)
	return seqNonSkip(prefix, ir.Return{ExitID: exit.ID}), nil
}

func (l *lowerer) lowerIf(s *pyast.If) (ir.Program, error) {
	// Lower every piece in source order first, so exit IDs follow the
	// textual order of return statements.
	cond, err := l.exprEffects(s.Cond)
	if err != nil {
		return nil, err
	}
	then, err := l.stmts(s.Body)
	if err != nil {
		return nil, err
	}
	type arm struct{ cond, body ir.Program }
	arms := make([]arm, 0, len(s.Elifs))
	for _, clause := range s.Elifs {
		econd, err := l.exprEffects(clause.Cond)
		if err != nil {
			return nil, err
		}
		ebody, err := l.stmts(clause.Body)
		if err != nil {
			return nil, err
		}
		arms = append(arms, arm{cond: econd, body: ebody})
	}
	var els ir.Program = ir.NewSkip()
	if s.Else != nil {
		els, err = l.stmts(s.Else)
		if err != nil {
			return nil, err
		}
	}
	// Assemble innermost-else outward: each elif condition is evaluated
	// before choosing between its body and the rest of the chain.
	for i := len(arms) - 1; i >= 0; i-- {
		els = seqNonSkip(arms[i].cond, ir.NewIf(arms[i].body, els))
	}
	return seqNonSkip(cond, ir.NewIf(then, els)), nil
}

func (l *lowerer) lowerMatch(s *pyast.Match) (ir.Program, error) {
	subject, err := l.exprEffects(s.Subject)
	if err != nil {
		return nil, err
	}

	// Record the match site when the subject is exactly one tracked call.
	if call, ok := s.Subject.(*pyast.CallExpr); ok {
		if label, ok := l.trackedCallLabel(call); ok {
			site := MatchSite{Op: label, Pos: s.MatchPos}
			for _, c := range s.Cases {
				if _, isWild := c.Pattern.(*pyast.WildcardExpr); isWild {
					site.Wildcard = true
					site.Patterns = append(site.Patterns, nil)
					continue
				}
				if labels, ok := pyast.StringElements(c.Pattern); ok {
					site.Patterns = append(site.Patterns, labels)
				} else {
					site.Wildcard = true
					site.Patterns = append(site.Patterns, nil)
				}
			}
			l.matches = append(l.matches, site)
		}
	}

	alts := make([]ir.Program, 0, len(s.Cases))
	for _, c := range s.Cases {
		body, err := l.stmts(c.Body)
		if err != nil {
			return nil, err
		}
		alts = append(alts, body)
	}
	return seqNonSkip(subject, ir.NewChoice(alts...)), nil
}

// exprEffects extracts the tracked calls of an expression in evaluation
// order (receivers and arguments before the call itself).
func (l *lowerer) exprEffects(e pyast.Expr) (ir.Program, error) {
	var parts []ir.Program
	var walk func(e pyast.Expr) error
	walk = func(e pyast.Expr) error {
		switch e := e.(type) {
		case *pyast.CallExpr:
			// Arguments are evaluated before the call fires.
			for _, a := range e.Args {
				if err := walk(a); err != nil {
					return err
				}
			}
			if label, ok := l.trackedCallLabel(e); ok {
				parts = append(parts, ir.NewCall(label))
				return nil
			}
			// Untracked call: still check the receiver chain for misuse
			// of tracked fields (e.g. self.a.pin.on()).
			if err := l.checkUntrackedReceiver(e); err != nil {
				return err
			}
			return nil
		case *pyast.AttrExpr:
			return walk(e.Value)
		case *pyast.BinOpExpr:
			if err := walk(e.Left); err != nil {
				return err
			}
			return walk(e.Right)
		case *pyast.UnaryExpr:
			return walk(e.X)
		case *pyast.ListExpr:
			for _, elt := range e.Elts {
				if err := walk(elt); err != nil {
					return err
				}
			}
			return nil
		case *pyast.TupleExpr:
			for _, elt := range e.Elts {
				if err := walk(elt); err != nil {
					return err
				}
			}
			return nil
		default:
			return nil
		}
	}
	if err := walk(e); err != nil {
		return nil, err
	}
	return ir.NewSeq(parts...), nil
}

// trackedCallLabel reports whether the call is `self.<field>.<method>()`
// on a tracked field, returning the "<label>.<method>" operation name.
func (l *lowerer) trackedCallLabel(call *pyast.CallExpr) (string, bool) {
	attr, ok := call.Fn.(*pyast.AttrExpr)
	if !ok {
		return "", false
	}
	recv, ok := attr.Value.(*pyast.AttrExpr)
	if !ok {
		return "", false
	}
	if base, ok := recv.Value.(*pyast.NameExpr); !ok || base.Name != "self" {
		return "", false
	}
	label, ok := l.tracked(recv.Attr)
	if !ok {
		return "", false
	}
	return label + "." + attr.Attr, true
}

// checkUntrackedReceiver rejects calls that reach *through* a tracked
// field (self.a.pin.on()): Shelley only supports direct method
// invocation on subsystem fields, and silently skipping these would
// under-approximate the subsystem's usage.
func (l *lowerer) checkUntrackedReceiver(call *pyast.CallExpr) error {
	name, ok := pyast.DottedName(call.Fn)
	if !ok {
		return nil
	}
	parts := strings.Split(name, ".")
	if len(parts) < 4 || parts[0] != "self" {
		return nil
	}
	if _, tracked := l.tracked(parts[1]); tracked {
		return &Error{
			Pos: call.Pos(),
			Msg: fmt.Sprintf("call %s() reaches through subsystem %q; only direct method calls on subsystem fields are supported", name, parts[1]),
		}
	}
	return nil
}

// seqNonSkip sequences programs, dropping skip parts.
func seqNonSkip(ps ...ir.Program) ir.Program {
	var parts []ir.Program
	for _, p := range ps {
		if _, isSkip := p.(ir.Skip); isSkip {
			continue
		}
		parts = append(parts, p)
	}
	return ir.NewSeq(parts...)
}

// stmtsAlwaysReturn reports whether every control path through the list
// ends in a return. Loops never guarantee a return (the calculus lets
// them run zero iterations).
func stmtsAlwaysReturn(body []pyast.Stmt) bool {
	for _, s := range body {
		if stmtAlwaysReturns(s) {
			return true
		}
	}
	return false
}

func stmtAlwaysReturns(s pyast.Stmt) bool {
	switch s := s.(type) {
	case *pyast.Return:
		return true
	case *pyast.If:
		if s.Else == nil {
			return false
		}
		if !stmtsAlwaysReturn(s.Body) || !stmtsAlwaysReturn(s.Else) {
			return false
		}
		for _, e := range s.Elifs {
			if !stmtsAlwaysReturn(e.Body) {
				return false
			}
		}
		return true
	case *pyast.Match:
		for _, c := range s.Cases {
			if !stmtsAlwaysReturn(c.Body) {
				return false
			}
		}
		return len(s.Cases) > 0
	default:
		return false
	}
}
