// Package model builds the Shelley model of an annotated MicroPython
// class: its operations (with @op_initial/@op_final/@op/@op_initial_final
// modifiers, Table 1 of the paper), its temporal claims (@claim), its
// declared subsystems (@sys([...])), the lowered body of every operation,
// and the per-exit continuation sets that induce the class's usage
// protocol.
package model

import (
	"fmt"
	"slices"
	"sync"

	"github.com/shelley-go/shelley/internal/depgraph"
	"github.com/shelley-go/shelley/internal/lower"
	"github.com/shelley-go/shelley/internal/ltlf"
	"github.com/shelley-go/shelley/internal/pyast"
	"github.com/shelley-go/shelley/internal/pytoken"
)

// Error is a modelling error with its source position.
type Error struct {
	Pos pytoken.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Operation is one verified method of a class.
type Operation struct {
	// Name is the method name; it doubles as the operation symbol in the
	// class's protocol.
	Name string

	// Initial and Final record the @op_initial/@op_final modifiers
	// (@op_initial_final sets both).
	Initial bool
	Final   bool

	// Annotated reports whether the method carried an explicit @op*
	// decorator. Classes with no annotated methods (such as Listing 3.1)
	// treat every method as a plain operation.
	Annotated bool

	// Method is the lowered body.
	Method *lower.Method

	// fp memoizes Fingerprint; operations are immutable after FromAST,
	// so the per-method content hash is computed at most once.
	fpOnce sync.Once
	fp     string
}

// Claim is a temporal requirement from a @claim decorator.
type Claim struct {
	Formula string
	Pos     pytoken.Pos

	// parsed memoizes Parse for every copy of a claim FromAST made;
	// the formula is parsed when first checked, not when modeled.
	parsed *parsedClaim
}

type parsedClaim struct {
	once    sync.Once
	formula ltlf.Formula
	atoms   []string
	err     error
}

// Parse returns the claim's formula parsed, with its sorted atoms
// (ltlf.Atoms). A claim of a modeled class is parsed at most once; a
// claim built by hand is parsed on every call.
func (cl Claim) Parse() (ltlf.Formula, []string, error) {
	p := cl.parsed
	if p == nil {
		p = &parsedClaim{}
	}
	p.once.Do(func() {
		if p.formula, p.err = ltlf.Parse(cl.Formula); p.err == nil {
			p.atoms = ltlf.Atoms(p.formula)
		}
	})
	return p.formula, p.atoms, p.err
}

// Class is the Shelley model of one class.
type Class struct {
	// Name is the class name.
	Name string

	// IsSys reports whether the class carries a @sys decorator (with or
	// without subsystem arguments).
	IsSys bool

	// Claims are the class's @claim decorators in source order.
	Claims []Claim

	// SubsystemNames are the declared subsystem fields, in declaration
	// order; empty for base classes.
	SubsystemNames []string

	// SubsystemTypes maps each subsystem field to the class name it is
	// constructed from in __init__.
	SubsystemTypes map[string]string

	// Operations are the verified methods, in source order.
	Operations []*Operation

	// Helpers are unannotated methods of a class that does have
	// annotated operations: they are outside the verified protocol, but
	// the checker warns when one of them touches a subsystem (such
	// usage is invisible to the analysis).
	Helpers []*Operation

	opIndex map[string]*Operation

	// fp memoizes Fingerprint; classes are immutable after FromAST, so
	// the content hash is computed at most once (sync.Once keeps the
	// lazy computation race-free under CheckAllConcurrent).
	fpOnce sync.Once
	fp     string

	// protoFP memoizes ProtocolFingerprint, the projection of fp onto
	// the protocol surface dependents can observe.
	protoOnce sync.Once
	protoFP   string

	// edges memoizes ProtocolEdges.
	edgesOnce sync.Once
	edges     map[string][]string
}

// Operation returns the operation with the given name, or nil.
func (c *Class) Operation(name string) *Operation { return c.opIndex[name] }

// OperationNames returns the operation names in source order.
func (c *Class) OperationNames() []string {
	out := make([]string, len(c.Operations))
	for i, op := range c.Operations {
		out[i] = op.Name
	}
	return out
}

// InitialOperations returns the names of the initial operations, in
// source order. When no operation is annotated (Listing 3.1 style), every
// operation counts as initial.
func (c *Class) InitialOperations() []string {
	var out []string
	for _, op := range c.Operations {
		if op.Initial {
			out = append(out, op.Name)
		}
	}
	return out
}

// opModifiers maps decorator names to (initial, final).
var opModifiers = map[string]struct{ initial, final bool }{
	"op":               {false, false},
	"op_initial":       {true, false},
	"op_final":         {false, true},
	"op_initial_final": {true, true},
}

// FromAST builds the model of a class, lowering every candidate method.
func FromAST(cls *pyast.ClassDef) (*Class, error) {
	out := &Class{
		Name:    cls.Name,
		opIndex: make(map[string]*Operation),
	}

	// Class decorators: @sys, @sys([...]), @claim("...").
	for _, d := range cls.Decorators {
		switch d.Name {
		case "sys":
			out.IsSys = true
			if !d.Called {
				break
			}
			if len(d.Args) != 1 {
				return nil, &Error{Pos: d.NamePos, Msg: "@sys takes exactly one list argument"}
			}
			names, ok := pyast.StringElements(d.Args[0])
			if !ok {
				return nil, &Error{Pos: d.NamePos, Msg: "@sys argument must be a list of subsystem field names"}
			}
			seen := make(map[string]struct{}, len(names))
			for _, n := range names {
				if _, dup := seen[n]; dup {
					return nil, &Error{Pos: d.NamePos, Msg: fmt.Sprintf("@sys lists subsystem %q twice", n)}
				}
				seen[n] = struct{}{}
			}
			out.SubsystemNames = names
		case "claim":
			if len(d.Args) != 1 {
				return nil, &Error{Pos: d.NamePos, Msg: "@claim takes exactly one formula string"}
			}
			s, ok := d.Args[0].(*pyast.StringLit)
			if !ok {
				return nil, &Error{Pos: d.NamePos, Msg: "@claim argument must be a string"}
			}
			out.Claims = append(out.Claims, Claim{Formula: s.Value, Pos: d.NamePos, parsed: &parsedClaim{}})
		default:
			return nil, &Error{Pos: d.NamePos, Msg: fmt.Sprintf("unknown class decorator @%s", d.Name)}
		}
	}

	types, err := lower.SubsystemTypes(cls, out.SubsystemNames)
	if err != nil {
		return nil, fmt.Errorf("class %s: %w", cls.Name, err)
	}
	out.SubsystemTypes = types

	tracked := lower.TrackedFields(out.SubsystemNames)

	// Methods: collect annotated operations; remember unannotated
	// non-dunder methods in case the class has no annotations at all.
	var fallback []*Operation
	for _, fn := range cls.Methods {
		var mod *struct{ initial, final bool }
		for _, d := range fn.Decorators {
			m, ok := opModifiers[d.Name]
			if !ok {
				return nil, &Error{Pos: d.NamePos, Msg: fmt.Sprintf("unknown method decorator @%s", d.Name)}
			}
			if mod != nil {
				return nil, &Error{Pos: d.NamePos, Msg: fmt.Sprintf("method %s has multiple @op decorators", fn.Name)}
			}
			mod = &m
		}
		if fn.Name == "__init__" {
			if mod != nil {
				return nil, &Error{Pos: fn.NamePos, Msg: "__init__ cannot be an operation"}
			}
			continue
		}
		lowered, err := lower.LowerMethod(fn, tracked)
		if err != nil {
			return nil, fmt.Errorf("class %s, method %s: %w", cls.Name, fn.Name, err)
		}
		op := &Operation{Name: fn.Name, Method: lowered}
		if mod != nil {
			op.Annotated = true
			op.Initial = mod.initial
			op.Final = mod.final
			out.addOperation(op)
		} else {
			fallback = append(fallback, op)
		}
	}

	if len(out.Operations) == 0 {
		// Listing 3.1 style: no annotations, every method is an
		// operation and every operation is initial and final.
		for _, op := range fallback {
			op.Initial = true
			op.Final = true
			out.addOperation(op)
		}
	} else {
		out.Helpers = fallback
	}
	if len(out.Operations) == 0 {
		return nil, fmt.Errorf("class %s has no operations", cls.Name)
	}
	return out, nil
}

func (c *Class) addOperation(op *Operation) {
	c.Operations = append(c.Operations, op)
	c.opIndex[op.Name] = op
}

// DepGraph builds the §3.1 method dependency graph over the class's
// operations.
func (c *Class) DepGraph() (*depgraph.Graph, error) {
	methods := make([]*lower.Method, len(c.Operations))
	for i, op := range c.Operations {
		methods[i] = op.Method
	}
	return depgraph.Build(methods)
}

// ProtocolEdges returns, per operation, the sorted union over its exits
// of the methods allowed next. It is the edge relation of Figs. 1–3.
// It is computed once per class; callers must not modify the result.
func (c *Class) ProtocolEdges() map[string][]string {
	c.edgesOnce.Do(func() {
		c.edges = make(map[string][]string, len(c.Operations))
		for _, op := range c.Operations {
			next := []string{}
			for _, e := range op.Method.Exits {
				next = append(next, e.Next...)
			}
			slices.Sort(next)
			c.edges[op.Name] = slices.Compact(next)
		}
	})
	return c.edges
}
