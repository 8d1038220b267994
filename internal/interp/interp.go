// Package interp executes Shelley-annotated classes: it is the runtime
// substrate that stands in for MicroPython running on a microcontroller.
// The paper's analysis is entirely about the order of method calls, so
// the simulator models exactly that: each Instance tracks the protocol
// state of one object (which operation ran last and which operations its
// chosen exit allows next), and a System executes composite operations'
// lowered bodies against live subsystem instances.
//
// Two call semantics are provided:
//
//   - concrete (default): each call picks one exit point (via a Chooser,
//     modelling the device's physical response) and the caller must
//     follow that exit's return list — exactly MicroPython runtime
//     behavior;
//   - angelic: a call is allowed if any exit of the previous operation
//     permits it — the union semantics of the class's specification DFA.
//     This is the membership oracle used by the L* learner
//     (internal/learn): the learned automaton then provably equals the
//     class's SpecDFA.
package interp

import (
	"fmt"
	"math/rand"

	"github.com/shelley-go/shelley/internal/model"
)

// Chooser resolves the nondeterministic choices of an execution: which
// exit point an operation takes, which branch an if(★) follows, and
// whether a loop(★) runs another iteration.
type Chooser interface {
	// Choose returns a value in [0, n). n is at least 1.
	Choose(n int) int
}

// FirstChoice always picks alternative 0: operations take their first
// exit, conditionals take the then-branch, loops exit immediately.
type FirstChoice struct{}

// Choose implements Chooser.
func (FirstChoice) Choose(int) int { return 0 }

// RandomChoice picks uniformly with a deterministic seed.
type RandomChoice struct {
	rng *rand.Rand
}

// NewRandomChoice returns a seeded random chooser.
func NewRandomChoice(seed int64) *RandomChoice {
	return &RandomChoice{rng: rand.New(rand.NewSource(seed))}
}

// Choose implements Chooser.
func (r *RandomChoice) Choose(n int) int { return r.rng.Intn(n) }

// ProtocolError reports a call that the object's protocol forbids; it is
// the runtime manifestation of the bugs Shelley catches statically.
type ProtocolError struct {
	// Class and Op identify the rejected call.
	Class string
	Op    string
	// Allowed lists the operations that were permitted instead.
	Allowed []string
	// Fresh reports whether the object had not been used yet (so only
	// initial operations were allowed).
	Fresh bool
}

func (e *ProtocolError) Error() string {
	when := "after the previous call"
	if e.Fresh {
		when = "on a fresh instance"
	}
	return fmt.Sprintf("interp: %s.%s is not allowed %s (allowed: %v)", e.Class, e.Op, when, e.Allowed)
}

// Instance simulates one object of an annotated class.
type Instance struct {
	class   *model.Class
	chooser Chooser
	angelic bool

	fresh   bool
	lastOp  *model.Operation
	allowed []string // names allowed next (concrete: the chosen exit's list)
	trace   []string
}

// Option configures an Instance or System.
type Option func(*options)

type options struct {
	chooser Chooser
	angelic bool
}

// WithChooser sets the nondeterminism resolver (default FirstChoice).
func WithChooser(c Chooser) Option { return func(o *options) { o.chooser = c } }

// WithAngelic switches to the union (specification) call semantics.
func WithAngelic() Option { return func(o *options) { o.angelic = true } }

func buildOptions(opts []Option) options {
	o := options{chooser: FirstChoice{}}
	for _, apply := range opts {
		apply(&o)
	}
	return o
}

// NewInstance creates a fresh simulated object.
func NewInstance(c *model.Class, opts ...Option) *Instance {
	o := buildOptions(opts)
	return &Instance{class: c, chooser: o.chooser, angelic: o.angelic, fresh: true}
}

// Allowed returns the operation names callable right now.
func (i *Instance) Allowed() []string {
	if i.fresh {
		return i.class.InitialOperations()
	}
	return append([]string(nil), i.allowed...)
}

// CanStop reports whether the object may be abandoned now: it is fresh,
// or its last operation was final.
func (i *Instance) CanStop() bool {
	if i.fresh {
		return true
	}
	return i.lastOp.Final
}

// Call invokes an operation. It returns the return list of the chosen
// exit (the operations the caller must choose from next), mirroring the
// MicroPython API of §2.1. In angelic mode the returned list is the
// union over all exits.
func (i *Instance) Call(opName string) ([]string, error) {
	op := i.class.Operation(opName)
	if op == nil {
		return nil, fmt.Errorf("interp: class %s has no operation %q", i.class.Name, opName)
	}
	if err := i.checkAllowed(opName); err != nil {
		return nil, err
	}
	i.trace = append(i.trace, opName)
	i.fresh = false
	i.lastOp = op

	if i.angelic {
		union := i.class.ProtocolEdges()[opName]
		i.allowed = union
		return append([]string(nil), union...), nil
	}
	exits := op.Method.Exits
	if len(exits) == 0 {
		i.allowed = nil
		return nil, nil
	}
	exit := exits[i.chooser.Choose(len(exits))]
	i.allowed = append([]string(nil), exit.Next...)
	return append([]string(nil), exit.Next...), nil
}

func (i *Instance) checkAllowed(opName string) error {
	for _, a := range i.Allowed() {
		if a == opName {
			return nil
		}
	}
	return &ProtocolError{
		Class:   i.class.Name,
		Op:      opName,
		Allowed: i.Allowed(),
		Fresh:   i.fresh,
	}
}

// Run replays a whole call sequence on a fresh instance and reports
// whether it is a valid *complete* usage: every call allowed and the
// final state stoppable. It is the membership oracle of the L* setup.
func Run(c *model.Class, trace []string, opts ...Option) bool {
	inst := NewInstance(c, opts...)
	for _, op := range trace {
		if _, err := inst.Call(op); err != nil {
			return false
		}
	}
	return inst.CanStop()
}

// RunPrefix reports whether every call of the sequence is allowed,
// regardless of whether the final state is stoppable. Equivalence
// oracles use it to prune trace subtrees that can never become valid.
func RunPrefix(c *model.Class, trace []string, opts ...Option) bool {
	inst := NewInstance(c, opts...)
	for _, op := range trace {
		if _, err := inst.Call(op); err != nil {
			return false
		}
	}
	return true
}
