package interp

import (
	"errors"
	"fmt"
	"strings"

	"github.com/shelley-go/shelley/internal/ir"
	"github.com/shelley-go/shelley/internal/model"
)

// System executes a composite class against live subsystem instances:
// invoking a composite operation runs its lowered body (the imperative
// calculus of §3.2), resolving if(★)/loop(★) through the chooser and
// forwarding every tracked call to the corresponding subsystem instance
// in concrete mode. A subsystem call that violates the subsystem's
// protocol surfaces as a *ProtocolError — the runtime failure that
// Shelley's static usage check predicts.
type System struct {
	root    *model.Class
	rootRef *Instance
	subs    map[string]*Instance
	opts    options
	trace   []string // flattened subsystem trace
}

// NewSystem instantiates the composite class and one instance per
// declared subsystem. The classes map resolves subsystem type names.
func NewSystem(c *model.Class, classes map[string]*model.Class, opts ...Option) (*System, error) {
	o := buildOptions(opts)
	s := &System{
		root:    c,
		rootRef: NewInstance(c, opts...),
		subs:    make(map[string]*Instance, len(c.SubsystemNames)),
		opts:    o,
	}
	for _, name := range c.SubsystemNames {
		typeName := c.SubsystemTypes[name]
		subClass, ok := classes[typeName]
		if !ok {
			return nil, fmt.Errorf("interp: class %s for subsystem %q not provided", typeName, name)
		}
		s.subs[name] = NewInstance(subClass, opts...)
	}
	return s, nil
}

// Trace returns the flattened subsystem trace so far (qualified names,
// e.g. "a.test").
func (s *System) Trace() []string { return append([]string(nil), s.trace...) }

// Allowed returns the composite operations callable now.
func (s *System) Allowed() []string { return s.rootRef.Allowed() }

// CanStop reports whether the whole system may be abandoned now: the
// composite protocol permits stopping and every subsystem is stoppable.
func (s *System) CanStop() bool {
	if !s.rootRef.CanStop() {
		return false
	}
	for _, name := range s.root.SubsystemNames {
		if !s.subs[name].CanStop() {
			return false
		}
	}
	return true
}

// DanglingSubsystems lists subsystems currently stuck in a non-final
// state — e.g. a valve left open.
func (s *System) DanglingSubsystems() []string {
	var out []string
	for _, name := range s.root.SubsystemNames {
		if !s.subs[name].CanStop() {
			out = append(out, name)
		}
	}
	return out
}

// Invoke runs one composite operation end to end.
func (s *System) Invoke(opName string) error {
	op := s.root.Operation(opName)
	if op == nil {
		return fmt.Errorf("interp: class %s has no operation %q", s.root.Name, opName)
	}
	// The composite's own protocol applies to the caller of the system.
	if _, err := s.rootRef.Call(opName); err != nil {
		return err
	}
	_, err := s.exec(op.Method.Program)
	return err
}

// maxLoopIterations bounds loop(★) execution in System.Invoke.
const maxLoopIterations = 8

// exec runs a program; the boolean result reports whether a return was
// executed (short-circuiting the rest of a sequence).
func (s *System) exec(p ir.Program) (returned bool, err error) {
	switch p := p.(type) {
	case ir.Skip:
		return false, nil
	case ir.Return:
		return true, nil
	case ir.Call:
		return false, s.call(p.Label)
	case ir.Seq:
		returned, err := s.exec(p.First)
		if err != nil || returned {
			return returned, err
		}
		return s.exec(p.Second)
	case ir.If:
		// In MicroPython the branch is decided by the value a subsystem
		// call returned (the match statement of §2.2); that value was
		// erased by lowering, so the simulator picks a branch through
		// the chooser and *backtracks* when the guess conflicts with the
		// exit the subsystem actually took. A program that passed the
		// exit-point exhaustiveness check always has a conforming
		// branch.
		first, second := p.Then, p.Else
		if s.opts.chooser.Choose(2) == 1 {
			first, second = second, first
		}
		snap := s.snapshot()
		returned, err := s.exec(first)
		var perr *ProtocolError
		if err != nil && errors.As(err, &perr) {
			s.restore(snap)
			return s.exec(second)
		}
		return returned, err
	case ir.Loop:
		for iter := 0; iter < maxLoopIterations; iter++ {
			if s.opts.chooser.Choose(2) == 1 {
				return false, nil // exit the loop
			}
			snap := s.snapshot()
			returned, err := s.exec(p.Body)
			var perr *ProtocolError
			if err != nil && errors.As(err, &perr) {
				// The chosen iteration path conflicts with the actual
				// subsystem exits; a conforming runtime would simply
				// stop iterating here.
				s.restore(snap)
				return false, nil
			}
			if err != nil || returned {
				return returned, err
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("interp: unsupported program node %T", p)
	}
}

// snapshot captures the mutable state of the whole system for
// backtracking.
type systemSnapshot struct {
	trace []string
	subs  map[string]instanceSnapshot
}

type instanceSnapshot struct {
	fresh   bool
	lastOp  *model.Operation
	allowed []string
	trace   []string
}

func (s *System) snapshot() systemSnapshot {
	snap := systemSnapshot{
		trace: append([]string(nil), s.trace...),
		subs:  make(map[string]instanceSnapshot, len(s.subs)),
	}
	for name, inst := range s.subs {
		snap.subs[name] = instanceSnapshot{
			fresh:   inst.fresh,
			lastOp:  inst.lastOp,
			allowed: append([]string(nil), inst.allowed...),
			trace:   append([]string(nil), inst.trace...),
		}
	}
	return snap
}

func (s *System) restore(snap systemSnapshot) {
	s.trace = snap.trace
	for name, is := range snap.subs {
		inst := s.subs[name]
		inst.fresh = is.fresh
		inst.lastOp = is.lastOp
		inst.allowed = is.allowed
		inst.trace = is.trace
	}
}

func (s *System) call(label string) error {
	i := strings.IndexByte(label, '.')
	if i <= 0 {
		return fmt.Errorf("interp: malformed call label %q", label)
	}
	sub, method := label[:i], label[i+1:]
	inst, ok := s.subs[sub]
	if !ok {
		return fmt.Errorf("interp: no subsystem %q", sub)
	}
	if _, err := inst.Call(method); err != nil {
		return err
	}
	s.trace = append(s.trace, label)
	return nil
}

// ReplayFlat drives the subsystem instances directly with a flattened
// qualified trace (as produced by the checker's counterexamples) and
// returns the first protocol error, or nil when every step is allowed.
// It validates that static counterexamples are real runtime violations
// and that model-sampled traces of verified classes replay cleanly.
//
// Replay always uses the angelic (specification) call semantics: the
// question is whether the *protocol* permits the trace, not whether a
// particular simulated device would happen to take matching exits.
func ReplayFlat(c *model.Class, classes map[string]*model.Class, trace []string, opts ...Option) error {
	s, err := NewSystem(c, classes, append(append([]Option(nil), opts...), WithAngelic())...)
	if err != nil {
		return err
	}
	for _, label := range trace {
		if err := s.call(label); err != nil {
			return err
		}
	}
	if dangling := s.DanglingSubsystems(); len(dangling) > 0 {
		return fmt.Errorf("interp: subsystems %v left in a non-final state", dangling)
	}
	return nil
}
