// Package pyexec executes annotated MicroPython base classes concretely
// against emulated hardware (internal/hw): where the model analysis
// erases values, this interpreter evaluates them — `Pin(29, IN)` builds
// a real emulated pin, `self.status.value()` reads it, `if`/`match`
// branch on actual results, and each `return ["m1", ...]` yields the
// continuation the device really took.
//
// It is the closest stand-in for "running MicroPython on the
// microcontroller" this repository has: the simulator's Chooser
// nondeterminism is replaced by physical pin state, which the test
// environment sets through the board. The object still enforces the
// class's call-order protocol, so the runtime errors the static checker
// predicts are observable here with their physical consequences (e.g.
// a control pin left high).
package pyexec

import (
	"fmt"

	"github.com/shelley-go/shelley/internal/hw"
	"github.com/shelley-go/shelley/internal/pyast"
)

// Value is a runtime value of the supported subset.
type Value interface{ valueKind() string }

type (
	// NoneValue is Python's None.
	NoneValue struct{}

	// BoolValue is a boolean.
	BoolValue struct{ V bool }

	// IntValue is an integer (the subset needs no floats).
	IntValue struct{ V int64 }

	// StringValue is a string.
	StringValue struct{ V string }

	// ListValue is a list.
	ListValue struct{ Elems []Value }

	// TupleValue is a tuple (e.g. a return with a user value).
	TupleValue struct{ Elems []Value }

	// PinValue wraps an emulated GPIO pin.
	PinValue struct{ Pin *hw.Pin }
)

func (NoneValue) valueKind() string   { return "None" }
func (BoolValue) valueKind() string   { return "bool" }
func (IntValue) valueKind() string    { return "int" }
func (StringValue) valueKind() string { return "str" }
func (ListValue) valueKind() string   { return "list" }
func (TupleValue) valueKind() string  { return "tuple" }
func (PinValue) valueKind() string    { return "Pin" }

// Truthy implements Python truthiness for the supported values.
func Truthy(v Value) bool {
	switch v := v.(type) {
	case NoneValue:
		return false
	case BoolValue:
		return v.V
	case IntValue:
		return v.V != 0
	case StringValue:
		return v.V != ""
	case ListValue:
		return len(v.Elems) > 0
	case TupleValue:
		return len(v.Elems) > 0
	default:
		return true
	}
}

// Builtin constructs a value for a constructor call in __init__
// (e.g. Pin(27, OUT)).
type Builtin func(args []Value) (Value, error)

// Env is the execution environment: the board plus extra builtins and
// free-variable bindings (OUT/IN constants are predefined).
type Env struct {
	Board    *hw.Board
	builtins map[string]Builtin
	globals  map[string]Value
	events   []string
}

// Events returns the qualified subsystem calls ("a.test") recorded
// during execution, in order — the concrete counterpart of the
// checker's flattened traces.
func (e *Env) Events() []string { return append([]string(nil), e.events...) }

// NewEnv builds an environment over the board with the MicroPython
// machine constants and the Pin constructor installed.
func NewEnv(board *hw.Board) *Env {
	e := &Env{
		Board:    board,
		builtins: make(map[string]Builtin),
		globals: map[string]Value{
			"OUT": IntValue{V: int64(hw.Out)},
			"IN":  IntValue{V: int64(hw.In)},
		},
	}
	e.builtins["Pin"] = func(args []Value) (Value, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("pyexec: Pin takes (id, mode), got %d args", len(args))
		}
		id, ok := args[0].(IntValue)
		if !ok {
			return nil, fmt.Errorf("pyexec: Pin id must be an int, got %s", args[0].valueKind())
		}
		mode, ok := args[1].(IntValue)
		if !ok {
			return nil, fmt.Errorf("pyexec: Pin mode must be IN or OUT, got %s", args[1].valueKind())
		}
		return PinValue{Pin: board.Pin(int(id.V), hw.Mode(mode.V))}, nil
	}
	return e
}

// Object is a live instance of an annotated base class.
type Object struct {
	class  *pyast.ClassDef
	env    *Env
	fields map[string]Value

	fresh   bool
	lastOp  string
	allowed []string
}

// NewObject instantiates the class: it executes __init__ concretely
// (building pins and other fields) and puts the protocol in the fresh
// state.
func NewObject(cls *pyast.ClassDef, env *Env) (*Object, error) {
	o := &Object{class: cls, env: env, fields: make(map[string]Value), fresh: true}
	if init := cls.Method("__init__"); init != nil {
		if _, _, err := o.execBody(init.Body); err != nil {
			return nil, fmt.Errorf("pyexec: %s.__init__: %w", cls.Name, err)
		}
	}
	return o, nil
}

// Allowed returns the operations callable now: the initial operations
// when fresh, else the continuation the last call actually returned.
func (o *Object) Allowed() []string {
	if o.fresh {
		return initialOps(o.class)
	}
	return append([]string(nil), o.allowed...)
}

// CanStop reports whether the object may be abandoned: it is fresh or
// the last operation carries a final annotation.
func (o *Object) CanStop() bool {
	if o.fresh {
		return true
	}
	return isFinal(o.class, o.lastOp)
}

// Call invokes an operation, enforcing the protocol and executing the
// body concretely. It returns the continuation list the body's return
// produced and the optional user value (nil when absent).
func (o *Object) Call(op string) (next []string, user Value, err error) {
	fn := o.class.Method(op)
	if fn == nil {
		return nil, nil, fmt.Errorf("pyexec: class %s has no method %q", o.class.Name, op)
	}
	allowed := o.Allowed()
	permitted := false
	for _, a := range allowed {
		if a == op {
			permitted = true
			break
		}
	}
	if !permitted {
		return nil, nil, fmt.Errorf("pyexec: %s.%s is not allowed now (allowed: %v)", o.class.Name, op, allowed)
	}

	returned, value, err := o.execBody(fn.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("pyexec: %s.%s: %w", o.class.Name, op, err)
	}
	o.fresh = false
	o.lastOp = op
	o.allowed = nil
	if !returned {
		return nil, nil, nil
	}
	labels, user, err := splitReturn(value)
	if err != nil {
		return nil, nil, fmt.Errorf("pyexec: %s.%s: %w", o.class.Name, op, err)
	}
	o.allowed = labels
	return labels, user, nil
}

// splitReturn interprets a return value per Table 2 of the paper: a
// list of labels, optionally tupled with a user value.
func splitReturn(v Value) ([]string, Value, error) {
	var labelsValue Value = v
	var user Value
	if t, ok := v.(TupleValue); ok {
		if len(t.Elems) == 0 {
			return nil, nil, nil
		}
		labelsValue = t.Elems[0]
		if len(t.Elems) > 1 {
			if len(t.Elems) == 2 {
				user = t.Elems[1]
			} else {
				user = TupleValue{Elems: t.Elems[1:]}
			}
		}
	}
	list, ok := labelsValue.(ListValue)
	if !ok {
		// A non-protocol return (plain value): no continuation declared.
		return nil, v, nil
	}
	labels := make([]string, 0, len(list.Elems))
	for _, e := range list.Elems {
		s, ok := e.(StringValue)
		if !ok {
			return nil, nil, fmt.Errorf("return list must contain strings, got %s", e.valueKind())
		}
		labels = append(labels, s.V)
	}
	return labels, user, nil
}

func initialOps(cls *pyast.ClassDef) []string {
	var out []string
	for _, m := range cls.Methods {
		for _, d := range m.Decorators {
			if d.Name == "op_initial" || d.Name == "op_initial_final" {
				out = append(out, m.Name)
			}
		}
	}
	return out
}

func isFinal(cls *pyast.ClassDef, op string) bool {
	m := cls.Method(op)
	if m == nil {
		return false
	}
	for _, d := range m.Decorators {
		if d.Name == "op_final" || d.Name == "op_initial_final" {
			return true
		}
	}
	return false
}

// maxLoopIterations caps while/for execution as a runaway guard; the
// paper's subset has only terminating loops, and device loops in the
// examples are short.
const maxLoopIterations = 10000

// execBody runs a statement list; returned reports whether a return
// statement fired, with its value.
func (o *Object) execBody(body []pyast.Stmt) (returned bool, value Value, err error) {
	for _, s := range body {
		returned, value, err = o.execStmt(s)
		if err != nil || returned {
			return returned, value, err
		}
	}
	return false, nil, nil
}

func (o *Object) execStmt(s pyast.Stmt) (bool, Value, error) {
	switch s := s.(type) {
	case *pyast.Pass, *pyast.Import:
		return false, nil, nil
	case *pyast.ExprStmt:
		_, err := o.eval(s.X)
		return false, nil, err
	case *pyast.Assign:
		v, err := o.eval(s.Value)
		if err != nil {
			return false, nil, err
		}
		return false, nil, o.assign(s.Target, v)
	case *pyast.Return:
		switch len(s.Values) {
		case 0:
			return true, NoneValue{}, nil
		case 1:
			v, err := o.eval(s.Values[0])
			return true, v, err
		default:
			elems := make([]Value, len(s.Values))
			for i, e := range s.Values {
				v, err := o.eval(e)
				if err != nil {
					return false, nil, err
				}
				elems[i] = v
			}
			return true, TupleValue{Elems: elems}, nil
		}
	case *pyast.If:
		cond, err := o.eval(s.Cond)
		if err != nil {
			return false, nil, err
		}
		if Truthy(cond) {
			return o.execBody(s.Body)
		}
		for _, clause := range s.Elifs {
			c, err := o.eval(clause.Cond)
			if err != nil {
				return false, nil, err
			}
			if Truthy(c) {
				return o.execBody(clause.Body)
			}
		}
		if s.Else != nil {
			return o.execBody(s.Else)
		}
		return false, nil, nil
	case *pyast.Match:
		subject, err := o.eval(s.Subject)
		if err != nil {
			return false, nil, err
		}
		for _, c := range s.Cases {
			ok, err := o.matches(c.Pattern, subject)
			if err != nil {
				return false, nil, err
			}
			if ok {
				return o.execBody(c.Body)
			}
		}
		return false, nil, nil
	case *pyast.While:
		for i := 0; ; i++ {
			if i >= maxLoopIterations {
				return false, nil, fmt.Errorf("while loop exceeded %d iterations", maxLoopIterations)
			}
			cond, err := o.eval(s.Cond)
			if err != nil {
				return false, nil, err
			}
			if !Truthy(cond) {
				return false, nil, nil
			}
			returned, v, err := o.execBody(s.Body)
			if err != nil || returned {
				return returned, v, err
			}
		}
	case *pyast.For:
		items, err := o.iterable(s.Iter)
		if err != nil {
			return false, nil, err
		}
		name, ok := s.Target.(*pyast.NameExpr)
		if !ok {
			return false, nil, fmt.Errorf("for target must be a name")
		}
		for _, item := range items {
			o.env.globals[name.Name] = item
			returned, v, err := o.execBody(s.Body)
			if err != nil || returned {
				return returned, v, err
			}
		}
		return false, nil, nil
	case *pyast.Break, *pyast.Continue:
		return false, nil, fmt.Errorf("break/continue are outside the supported subset")
	default:
		return false, nil, fmt.Errorf("unsupported statement %T", s)
	}
}

func (o *Object) assign(target pyast.Expr, v Value) error {
	switch t := target.(type) {
	case *pyast.NameExpr:
		o.env.globals[t.Name] = v
		return nil
	case *pyast.AttrExpr:
		if base, ok := t.Value.(*pyast.NameExpr); ok && base.Name == "self" {
			o.fields[t.Attr] = v
			return nil
		}
		return fmt.Errorf("can only assign to self.<field> or names")
	default:
		return fmt.Errorf("unsupported assignment target %T", target)
	}
}

func (o *Object) iterable(e pyast.Expr) ([]Value, error) {
	// range(n) and list literals.
	if call, ok := e.(*pyast.CallExpr); ok {
		if name, ok := call.Fn.(*pyast.NameExpr); ok && name.Name == "range" && len(call.Args) == 1 {
			n, err := o.eval(call.Args[0])
			if err != nil {
				return nil, err
			}
			iv, ok := n.(IntValue)
			if !ok || iv.V < 0 || iv.V > maxLoopIterations {
				return nil, fmt.Errorf("range argument out of bounds")
			}
			items := make([]Value, iv.V)
			for i := range items {
				items[i] = IntValue{V: int64(i)}
			}
			return items, nil
		}
	}
	v, err := o.eval(e)
	if err != nil {
		return nil, err
	}
	if list, ok := v.(ListValue); ok {
		return list.Elems, nil
	}
	return nil, fmt.Errorf("cannot iterate over %s", v.valueKind())
}
