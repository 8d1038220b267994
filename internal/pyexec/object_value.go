package pyexec

import (
	"fmt"

	"github.com/shelley-go/shelley/internal/pyast"
)

// ObjectValue wraps a live instance of another annotated class, so
// composite classes execute concretely end to end: `self.a = Valve()`
// in __init__ instantiates a device object, and
// `match self.a.test(): case ["open"]: ...` dispatches on the list the
// device's method *actually* returned — the real MicroPython semantics
// that the static analysis abstracts into nondeterminism.
type ObjectValue struct{ Object *Object }

func (ObjectValue) valueKind() string { return "object" }

// RegisterClass makes a class constructible by name inside method
// bodies (typically from a composite's __init__).
func (e *Env) RegisterClass(cls *pyast.ClassDef) {
	e.builtins[cls.Name] = func(args []Value) (Value, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("pyexec: constructor %s takes no arguments in the subset", cls.Name)
		}
		obj, err := NewObject(cls, e)
		if err != nil {
			return nil, err
		}
		return ObjectValue{Object: obj}, nil
	}
}

// callObjectMethod dispatches a method call on a wrapped object: the
// call is subject to the callee's own protocol, and its value is the
// return list (or (list, user) tuple) the body produced — exactly what
// the caller's match statement inspects.
func callObjectMethod(recv ObjectValue, method string, args []Value) (Value, error) {
	if len(args) != 0 {
		return nil, fmt.Errorf("pyexec: method arguments are outside the subset")
	}
	next, user, err := recv.Object.Call(method)
	if err != nil {
		return nil, err
	}
	labels := make([]Value, len(next))
	for i, l := range next {
		labels[i] = StringValue{V: l}
	}
	if user == nil {
		return ListValue{Elems: labels}, nil
	}
	return TupleValue{Elems: []Value{ListValue{Elems: labels}, user}}, nil
}
