package lower

import (
	"fmt"
	"strings"

	"github.com/shelley-go/shelley/internal/pyast"
)

// SubsystemTypes inspects a composite class's __init__ and maps each
// declared subsystem field to the class it is constructed from:
//
//	self.a = Valve()   →   {"a": "Valve"}
//
// Fields declared in @sys([...]) but never assigned a constructor call in
// __init__ are reported as errors, as are assignments of non-constructor
// expressions to declared fields.
func SubsystemTypes(cls *pyast.ClassDef, declared []string) (map[string]string, error) {
	want := make(map[string]struct{}, len(declared))
	for _, d := range declared {
		want[d] = struct{}{}
	}
	out := make(map[string]string, len(declared))

	init := cls.Method("__init__")
	if init == nil {
		if len(declared) == 0 {
			return out, nil
		}
		return nil, fmt.Errorf("class %s declares subsystems %v but has no __init__", cls.Name, declared)
	}
	for _, s := range init.Body {
		asg, ok := s.(*pyast.Assign)
		if !ok {
			continue
		}
		target, ok := pyast.DottedName(asg.Target)
		if !ok {
			continue
		}
		parts := strings.Split(target, ".")
		if len(parts) != 2 || parts[0] != "self" {
			continue
		}
		field := parts[1]
		if _, isDeclared := want[field]; !isDeclared {
			continue
		}
		call, ok := asg.Value.(*pyast.CallExpr)
		if !ok {
			return nil, &Error{
				Pos: asg.Pos(),
				Msg: fmt.Sprintf("subsystem field %q must be initialized with a constructor call", field),
			}
		}
		typeName, ok := pyast.DottedName(call.Fn)
		if !ok {
			return nil, &Error{
				Pos: asg.Pos(),
				Msg: fmt.Sprintf("subsystem field %q has an unsupported constructor expression", field),
			}
		}
		if prev, dup := out[field]; dup {
			return nil, &Error{
				Pos: asg.Pos(),
				Msg: fmt.Sprintf("subsystem field %q initialized twice (%s, then %s)", field, prev, typeName),
			}
		}
		out[field] = typeName
	}
	for _, d := range declared {
		if _, ok := out[d]; !ok {
			return nil, fmt.Errorf("class %s: declared subsystem %q is never initialized in __init__", cls.Name, d)
		}
	}
	return out, nil
}
