package regex

// This file implements Brzozowski derivatives, the engine behind matching
// (match.go), bounded language enumeration (enumerate.go), and decision of
// language equivalence (equiv.go).
//
// The derivative of r with respect to symbol f, written ∂f r, denotes the
// language { l | f·l ∈ L(r) }. Together with nullability (ε ∈ L(r)?) it
// gives a decision procedure for membership:
//
//	[f1,...,fn] ∈ L(r)  ⇔  Nullable(∂fn ... ∂f1 r)
//
// Because the smart constructors normalize modulo ACI of +, the set of
// iterated derivatives of any expression is finite (Brzozowski 1964), so
// derivatives also induce a deterministic finite automaton whose states
// are expressions; equiv.go exploits this.

// Nullable reports whether the empty trace belongs to L(r).
func Nullable(r Regex) bool {
	switch r := r.(type) {
	case EmptySet:
		return false
	case EmptyString:
		return true
	case Sym:
		return false
	case Cat:
		for _, p := range r.Parts {
			if !Nullable(p) {
				return false
			}
		}
		return true
	case Alt:
		for _, p := range r.Parts {
			if Nullable(p) {
				return true
			}
		}
		return false
	case Rep:
		return true
	}
	return false
}

// Derivative returns ∂f r, the Brzozowski derivative of r by symbol f,
// in normal form.
func Derivative(r Regex, f string) Regex {
	switch r := r.(type) {
	case EmptySet, EmptyString:
		return emptySet
	case Sym:
		if r.Name == f {
			return emptyString
		}
		return emptySet
	case Cat:
		// ∂f (p1·rest) = (∂f p1)·rest  +  [p1 nullable] ∂f rest
		head := r.Parts[0]
		rest := Concat(r.Parts[1:]...)
		d := Concat(Derivative(head, f), rest)
		if Nullable(head) {
			d = Union(d, Derivative(rest, f))
		}
		return d
	case Alt:
		parts := make([]Regex, len(r.Parts))
		for i, p := range r.Parts {
			parts[i] = Derivative(p, f)
		}
		return Union(parts...)
	case Rep:
		return Concat(Derivative(r.Inner, f), r)
	}
	return emptySet
}

// DeriveTrace applies Derivative successively for each symbol of the
// trace, returning the residual expression.
func DeriveTrace(r Regex, trace []string) Regex {
	for _, f := range trace {
		r = Derivative(r, f)
		if _, dead := r.(EmptySet); dead {
			return emptySet
		}
	}
	return r
}

// Match reports whether the trace belongs to L(r).
func Match(r Regex, trace []string) bool {
	return Nullable(DeriveTrace(r, trace))
}
