// Package ltlf implements linear temporal logic on finite traces (LTLf,
// De Giacomo & Vardi 2013), the logic of Shelley's @claim annotations
// (§2.2 of the paper). A trace is a finite sequence of events (operation
// names such as "a.open"); an atom holds at an instant iff it is the
// event at that instant.
//
// The package provides a parser for the claim syntax, a direct
// finite-trace evaluator, and a compiler from formulas to DFAs via
// formula progression — realizing the paper's future-work plan of
// checking claims directly on regular languages instead of encoding
// them for NuSMV.
package ltlf

import (
	"sort"
	"strings"
	"sync"
)

// Formula is an LTLf formula node. Formulas are immutable.
type Formula interface {
	// String renders the formula using the claim syntax: ! & | ->
	// X N U W R G F, with atoms as dotted names.
	String() string

	precedence() int

	// appendKey appends the formula's canonical structural key to b.
	appendKey(b []byte) []byte
}

type (
	// Tru is the constant true.
	Tru struct{}

	// Fls is the constant false.
	Fls struct{}

	// Atom holds at an instant iff the event at that instant equals
	// Name.
	Atom struct{ Name string }

	// Not is logical negation.
	Not struct{ X Formula }

	// And is conjunction (n-ary, flattened and deduplicated).
	And struct{ Xs []Formula }

	// Or is disjunction (n-ary, flattened and deduplicated).
	Or struct{ Xs []Formula }

	// Implies is material implication.
	Implies struct{ L, R Formula }

	// Next is the strong next: a next instant exists and satisfies X.
	Next struct{ X Formula }

	// WeakNext is the weak next: the trace ends here, or the next
	// instant satisfies X.
	WeakNext struct{ X Formula }

	// Until is the strong until: R eventually holds, and L holds at
	// every earlier instant.
	Until struct{ L, R Formula }

	// WeakUntil is L W R = (L U R) | G L.
	WeakUntil struct{ L, R Formula }

	// Release is L R R2: R2 holds up to and including the instant where
	// L first holds; if L never holds, R2 holds forever.
	Release struct{ L, R Formula }

	// Globally is G X: X holds at every instant (vacuously true on the
	// empty trace).
	Globally struct{ X Formula }

	// Finally is F X: X holds at some instant.
	Finally struct{ X Formula }

	// nonempty is an internal pseudo-atom produced by progression of a
	// strong Next: it holds exactly on non-empty traces.
	nonempty struct{}
)

// Constructors. True/False/NewAtom are trivial; AndOf/OrOf normalize
// (flatten, drop units, deduplicate, sort) so that progression states
// have canonical keys.

// True returns the constant true.
func True() Formula { return Tru{} }

// False returns the constant false.
func False() Formula { return Fls{} }

// NewAtom returns the atom with the given event name.
func NewAtom(name string) Formula { return Atom{Name: name} }

// NotOf returns the negation of x, folding constants and double
// negation.
func NotOf(x Formula) Formula {
	switch x := x.(type) {
	case Tru:
		return Fls{}
	case Fls:
		return Tru{}
	case Not:
		return x.X
	}
	return Not{X: x}
}

// AndOf returns the conjunction of xs in normal form.
func AndOf(xs ...Formula) Formula {
	seen := make(map[string]struct{})
	var parts []Formula
	var keys []string            // keys[i] is the key of parts[i]
	var add func(f Formula) bool // returns false on contradiction
	add = func(f Formula) bool {
		switch f := f.(type) {
		case Tru:
			return true
		case Fls:
			return false
		case And:
			for _, p := range f.Xs {
				if !add(p) {
					return false
				}
			}
			return true
		default:
			k := key(f)
			if _, dup := seen[k]; dup {
				return true
			}
			// a & !a = false
			if _, clash := seen[negKey(f, k)]; clash {
				return false
			}
			seen[k] = struct{}{}
			parts = append(parts, f)
			keys = append(keys, k)
			return true
		}
	}
	for _, x := range xs {
		if !add(x) {
			return Fls{}
		}
	}
	switch len(parts) {
	case 0:
		return Tru{}
	case 1:
		return parts[0]
	}
	sort.Sort(byKey{parts, keys})
	return And{Xs: parts}
}

// OrOf returns the disjunction of xs in normal form.
func OrOf(xs ...Formula) Formula {
	seen := make(map[string]struct{})
	var parts []Formula
	var keys []string            // keys[i] is the key of parts[i]
	var add func(f Formula) bool // returns false on tautology
	add = func(f Formula) bool {
		switch f := f.(type) {
		case Fls:
			return true
		case Tru:
			return false
		case Or:
			for _, p := range f.Xs {
				if !add(p) {
					return false
				}
			}
			return true
		default:
			k := key(f)
			if _, dup := seen[k]; dup {
				return true
			}
			if _, clash := seen[negKey(f, k)]; clash {
				return false
			}
			seen[k] = struct{}{}
			parts = append(parts, f)
			keys = append(keys, k)
			return true
		}
	}
	for _, x := range xs {
		if !add(x) {
			return Tru{}
		}
	}
	switch len(parts) {
	case 0:
		return Fls{}
	case 1:
		return parts[0]
	}
	sort.Sort(byKey{parts, keys})
	return Or{Xs: parts}
}

// ImpliesOf returns l -> r.
func ImpliesOf(l, r Formula) Formula { return Implies{L: l, R: r} }

// NextOf returns X x.
func NextOf(x Formula) Formula { return Next{X: x} }

// WeakNextOf returns N x.
func WeakNextOf(x Formula) Formula { return WeakNext{X: x} }

// UntilOf returns l U r.
func UntilOf(l, r Formula) Formula { return Until{L: l, R: r} }

// WeakUntilOf returns l W r.
func WeakUntilOf(l, r Formula) Formula { return WeakUntil{L: l, R: r} }

// ReleaseOf returns l R r.
func ReleaseOf(l, r Formula) Formula { return Release{L: l, R: r} }

// GloballyOf returns G x.
func GloballyOf(x Formula) Formula { return Globally{X: x} }

// FinallyOf returns F x.
func FinallyOf(x Formula) Formula { return Finally{X: x} }

// precedence levels (looser binds lower).
const (
	precImplies = iota + 1
	precOr
	precAnd
	precTemporalBin // U, W, R
	precUnary       // !, X, N, G, F
	precAtomic
)

func (Tru) precedence() int       { return precAtomic }
func (Fls) precedence() int       { return precAtomic }
func (Atom) precedence() int      { return precAtomic }
func (nonempty) precedence() int  { return precAtomic }
func (Not) precedence() int       { return precUnary }
func (Next) precedence() int      { return precUnary }
func (WeakNext) precedence() int  { return precUnary }
func (Globally) precedence() int  { return precUnary }
func (Finally) precedence() int   { return precUnary }
func (Until) precedence() int     { return precTemporalBin }
func (WeakUntil) precedence() int { return precTemporalBin }
func (Release) precedence() int   { return precTemporalBin }
func (And) precedence() int       { return precAnd }
func (Or) precedence() int        { return precOr }
func (Implies) precedence() int   { return precImplies }

func (Tru) String() string      { return "true" }
func (Fls) String() string      { return "false" }
func (a Atom) String() string   { return a.Name }
func (nonempty) String() string { return "<nonempty>" }

func (f Not) String() string      { return "!" + child(f.X, precUnary) }
func (f Next) String() string     { return "X " + child(f.X, precUnary) }
func (f WeakNext) String() string { return "N " + child(f.X, precUnary) }
func (f Globally) String() string { return "G " + child(f.X, precUnary) }
func (f Finally) String() string  { return "F " + child(f.X, precUnary) }

func (f Until) String() string {
	return child(f.L, precUnary) + " U " + child(f.R, precTemporalBin)
}
func (f WeakUntil) String() string {
	return child(f.L, precUnary) + " W " + child(f.R, precTemporalBin)
}
func (f Release) String() string {
	return child(f.L, precUnary) + " R " + child(f.R, precTemporalBin)
}

func (f And) String() string { return joinChildren(f.Xs, " & ", precAnd) }
func (f Or) String() string  { return joinChildren(f.Xs, " | ", precOr) }

func (f Implies) String() string {
	return child(f.L, precOr) + " -> " + child(f.R, precImplies)
}

func child(f Formula, parent int) string {
	if f.precedence() < parent {
		return "(" + f.String() + ")"
	}
	return f.String()
}

func joinChildren(fs []Formula, sep string, parent int) string {
	var b strings.Builder
	for i, f := range fs {
		if i > 0 {
			b.WriteString(sep)
		}
		// Children at the same precedence level are fine (assoc), below
		// need parens.
		if f.precedence() < parent {
			b.WriteString("(")
			b.WriteString(f.String())
			b.WriteString(")")
		} else {
			b.WriteString(f.String())
		}
	}
	return b.String()
}

func (Tru) appendKey(b []byte) []byte      { return append(b, 'T') }
func (Fls) appendKey(b []byte) []byte      { return append(b, 'F') }
func (a Atom) appendKey(b []byte) []byte   { return append(append(append(b, "a("...), a.Name...), ')') }
func (nonempty) appendKey(b []byte) []byte { return append(b, "ne"...) }
func (f Not) appendKey(b []byte) []byte    { return unaryKey(b, "!(", f.X) }
func (f Next) appendKey(b []byte) []byte   { return unaryKey(b, "X(", f.X) }
func (f WeakNext) appendKey(b []byte) []byte {
	return unaryKey(b, "N(", f.X)
}
func (f Globally) appendKey(b []byte) []byte  { return unaryKey(b, "G(", f.X) }
func (f Finally) appendKey(b []byte) []byte   { return unaryKey(b, "Fi(", f.X) }
func (f Until) appendKey(b []byte) []byte     { return naryKey(b, "U(", f.L, f.R) }
func (f WeakUntil) appendKey(b []byte) []byte { return naryKey(b, "W(", f.L, f.R) }
func (f Release) appendKey(b []byte) []byte   { return naryKey(b, "R(", f.L, f.R) }
func (f And) appendKey(b []byte) []byte       { return naryKey(b, "&(", f.Xs...) }
func (f Or) appendKey(b []byte) []byte        { return naryKey(b, "|(", f.Xs...) }
func (f Implies) appendKey(b []byte) []byte   { return naryKey(b, "->(", f.L, f.R) }

func unaryKey(b []byte, op string, x Formula) []byte {
	return append(x.appendKey(append(b, op...)), ')')
}

func naryKey(b []byte, op string, xs ...Formula) []byte {
	b = append(b, op...)
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = x.appendKey(b)
	}
	return append(b, ')')
}

// keyBufs pools the buffers key renders into, so a key costs one
// allocation: the string.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// key returns f's canonical structural key.
func key(f Formula) string {
	if a, ok := f.(Atom); ok {
		return "a(" + a.Name + ")"
	}
	bp := keyBufs.Get().(*[]byte)
	*bp = f.appendKey((*bp)[:0])
	k := string(*bp)
	keyBufs.Put(bp)
	return k
}

// negKey returns the key of NotOf(f), given f's key k, for any f but
// the constants.
func negKey(f Formula, k string) string {
	if n, ok := f.(Not); ok {
		return key(n.X)
	}
	return "!(" + k + ")"
}

// byKey sorts distinct formulas by their keys.
type byKey struct {
	parts []Formula
	keys  []string
}

func (s byKey) Len() int           { return len(s.parts) }
func (s byKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s byKey) Swap(i, j int) {
	s.parts[i], s.parts[j] = s.parts[j], s.parts[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// Atoms returns the sorted set of atom names occurring in f.
func Atoms(f Formula) []string {
	set := make(map[string]struct{})
	var walk func(Formula)
	walk = func(f Formula) {
		switch f := f.(type) {
		case Atom:
			set[f.Name] = struct{}{}
		case Not:
			walk(f.X)
		case Next:
			walk(f.X)
		case WeakNext:
			walk(f.X)
		case Globally:
			walk(f.X)
		case Finally:
			walk(f.X)
		case Until:
			walk(f.L)
			walk(f.R)
		case WeakUntil:
			walk(f.L)
			walk(f.R)
		case Release:
			walk(f.L)
			walk(f.R)
		case Implies:
			walk(f.L)
			walk(f.R)
		case And:
			for _, x := range f.Xs {
				walk(x)
			}
		case Or:
			for _, x := range f.Xs {
				walk(x)
			}
		}
	}
	walk(f)
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
