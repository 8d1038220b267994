// Package regex implements the regular-expression calculus used by the
// Shelley behavior inference (paper §3.2):
//
//	r ::= ε | ∅ | f | r·r | r + r | r*
//
// where ε is the empty string, ∅ the empty language, f a single symbol
// (a method label such as "a.open"), r·r concatenation, r+r union, and r*
// the Kleene star.
//
// Expressions are immutable trees built through smart constructors that
// keep them in a light normal form (associativity of · and +, commutativity
// and idempotence of +, annihilation and identity laws for ∅ and ε). The
// normal form makes Brzozowski derivatives (see derivative.go) produce a
// finite state space, which in turn makes equivalence checking decidable
// (see equiv.go).
package regex

import (
	"sort"
	"strings"
	"sync"
)

// Regex is a node of a regular expression over string-labelled symbols.
//
// The zero value of the package-level helpers is not used; construct
// expressions with Empty, Epsilon, Symbol, Concat, Union, and Star.
type Regex interface {
	// String renders the expression in the paper's concrete syntax,
	// parenthesizing only where required.
	String() string

	// precedence is used by String for minimal parenthesization.
	precedence() int

	// appendKey appends the canonical encoding used for hashing and
	// ordering (Key) to b. Two structurally equal expressions have
	// equal keys.
	appendKey(b []byte) []byte
}

// The concrete node kinds. They are exported so that callers (e.g. the
// automata package and pretty printers) can pattern-match on expression
// structure.
type (
	// EmptySet is ∅, the language containing no traces.
	EmptySet struct{}

	// EmptyString is ε, the language containing only the empty trace.
	EmptyString struct{}

	// Sym is a single symbol f; its language is {[f]}.
	Sym struct{ Name string }

	// Cat is the concatenation r1·r2·...·rn (n ≥ 2), flattened.
	Cat struct{ Parts []Regex }

	// Alt is the union r1 + r2 + ... + rn (n ≥ 2), flattened, sorted by
	// key, and deduplicated.
	Alt struct{ Parts []Regex }

	// Rep is the Kleene star r*.
	Rep struct{ Inner Regex }
)

var (
	_ Regex = EmptySet{}
	_ Regex = EmptyString{}
	_ Regex = Sym{}
	_ Regex = Cat{}
	_ Regex = Alt{}
	_ Regex = Rep{}
)

var (
	emptySet    = EmptySet{}
	emptyString = EmptyString{}
)

// Empty returns ∅, the empty language.
func Empty() Regex { return emptySet }

// Epsilon returns ε, the language of the empty trace.
func Epsilon() Regex { return emptyString }

// Symbol returns the single-symbol expression f.
func Symbol(name string) Regex { return Sym{Name: name} }

// Concat returns the concatenation r1·...·rn in normal form:
//
//   - any ∅ factor annihilates the whole product,
//   - ε factors are dropped,
//   - nested concatenations are flattened.
//
// Concat() is ε and Concat(r) is r.
func Concat(rs ...Regex) Regex {
	// Count the factors first, so the product allocates only when it
	// has two or more, and then exactly once.
	n := 0
	for _, r := range rs {
		switch r := r.(type) {
		case EmptySet:
			return emptySet
		case EmptyString:
			// identity: drop.
		case Cat:
			n += len(r.Parts)
		default:
			n++
		}
	}
	switch n {
	case 0:
		return emptyString
	case 1:
		for _, r := range rs {
			switch r := r.(type) {
			case EmptyString:
			case Cat:
				if len(r.Parts) == 1 {
					return r.Parts[0]
				}
			default:
				return r
			}
		}
	}
	parts := make([]Regex, 0, n)
	for _, r := range rs {
		switch r := r.(type) {
		case EmptyString:
		case Cat:
			parts = append(parts, r.Parts...)
		default:
			parts = append(parts, r)
		}
	}
	return Cat{Parts: parts}
}

// Union returns the union r1 + ... + rn in normal form:
//
//   - ∅ summands are dropped,
//   - nested unions are flattened,
//   - duplicate summands are removed,
//   - summands are sorted into a canonical order (so + is commutative
//     and associative up to structural equality).
//
// Union() is ∅ and Union(r) is r.
func Union(rs ...Regex) Regex {
	seen := make(map[string]struct{}, len(rs))
	parts := make([]Regex, 0, len(rs))
	keys := make([]string, 0, len(rs)) // keys[i] is the key of parts[i]
	var add func(r Regex)
	add = func(r Regex) {
		switch r := r.(type) {
		case EmptySet:
			// identity of +: drop.
		case Alt:
			for _, p := range r.Parts {
				add(p)
			}
		default:
			k := Key(r)
			if _, dup := seen[k]; dup {
				return
			}
			seen[k] = struct{}{}
			parts = append(parts, r)
			keys = append(keys, k)
		}
	}
	for _, r := range rs {
		add(r)
	}
	switch len(parts) {
	case 0:
		return emptySet
	case 1:
		return parts[0]
	}
	sort.Sort(byKey{parts, keys})
	return Alt{Parts: parts}
}

// Star returns r* in normal form: ∅* = ε* = ε and (r*)* = r*.
func Star(r Regex) Regex {
	switch r := r.(type) {
	case EmptySet, EmptyString:
		return emptyString
	case Rep:
		return r
	}
	return Rep{Inner: r}
}

// precedence levels: union < concat < star/atom.
const (
	precUnion = iota + 1
	precCat
	precAtom
)

func (EmptySet) precedence() int    { return precAtom }
func (EmptyString) precedence() int { return precAtom }
func (Sym) precedence() int         { return precAtom }
func (Cat) precedence() int         { return precCat }
func (Alt) precedence() int         { return precUnion }
func (Rep) precedence() int         { return precAtom }

func (EmptySet) String() string    { return "0" }
func (EmptyString) String() string { return "1" }
func (s Sym) String() string       { return s.Name }

func (c Cat) String() string {
	var b strings.Builder
	for i, p := range c.Parts {
		if i > 0 {
			b.WriteString(" . ")
		}
		writeChild(&b, p, precCat)
	}
	return b.String()
}

func (a Alt) String() string {
	var b strings.Builder
	for i, p := range a.Parts {
		if i > 0 {
			b.WriteString(" + ")
		}
		writeChild(&b, p, precUnion)
	}
	return b.String()
}

func (r Rep) String() string {
	var b strings.Builder
	// The star binds tighter than · and +, so any non-atom child needs
	// parentheses.
	writeChild(&b, r.Inner, precAtom)
	b.WriteString("*")
	return b.String()
}

func writeChild(b *strings.Builder, child Regex, parent int) {
	if child.precedence() < parent || needsAtomParens(child, parent) {
		b.WriteString("(")
		b.WriteString(child.String())
		b.WriteString(")")
		return
	}
	b.WriteString(child.String())
}

// needsAtomParens forces parentheses around non-atomic children of star.
func needsAtomParens(child Regex, parent int) bool {
	if parent != precAtom {
		return false
	}
	switch child.(type) {
	case Cat, Alt:
		return true
	}
	return false
}

func (EmptySet) appendKey(b []byte) []byte    { return append(b, 0) }
func (EmptyString) appendKey(b []byte) []byte { return append(b, 1) }
func (s Sym) appendKey(b []byte) []byte       { return append(append(b, 2), s.Name...) }
func (c Cat) appendKey(b []byte) []byte       { return appendParts(append(b, 3, '('), c.Parts) }
func (a Alt) appendKey(b []byte) []byte       { return appendParts(append(b, 4, '('), a.Parts) }
func (r Rep) appendKey(b []byte) []byte {
	return append(r.Inner.appendKey(append(b, 5, '(')), ')')
}

func appendParts(b []byte, parts []Regex) []byte {
	for _, p := range parts {
		b = append(p.appendKey(b), ',')
	}
	return append(b, ')')
}

// keyBufs pools the buffers keys render into, so a key costs one
// allocation (the string) and a comparison none.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// Key exposes the canonical structural encoding of r. It is stable within
// a process and suitable for use as a map key. Two expressions have the
// same Key exactly when they are structurally equal after the smart
// constructors' normalization.
func Key(r Regex) string {
	if s, ok := r.(Sym); ok {
		return "\x02" + s.Name
	}
	bp := keyBufs.Get().(*[]byte)
	*bp = r.appendKey((*bp)[:0])
	k := string(*bp)
	keyBufs.Put(bp)
	return k
}

// byKey sorts distinct expressions by their keys.
type byKey struct {
	parts []Regex
	keys  []string
}

func (s byKey) Len() int           { return len(s.parts) }
func (s byKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s byKey) Swap(i, j int) {
	s.parts[i], s.parts[j] = s.parts[j], s.parts[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// SizeWithin reports whether the expression tree of r has at most max
// nodes, visiting at most max+1 nodes: the early exit makes it the right
// primitive for enforcing a regex-size budget on expressions that may be
// astronomically larger than the budget itself (state elimination can
// square sizes per eliminated state). max <= 0 means unlimited and always reports true.
func SizeWithin(r Regex, max int) bool {
	if max <= 0 {
		return true
	}
	left := max
	return sizeWithin(r, &left)
}

func sizeWithin(r Regex, left *int) bool {
	*left--
	if *left < 0 {
		return false
	}
	switch r := r.(type) {
	case Cat:
		for _, p := range r.Parts {
			if !sizeWithin(p, left) {
				return false
			}
		}
	case Alt:
		for _, p := range r.Parts {
			if !sizeWithin(p, left) {
				return false
			}
		}
	case Rep:
		return sizeWithin(r.Inner, left)
	}
	return true
}

// Alphabet returns the set of symbol names occurring in r, sorted.
func Alphabet(r Regex) []string {
	set := make(map[string]struct{})
	collectAlphabet(r, set)
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func collectAlphabet(r Regex, set map[string]struct{}) {
	switch r := r.(type) {
	case Sym:
		set[r.Name] = struct{}{}
	case Cat:
		for _, p := range r.Parts {
			collectAlphabet(p, set)
		}
	case Alt:
		for _, p := range r.Parts {
			collectAlphabet(p, set)
		}
	case Rep:
		collectAlphabet(r.Inner, set)
	}
}

// IsEmptyLanguage reports whether L(r) = ∅, i.e. r denotes no traces at
// all. Thanks to the smart constructors ∅ can only survive normalization
// at the top level or under concatenation with symbols, so a structural
// check suffices for normalized expressions; this function is nevertheless
// written to be correct for arbitrary trees.
func IsEmptyLanguage(r Regex) bool {
	switch r := r.(type) {
	case EmptySet:
		return true
	case EmptyString, Sym, Rep:
		return false
	case Cat:
		for _, p := range r.Parts {
			if IsEmptyLanguage(p) {
				return true
			}
		}
		return false
	case Alt:
		for _, p := range r.Parts {
			if !IsEmptyLanguage(p) {
				return false
			}
		}
		return true
	}
	return false
}
