// Package ir defines the small imperative calculus that the paper's
// behavior inference operates on (Fig. 4):
//
//	p ::= f() | skip | return | p;p | if(★){p}else{p} | loop(★){p}
//
// The calculus is an abstraction of MicroPython: it captures control flow
// and (constrained-object) method calls, and nothing else. Conditions are
// erased — `if` is a nondeterministic choice and `loop` runs its body an
// unknown number of iterations. `return` carries no value at this level;
// the label sets of MicroPython `return ["m1", ...]` statements are kept
// separately by the lowering pass (internal/lower) for dependency-graph
// construction (§3.1).
package ir

import "strings"

// Program is a node of the calculus. Programs are immutable.
type Program interface {
	// String renders the program in the paper's concrete syntax.
	String() string

	write(b *strings.Builder)
}

type (
	// Call is f(): invoking method f of a constrained object. The label
	// is a qualified operation name such as "a.open" or "test".
	Call struct{ Label string }

	// Skip is any MicroPython instruction of no interest to the analysis.
	Skip struct{}

	// Return is a return statement; the returned value is ignored here.
	// The optional ExitID links the node to the exit point recorded by
	// the lowering pass, letting diagnostics refer back to source; it
	// does not affect semantics or inference.
	Return struct{ ExitID int }

	// Seq is p1;p2.
	Seq struct{ First, Second Program }

	// If is if(★){Then}else{Else} — nondeterministic choice.
	If struct{ Then, Else Program }

	// Loop is loop(★){Body} — an unknown number of iterations.
	Loop struct{ Body Program }
)

var (
	_ Program = Call{}
	_ Program = Skip{}
	_ Program = Return{}
	_ Program = Seq{}
	_ Program = If{}
	_ Program = Loop{}
)

// NewCall returns the call node f().
func NewCall(label string) Program { return Call{Label: label} }

// NewSkip returns skip.
func NewSkip() Program { return Skip{} }

// NewSeq sequences the given programs left-to-right: Seqs(a,b,c) is
// a;(b;c). With no arguments it returns skip, keeping callers simple.
func NewSeq(ps ...Program) Program {
	switch len(ps) {
	case 0:
		return Skip{}
	case 1:
		return ps[0]
	}
	out := ps[len(ps)-1]
	for i := len(ps) - 2; i >= 0; i-- {
		out = Seq{First: ps[i], Second: out}
	}
	return out
}

// NewIf returns if(★){then}else{els}.
func NewIf(then, els Program) Program { return If{Then: then, Else: els} }

// NewChoice folds n ≥ 1 alternatives into nested binary choices; it models
// if/elif/else chains and match statements with n cases. With a single
// alternative it returns it unchanged.
func NewChoice(alts ...Program) Program {
	switch len(alts) {
	case 0:
		return Skip{}
	case 1:
		return alts[0]
	}
	out := alts[len(alts)-1]
	for i := len(alts) - 2; i >= 0; i-- {
		out = If{Then: alts[i], Else: out}
	}
	return out
}

// NewLoop returns loop(★){body}.
func NewLoop(body Program) Program { return Loop{Body: body} }

func (c Call) String() string   { return render(c) }
func (Skip) String() string     { return render(Skip{}) }
func (r Return) String() string { return render(r) }
func (s Seq) String() string    { return render(s) }
func (i If) String() string     { return render(i) }
func (l Loop) String() string   { return render(l) }

func render(p Program) string {
	var b strings.Builder
	p.write(&b)
	return b.String()
}

func (c Call) write(b *strings.Builder) {
	b.WriteString(c.Label)
	b.WriteString("()")
}

func (Skip) write(b *strings.Builder) { b.WriteString("skip") }

func (Return) write(b *strings.Builder) { b.WriteString("return") }

func (s Seq) write(b *strings.Builder) {
	s.First.write(b)
	b.WriteString("; ")
	s.Second.write(b)
}

func (i If) write(b *strings.Builder) {
	b.WriteString("if(*) { ")
	i.Then.write(b)
	b.WriteString(" } else { ")
	i.Else.write(b)
	b.WriteString(" }")
}

func (l Loop) write(b *strings.Builder) {
	b.WriteString("loop(*) { ")
	l.Body.write(b)
	b.WriteString(" }")
}

// Labels returns the set of call labels occurring in p, in first-occurrence
// order.
func Labels(p Program) []string {
	var out []string
	seen := make(map[string]struct{})
	var walk func(Program)
	walk = func(p Program) {
		switch p := p.(type) {
		case Call:
			if _, dup := seen[p.Label]; !dup {
				seen[p.Label] = struct{}{}
				out = append(out, p.Label)
			}
		case Seq:
			walk(p.First)
			walk(p.Second)
		case If:
			walk(p.Then)
			walk(p.Else)
		case Loop:
			walk(p.Body)
		}
	}
	walk(p)
	return out
}
