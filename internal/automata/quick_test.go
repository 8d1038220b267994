package automata

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/shelley-go/shelley/internal/regex"
)

// Property-based tests (testing/quick) of the boolean algebra of
// regular languages as realized by the DFA operations and the product
// search.

type dfaPair struct {
	a, b *DFA
	r1   regex.Regex
	r2   regex.Regex
}

func (dfaPair) Generate(rng *rand.Rand, _ int) reflect.Value {
	r1 := randomRegex(rng, 3)
	r2 := randomRegex(rng, 3)
	return reflect.ValueOf(dfaPair{
		a:  CompileMinimal(r1),
		b:  CompileMinimal(r2),
		r1: r1,
		r2: r2,
	})
}

var quickTraces = allTraces([]string{"a", "b", "c"}, 3)

// TestQuickProductImplementsBooleanAlgebra: under every boolean
// operation, the product search's first witness is the shortlex-least
// trace of length at most 3 that satisfies it, by membership in both
// languages; when no such trace exists, any witness is longer and
// satisfies the operation.
func TestQuickProductImplementsBooleanAlgebra(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	f := func(p dfaPair) bool {
		for _, tt := range boolOps {
			ws, _ := productSearch(t, p.a, p.b, tt.op, 1)
			var want []string
			found := false
			for _, tr := range quickTraces {
				if tt.op(p.a.Accepts(tr), p.b.Accepts(tr)) {
					want, found = tr, true
					break
				}
			}
			switch {
			case found:
				if len(ws) == 0 || !reflect.DeepEqual(ws[0], want) {
					return false
				}
			case len(ws) > 0:
				if len(ws[0]) <= 3 || !tt.op(p.a.Accepts(ws[0]), p.b.Accepts(ws[0])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickDeMorgan: a ∪ b = ¬(¬a ∩ ¬b). Complement is
// alphabet-relative, so both operands are first relabeled onto their
// joint alphabet; the union search over them and the "not both" search
// over their complements find the same first witness, and membership
// agrees on every trace up to length 3.
func TestQuickDeMorgan(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	f := func(p dfaPair) bool {
		alpha := sortedSet(append(append([]string(nil), p.a.Alphabet()...), p.b.Alphabet()...))
		id := func(sym string) string { return sym }
		pa, pb := p.a.Relabel(alpha, id), p.b.Relabel(alpha, id)
		ca, cb := pa.Complement(), pb.Complement()
		lhs, _ := productSearch(t, pa, pb, func(x, y bool) bool { return x || y }, 1)
		rhs, _ := productSearch(t, ca, cb, func(x, y bool) bool { return !(x && y) }, 1)
		if !reflect.DeepEqual(lhs, rhs) {
			return false
		}
		for _, tr := range allTraces(alpha, 3) {
			if (pa.Accepts(tr) || pb.Accepts(tr)) == (ca.Accepts(tr) && cb.Accepts(tr)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickDoubleComplement(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	f := func(p dfaPair) bool {
		cc := p.a.Complement().Complement()
		for _, tr := range quickTraces {
			if cc.Accepts(tr) != p.a.Accepts(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMinimizeIdempotentAndCanonical(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100}
	f := func(p dfaPair) bool {
		m1 := p.a.Minimize()
		m2 := m1.Minimize()
		if !sameDFA(m1, m2) {
			return false
		}
		// Minimization of an equivalent automaton built differently
		// yields the same structure.
		alt := FromRegexThompson(p.r1).Determinize().Minimize()
		return sameDFA(m1, alt)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickEquivalentMatchesTraceComparison(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	f := func(p dfaPair) bool {
		w, eq := Distinguish(p.a, p.b)
		if eq {
			for _, tr := range quickTraces {
				if p.a.Accepts(tr) != p.b.Accepts(tr) {
					return false
				}
			}
			return true
		}
		return p.a.Accepts(w) != p.b.Accepts(w)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsetConsistent(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	f := func(p dfaPair) bool {
		ok, w := SubsetDFA(p.a, p.b)
		if ok {
			for _, tr := range quickTraces {
				if p.a.Accepts(tr) && !p.b.Accepts(tr) {
					return false
				}
			}
			return true
		}
		return p.a.Accepts(w) && !p.b.Accepts(w)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickToRegexPreservesLanguage(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	f := func(p dfaPair) bool {
		back := p.a.ToRegex()
		for _, tr := range quickTraces {
			if regex.Match(back, tr) != p.a.Accepts(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickShortestAcceptedIsShortestAndAccepted(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	f := func(p dfaPair) bool {
		w, ok := p.a.ShortestAccepted()
		if !ok {
			// Language empty: nothing up to the bound may be accepted.
			for _, tr := range quickTraces {
				if p.a.Accepts(tr) {
					return false
				}
			}
			return true
		}
		if !p.a.Accepts(w) {
			return false
		}
		for _, tr := range quickTraces {
			if len(tr) < len(w) && p.a.Accepts(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
