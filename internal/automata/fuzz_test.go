package automata

import (
	"context"
	"errors"
	"testing"

	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/regex"
)

// fuzzBudget is deliberately tiny: the fuzzer's job is to prove that
// budget enforcement is total — any construction either finishes or
// returns a structured error, and never panics or runs away.
func fuzzBudget() context.Context {
	return budget.With(context.Background(), budget.Limits{
		MaxNFAStates:   200,
		MaxDFAStates:   200,
		MaxRegexSize:   200,
		MaxSearchNodes: 200,
	})
}

// okOrBudget fails the test unless err is nil or a structured
// budget/cancellation error.
func okOrBudget(t *testing.T, op string, err error) bool {
	t.Helper()
	if err == nil {
		return true
	}
	if !errors.Is(err, budget.ErrExceeded) && !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("%s: want budget/cancel error, got %v", op, err)
	}
	return false
}

var fuzzSeeds = []string{
	"", "0", "1", "a", "a . b", "a + b", "a*",
	"(a + b)* . a . (a + b) . (a + b)",
	"(a . (b . 0 + c))* + (b . a)*",
	"((a + b)* . c)* . ((c + a)* . b)*",
	"a** + (a + 1)*",
}

// FuzzDeterminize: subset construction under a tight budget is total.
func FuzzDeterminize(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r, err := regex.Parse(src)
		if err != nil {
			return
		}
		ctx := fuzzBudget()
		n := FromRegexThompson(r)
		d, err := n.DeterminizeCtx(ctx)
		if !okOrBudget(t, "determinize", err) {
			return
		}
		// When it fits the budget, it must agree with the NFA on the
		// empty trace at minimum.
		if d.Accepts(nil) != n.Accepts(nil) {
			t.Fatalf("determinize changed nullability of %q", src)
		}
	})
}

// FuzzMinimize: Hopcroft under a budget (cancellation-gated) is total
// and preserves acceptance of a probe trace.
func FuzzMinimize(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r, err := regex.Parse(src)
		if err != nil {
			return
		}
		ctx := fuzzBudget()
		d, err := FromRegexDerivativesCtx(ctx, r)
		if !okOrBudget(t, "derivatives", err) {
			return
		}
		m, err := d.MinimizeCtx(ctx)
		if !okOrBudget(t, "minimize", err) {
			return
		}
		if m.NumStates() > d.NumStates() {
			t.Fatalf("minimize grew %q: %d -> %d states", src, d.NumStates(), m.NumStates())
		}
		if m.Accepts(nil) != d.Accepts(nil) {
			t.Fatalf("minimize changed nullability of %q", src)
		}
	})
}

// FuzzIntersect: the budgeted intersection search over two fuzzed
// languages is total, its witness lies in both, and it is the empty
// trace exactly when both languages contain it.
func FuzzIntersect(f *testing.F) {
	for i, s := range fuzzSeeds {
		f.Add(s, fuzzSeeds[(i+3)%len(fuzzSeeds)])
	}
	f.Fuzz(func(t *testing.T, srcA, srcB string) {
		ra, err := regex.Parse(srcA)
		if err != nil {
			return
		}
		rb, err := regex.Parse(srcB)
		if err != nil {
			return
		}
		ctx := fuzzBudget()
		da, err := FromRegexDerivativesCtx(ctx, ra)
		if !okOrBudget(t, "derivatives A", err) {
			return
		}
		db, err := FromRegexDerivativesCtx(ctx, rb)
		if !okOrBudget(t, "derivatives B", err) {
			return
		}
		ws, err := da.Search(da.Start(), db.Over(da.Alphabet(), false),
			func(x, y bool) bool { return x && y }, 1, budget.SearchGate(ctx, "intersect"))
		if !okOrBudget(t, "intersect", err) {
			return
		}
		if (len(ws) > 0 && len(ws[0]) == 0) != (da.Accepts(nil) && db.Accepts(nil)) {
			t.Fatalf("intersect changed nullability for %q ∩ %q", srcA, srcB)
		}
		if len(ws) > 0 && !(da.Accepts(ws[0]) && db.Accepts(ws[0])) {
			t.Fatalf("intersect witness %q of %q ∩ %q lies outside one of them", ws[0], srcA, srcB)
		}
	})
}

// FuzzToRegex: state elimination under regex-size and state budgets is
// total, and a successful round trip preserves nullability.
func FuzzToRegex(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r, err := regex.Parse(src)
		if err != nil {
			return
		}
		ctx := fuzzBudget()
		d, err := CompileMinimalCtx(ctx, r)
		if !okOrBudget(t, "compile", err) {
			return
		}
		back, err := d.ToRegexCtx(ctx)
		if !okOrBudget(t, "to-regex", err) {
			return
		}
		d2, err := CompileMinimalCtx(context.Background(), back)
		if err != nil {
			t.Fatalf("recompiling ToRegex output of %q: %v", src, err)
		}
		if d2.Accepts(nil) != d.Accepts(nil) {
			t.Fatalf("round trip changed nullability of %q", src)
		}
	})
}
