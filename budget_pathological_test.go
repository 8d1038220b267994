package shelley

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/shelley-go/shelley/internal/budget"
)

// tightBudget is small enough that every pathological corpus entry
// trips it in well under a second, keeping the regression suite fast
// while still exercising the real enforcement paths.
func tightBudget() Budget {
	return Budget{
		MaxNFAStates:   1000,
		MaxDFAStates:   1000,
		MaxRegexSize:   1000,
		MaxSearchNodes: 1000,
	}
}

func pathologicalPaths(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "pathological", "*.py"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no pathological corpus files found")
	}
	return paths
}

// TestPathologicalCorpusBudgeted is the tentpole regression: every
// engineered-blowup input must come back as a structured budget or
// cancellation error, quickly, with the worker goroutine actually
// released — never an unbounded construction.
func TestPathologicalCorpusBudgeted(t *testing.T) {
	for _, p := range pathologicalPaths(t) {
		p := p
		t.Run(filepath.Base(p), func(t *testing.T) {
			mod, err := LoadFile(p)
			if err != nil {
				t.Fatalf("LoadFile: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			ctx = WithBudget(ctx, tightBudget())
			start := time.Now()
			_, err = mod.CheckAllContext(ctx, 1)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatalf("check succeeded under tight budget; corpus entry is not pathological enough")
			}
			if !errors.Is(err, ErrBudgetExceeded) && !errors.Is(err, ErrCanceled) {
				t.Fatalf("want structured budget/cancel error, got: %v", err)
			}
			if elapsed > 25*time.Second {
				t.Fatalf("budget error took %v; enforcement is not amortized early enough", elapsed)
			}
		})
	}
}

// TestPathologicalCorpusDeadline checks the other cutoff: with an
// unlimited budget but a short deadline, the gates' periodic context
// polls must abandon the construction near the deadline instead of
// running the exponential build to completion.
func TestPathologicalCorpusDeadline(t *testing.T) {
	mod, err := LoadFile(filepath.Join("testdata", "pathological", "detblow.py"))
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = mod.CheckAllContext(ctx, 1)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("check succeeded; detblow should not finish in 100ms")
	}
	if !errors.Is(err, ErrCanceled) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want cancellation error, got: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline cutoff took %v; context polls are too sparse", elapsed)
	}
}

// TestBudgetErrorDoesNotPoisonModule is the cache-poisoning
// regression at the module level: a budget-exceeded check must not be
// replayed to an unbudgeted (or bigger-budget) retry on the same
// resident module, because the budget is part of every cache key.
func TestBudgetErrorDoesNotPoisonModule(t *testing.T) {
	mod, err := LoadFile(filepath.Join("testdata", "smarthome.py"))
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	tight := WithBudget(context.Background(), Budget{MaxDFAStates: 2})
	if _, err := mod.CheckAllContext(tight, 1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded under MaxDFAStates=2, got: %v", err)
	}
	// Same tight budget again: the error must be served deterministically
	// (cached or recomputed), still as a budget error.
	if _, err := mod.CheckAllContext(tight, 1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("second tight check: want ErrBudgetExceeded, got: %v", err)
	}
	// A larger budget on the SAME module must succeed: its cache keys
	// differ, so the cached budget error cannot shadow the real result.
	reports, err := mod.CheckAllContext(WithBudget(context.Background(), DefaultBudget()), 1)
	if err != nil {
		t.Fatalf("default-budget retry failed: %v", err)
	}
	for _, r := range reports {
		if !r.OK() {
			t.Fatalf("smarthome report not OK after retry: %v", r)
		}
	}
	// And unlimited works too.
	if _, err := mod.CheckAll(); err != nil {
		t.Fatalf("unlimited retry failed: %v", err)
	}
}

// TestCanceledCheckDoesNotPoisonModule is the cancellation twin of the
// budget-poisoning regression, and the review scenario verbatim:
// shelleyd uses one fixed Config.Limits for every request, so the
// budget-prefixed cache keys are identical across requests — a request
// deadline firing mid-construction must therefore leave NO cache entry
// behind. The test times a deadline to fire inside the blowup build
// (retrying with a fresh module until it wins the race against the
// budget gate), then re-checks the SAME resident module with the SAME
// budget and a generous deadline: that retry must recompute — detblow
// deterministically exceeds the tight budget — instead of replaying
// the cached cancellation.
func TestCanceledCheckDoesNotPoisonModule(t *testing.T) {
	b := tightBudget()
	var mod *Module
	for attempt := 0; attempt < 20 && mod == nil; attempt++ {
		m, err := LoadFile(filepath.Join("testdata", "pathological", "detblow.py"))
		if err != nil {
			t.Fatalf("LoadFile: %v", err)
		}
		ctx, cancel := context.WithTimeout(WithBudget(context.Background(), b), time.Millisecond)
		_, err = m.CheckAllContext(ctx, 1)
		cancel()
		if err == nil {
			t.Fatal("detblow checked OK under the tight budget")
		}
		if errors.Is(err, ErrCanceled) {
			mod = m // the deadline fired mid-construction on this module
		}
	}
	if mod == nil {
		t.Skip("budget gate always tripped before the 1ms deadline; cannot time a mid-build cancellation on this machine")
	}
	ctx, cancel := context.WithTimeout(WithBudget(context.Background(), b), 30*time.Second)
	defer cancel()
	_, err := mod.CheckAllContext(ctx, 1)
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("same-budget retry replayed a cached cancellation: %v", err)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("same-budget retry: want fresh ErrBudgetExceeded, got: %v", err)
	}
}

// TestBudgetedCheckReleasesGoroutines is the worker-stop regression:
// after a blowup check is cut off, the goroutine count must return to
// baseline — nothing may keep grinding on the abandoned construction.
func TestBudgetedCheckReleasesGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	mod, err := LoadFile(filepath.Join("testdata", "pathological", "detblow.py"))
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	ctx := WithBudget(context.Background(), tightBudget())
	if _, err := mod.CheckAllContext(ctx, 4); err == nil {
		t.Fatal("expected budget error")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline: %d now vs %d before",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestUsageViolationsContextBudgeted: listing usage violations obeys
// the context's budget like a check does. looptower.py trips it under
// the limits shelleyc -max-states 500 sets, the product search alone
// trips a search-node limit, and under a budget that fits, the listing
// is the unbudgeted one.
func TestUsageViolationsContextBudgeted(t *testing.T) {
	tower, err := LoadFile(filepath.Join("testdata", "pathological", "looptower.py"))
	if err != nil {
		t.Fatal(err)
	}
	tight := WithBudget(context.Background(), Budget{
		MaxNFAStates: 500, MaxDFAStates: 500, MaxSearchNodes: 500,
	})
	ctl, _ := tower.Class("LoopTower")
	if _, err := ctl.UsageViolationsContext(tight, 3); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("looptower under -max-states 500: %v, want a budget error", err)
	}

	mod, err := LoadFiles(filepath.Join("testdata", "valve.py"), filepath.Join("testdata", "badsector.py"))
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := mod.Class("BadSector")
	want, err := bad.UsageViolations(3)
	if err != nil || len(want) == 0 {
		t.Fatalf("unbudgeted listing: %v, %v", want, err)
	}
	got, err := bad.UsageViolationsContext(WithBudget(context.Background(), DefaultBudget()), 3)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("listing under the default budget: %v, %v; want %v", got, err, want)
	}
	_, err = bad.UsageViolationsContext(WithBudget(context.Background(), Budget{MaxSearchNodes: 2}), 3)
	var be *budget.Err
	if !errors.As(err, &be) || be.Op != "usage-violations" {
		t.Fatalf("listing under MaxSearchNodes 2: %v, want a usage-violations search budget error", err)
	}
}
