package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/ir"
	"github.com/shelley-go/shelley/internal/ltlf"
	"github.com/shelley-go/shelley/internal/regex"
)

func TestDoMemoizes(t *testing.T) {
	c := New()
	builds := 0
	build := func() (any, error) { builds++; return 42, nil }
	for i := 0; i < 5; i++ {
		v, err := c.Do(StageDFA, "k", build)
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != 42 {
			t.Fatalf("got %v", v)
		}
	}
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	st := c.Stats().Of(StageDFA)
	if st.Hits != 4 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 4 hits / 1 miss / 1 entry", st)
	}
}

func TestDoKeysAreStageScoped(t *testing.T) {
	c := New()
	v1, _ := c.Do(StageDFA, "same", func() (any, error) { return "dfa", nil })
	v2, _ := c.Do(StageSpec, "same", func() (any, error) { return "spec", nil })
	if v1.(string) != "dfa" || v2.(string) != "spec" {
		t.Fatalf("stages share entries: %v, %v", v1, v2)
	}
}

func TestDoCachesErrors(t *testing.T) {
	c := New()
	builds := 0
	want := errors.New("boom")
	for i := 0; i < 3; i++ {
		_, err := c.Do(StageReport, "k", func() (any, error) { builds++; return nil, want })
		if !errors.Is(err, want) {
			t.Fatalf("got %v, want %v", err, want)
		}
	}
	if builds != 1 {
		t.Fatalf("failing build ran %d times, want 1 (errors are cached)", builds)
	}
}

func TestNilCacheBuildsEveryTime(t *testing.T) {
	var c *Cache
	builds := 0
	for i := 0; i < 3; i++ {
		v, err := c.Do(StageDFA, "k", func() (any, error) { builds++; return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != i {
			t.Fatalf("nil cache returned stale value %v", v)
		}
	}
	if builds != 3 {
		t.Fatalf("nil cache built %d times, want 3", builds)
	}
	// The typed helpers must be nil-safe too.
	p := ir.MustParse("a(); b()")
	if got := c.Infer(context.Background(), p).String(); got == "" {
		t.Fatal("nil cache Infer returned empty regex")
	}
	if d, err := c.MinimalDFA(context.Background(), regex.MustParse("a . b")); err != nil || d == nil || !d.Accepts([]string{"a", "b"}) {
		t.Fatal("nil cache MinimalDFA broken")
	}
	if got := c.Stats(); len(got.Stages) != NumStages {
		t.Fatalf("nil cache stats has %d stages, want %d", len(got.Stages), NumStages)
	}
}

// TestSingleflight hammers one key from many goroutines: exactly one
// build must run, every caller must see its value, and a gate channel
// makes sure the callers really do overlap with the in-flight build.
func TestSingleflight(t *testing.T) {
	c := New()
	const goroutines = 32
	var builds atomic.Int32
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := c.Do(StageFlatten, "hot", func() (any, error) {
				builds.Add(1)
				<-gate // hold the build open until all goroutines queued
				return "built", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[g] = v
		}(g)
	}
	close(gate)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for g, v := range results {
		if v.(string) != "built" {
			t.Fatalf("goroutine %d saw %v", g, v)
		}
	}
	st := c.Stats().Of(StageFlatten)
	if st.Misses != 1 || st.Hits != goroutines-1 {
		t.Fatalf("stats %+v, want 1 miss / %d hits", st, goroutines-1)
	}
}

// TestConcurrentDistinctKeys checks shard safety under parallel inserts.
func TestConcurrentDistinctKeys(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k-%d-%d", g, i)
				v, err := c.Do(StageBehavior, key, func() (any, error) { return key, nil })
				if err != nil || v.(string) != key {
					t.Errorf("key %q: got %v, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats().Of(StageBehavior); st.Entries != 8*200 {
		t.Fatalf("%d entries, want %d", st.Entries, 8*200)
	}
}

func TestMemoTyped(t *testing.T) {
	c := New()
	v, err := Memo(c, StageClaim, "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("got %v, %v", v, err)
	}
	// A cached error yields the zero value, not a stale one.
	_, err = Memo(c, StageClaim, "bad", func() (*int, error) { return nil, errors.New("x") })
	if err == nil {
		t.Fatal("want error")
	}
	p, err := Memo(c, StageClaim, "bad", func() (*int, error) { t.Fatal("rebuilt"); return nil, nil })
	if err == nil || p != nil {
		t.Fatalf("cached error lost: %v, %v", p, err)
	}
}

func TestInferMatchesCore(t *testing.T) {
	c := New()
	p := ir.MustParse("loop(*) { a(); if(*) { b(); return } else { c() } }")
	raw := c.Infer(context.Background(), p)
	simp := c.InferSimplified(context.Background(), p)
	if !regex.Equivalent(raw, simp) {
		t.Fatal("simplified behavior changed the language")
	}
	// Warm path returns the identical artifact.
	if c.Infer(context.Background(), p).String() != raw.String() {
		t.Fatal("warm Infer differs")
	}
	d1, err1 := c.BehaviorDFA(context.Background(), p)
	d2, err2 := c.BehaviorDFA(context.Background(), p)
	if err1 != nil || err2 != nil {
		t.Fatalf("BehaviorDFA errored: %v, %v", err1, err2)
	}
	if d1 != d2 {
		t.Fatal("warm BehaviorDFA is not the shared cached automaton")
	}
}

func TestClaimNegationCachedByTextAndAlphabet(t *testing.T) {
	c := New()
	ctx := context.Background()
	f := ltlf.MustParse("(!a) W b")
	for i, tc := range []struct {
		alphabet     []string
		misses, hits uint64
	}{
		{[]string{"a", "b", "c"}, 1, 0},
		// Differs only in events the formula does not name: one entry.
		{[]string{"a", "b", "d", "e"}, 1, 1},
		// No event besides the atoms: other minterms.
		{[]string{"a", "b"}, 2, 1},
		// The other events come first: other minterm order.
		{[]string{"0", "a", "b"}, 3, 1},
		{[]string{"a", "b", "c"}, 3, 2},
	} {
		got, err := c.ClaimNegation(ctx, f, "(!a) W b", tc.alphabet)
		if err != nil {
			t.Fatal(err)
		}
		if want := ltlf.CompileNegation(f, tc.alphabet); !reflect.DeepEqual(got, want) {
			t.Fatalf("#%d: cached automaton over %v differs from a compile over it", i, tc.alphabet)
		}
		if st := c.Stats().Of(StageClaim); st.Misses != tc.misses || st.Hits != tc.hits {
			t.Fatalf("#%d: stats %+v, want %d misses / %d hits", i, st, tc.misses, tc.hits)
		}
	}
}

func TestStatsString(t *testing.T) {
	c := New()
	_, _ = c.Do(StageDFA, "k", func() (any, error) { return 1, nil })
	_, _ = c.Do(StageDFA, "k", func() (any, error) { return 1, nil })
	out := c.Stats().String()
	for _, want := range []string{"pipeline cache:", "behavior", "dfa", "spec", "flatten", "claim", "report"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
	s := c.Stats()
	if s.Of(StageDFA).Hits != 1 || s.TotalMisses() != 1 {
		t.Fatalf("totals: %d dfa hits / %d misses, want 1/1", s.Of(StageDFA).Hits, s.TotalMisses())
	}
	if hr := s.Of(StageDFA).HitRate(); hr != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", hr)
	}
}

func TestStageStrings(t *testing.T) {
	want := map[Stage]string{
		StageBehavior: "behavior",
		StageDFA:      "dfa",
		StageSpec:     "spec",
		StageFlatten:  "flatten",
		StageClaim:    "claim",
		StageReport:   "report",
	}
	if len(want) != NumStages {
		t.Fatalf("test covers %d stages, package has %d", len(want), NumStages)
	}
	seen := map[string]bool{}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), name)
		}
		if seen[name] {
			t.Errorf("duplicate stage name %q", name)
		}
		seen[name] = true
	}
}

// TestPanicReleasesWaiters ensures a panicking build cannot strand
// concurrent waiters: each either observes the panic error (it was
// blocked on the poisoned entry) or rebuilds fresh (it arrived after
// the entry was removed), and the panic must still propagate to the
// building goroutine.
func TestPanicReleasesWaiters(t *testing.T) {
	c := New()
	gate := make(chan struct{})
	type outcome struct {
		val any
		err error
	}
	waiterDone := make(chan outcome, 1)
	go func() {
		<-gate
		v, err := c.Do(StageDFA, "p", func() (any, error) { return "rebuilt", nil })
		waiterDone <- outcome{v, err}
	}()
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		_, _ = c.Do(StageDFA, "p", func() (any, error) {
			close(gate)
			// Give the waiter a chance to block on the entry.
			panic("kaboom")
		})
	}()
	if r := <-panicked; r == nil {
		t.Fatal("panic did not propagate to the builder")
	}
	if o := <-waiterDone; o.err == nil && o.val != "rebuilt" {
		t.Fatalf("waiter stranded with neither error nor rebuild: %v", o.val)
	}
}

// TestPanicDoesNotPoisonKey ensures a panicking build is not cached: a
// panic, unlike a build error, is not known to be deterministic, so the
// next caller of the same key must get a fresh build.
func TestPanicDoesNotPoisonKey(t *testing.T) {
	c := New()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		_, _ = c.Do(StageDFA, "poison", func() (any, error) { panic("kaboom") })
	}()
	v, err := c.Do(StageDFA, "poison", func() (any, error) { return "recovered", nil })
	if err != nil || v.(string) != "recovered" {
		t.Fatalf("panicked key stayed poisoned: %v, %v", v, err)
	}
}

// TestCancelErrNotCached is the regression test for the cache-poisoning
// review finding: the daemon uses one fixed budget for all requests, so
// the budget-prefixed key is identical across requests — if a request
// deadline firing mid-construction left a *budget.CancelErr in the
// cache, every later request for that key would fail instantly. A
// canceled build must release its waiters but leave no entry behind.
func TestCancelErrNotCached(t *testing.T) {
	c := New()
	cancelErrs := []error{
		&budget.CancelErr{Op: "determinize", Cause: context.DeadlineExceeded},
		context.DeadlineExceeded,
		context.Canceled,
	}
	for i, cerr := range cancelErrs {
		key := fmt.Sprintf("k-%d", i)
		builds := 0
		build := func() (any, error) {
			builds++
			if builds == 1 {
				return nil, cerr
			}
			return "recovered", nil
		}
		if _, err := c.Do(StageReport, key, build); err == nil {
			t.Fatalf("%v: first build should fail", cerr)
		}
		v, err := c.Do(StageReport, key, build)
		if err != nil || v.(string) != "recovered" {
			t.Fatalf("%v stayed cached: %v, %v (builds=%d)", cerr, v, err, builds)
		}
	}
	// Deleted cancellations must not count as live entries.
	if st := c.Stats().Of(StageReport); st.Entries != uint64(len(cancelErrs)) {
		t.Fatalf("entries %d, want %d (one per recovered key)", st.Entries, len(cancelErrs))
	}
}

// TestCanceledBuildRetrySameBudget runs the end-to-end shape of the
// review scenario through the typed DFA path: a request whose deadline
// already fired caches nothing, and a retry with the SAME budget (the
// daemon's fixed Config.Limits) and a live context succeeds.
func TestCanceledBuildRetrySameBudget(t *testing.T) {
	c := New()
	r := regex.MustParse("(a + b)* . a . b")
	lim := budget.Default()
	dead, cancel := context.WithCancel(budget.With(context.Background(), lim))
	cancel()
	if _, err := c.MinimalDFA(dead, r); !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("dead context: got %v, want ErrCanceled", err)
	}
	d, err := c.MinimalDFA(budget.With(context.Background(), lim), r)
	if err != nil || d == nil {
		t.Fatalf("retry with same budget poisoned: %v", err)
	}
	if !d.Accepts([]string{"b", "a", "b"}) {
		t.Fatal("retried DFA is wrong")
	}
}

// TestPanicErrorNotCachedByOuterStage covers the waiter-leak finding: a
// goroutine blocked on a panicking build receives the synthesized
// ErrPanicked error and returns it as an ordinary error from its own
// outer build (e.g. a different class's report embedding the artifact).
// The outer DoCtx must recognize the sentinel and decline to cache it.
func TestPanicErrorNotCachedByOuterStage(t *testing.T) {
	c := New()
	builds := 0
	build := func() (any, error) {
		builds++
		if builds == 1 {
			// What a waiter observes from the doomed inner entry,
			// propagated verbatim up its own stack.
			return nil, fmt.Errorf("checking inner: %w",
				fmt.Errorf("%w: dfa build for key %q: kaboom", ErrPanicked, "inner"))
		}
		return "ok", nil
	}
	if _, err := c.Do(StageReport, "outer", build); !errors.Is(err, ErrPanicked) {
		t.Fatalf("first outer build: got %v, want ErrPanicked", err)
	}
	v, err := c.Do(StageReport, "outer", build)
	if err != nil || v.(string) != "ok" {
		t.Fatalf("outer stage cached the panic contamination: %v, %v", v, err)
	}
}

// TestPanicWaiterDoesNotPoisonOuterKey drives the same leak through
// real coalescing: W's outer build waits on the inner key while B's
// build of that key panics. Whatever W observes — the panic error (it
// latched the doomed entry) or a fresh rebuild (it arrived after the
// delete) — the outer key must end up rebuildable.
func TestPanicWaiterDoesNotPoisonOuterKey(t *testing.T) {
	c := New()
	gate := make(chan struct{})
	var innerCalls atomic.Int32
	innerBuild := func() (any, error) {
		if innerCalls.Add(1) == 1 {
			close(gate)
			panic("kaboom")
		}
		return "inner", nil
	}
	outerDone := make(chan error, 1)
	go func() {
		<-gate // only start once B's build is in flight (or already done)
		_, err := c.Do(StageReport, "outer", func() (any, error) {
			return c.Do(StageDFA, "inner", innerBuild)
		})
		outerDone <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the builder")
			}
		}()
		_, _ = c.Do(StageDFA, "inner", innerBuild)
	}()
	if err := <-outerDone; err != nil && !errors.Is(err, ErrPanicked) {
		t.Fatalf("waiter saw unexpected error: %v", err)
	}
	// Whichever race was observed, neither key may stay poisoned.
	v, err := c.Do(StageReport, "outer", func() (any, error) {
		return c.Do(StageDFA, "inner", innerBuild)
	})
	if err != nil || v.(string) != "inner" {
		t.Fatalf("outer key poisoned by coalesced panic: %v, %v", v, err)
	}
}

// TestDFAKeyIgnoresIrrelevantLimits pins the per-stage budget key
// projection: NFA-state and search-node limits cannot affect a
// regex→DFA compilation, so two requests differing only in those
// limits must share one cached automaton.
func TestDFAKeyIgnoresIrrelevantLimits(t *testing.T) {
	c := New()
	r := regex.MustParse("a . b")
	ctx1 := budget.With(context.Background(), budget.Limits{
		MaxDFAStates: 100, MaxRegexSize: 1000, MaxSearchNodes: 10})
	ctx2 := budget.With(context.Background(), budget.Limits{
		MaxDFAStates: 100, MaxRegexSize: 1000, MaxSearchNodes: 999_999, MaxNFAStates: 7})
	d1, err1 := c.MinimalDFA(ctx1, r)
	d2, err2 := c.MinimalDFA(ctx2, r)
	if err1 != nil || err2 != nil {
		t.Fatalf("compiles errored: %v, %v", err1, err2)
	}
	if d1 != d2 {
		t.Fatal("DFA key fragments on limits the compilation never consumes")
	}
	// A limit that CAN affect the artifact still separates entries.
	d3, err3 := c.MinimalDFA(budget.With(context.Background(),
		budget.Limits{MaxDFAStates: 99, MaxRegexSize: 1000}), r)
	if err3 != nil || d3 == d1 {
		t.Fatalf("distinct dfa-states limits alias one entry (%v)", err3)
	}
	if st := c.Stats().Of(StageDFA); st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 2 misses / 1 hit", st)
	}
}

// TestBudgetInCacheKey ensures budget-exceeded results cannot poison
// the cache across budgets: the same regex compiled under a tiny budget
// caches its structured error, and a retry under a larger (or
// unlimited) budget hashes to a different key and succeeds.
func TestBudgetInCacheKey(t *testing.T) {
	c := New()
	r := regex.MustParse("(a + b)* . a . (a + b) . (a + b) . (a + b)")
	tiny := budget.With(context.Background(), budget.Limits{MaxDFAStates: 2})
	if _, err := c.MinimalDFA(tiny, r); !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("tiny budget: got %v, want ErrExceeded", err)
	}
	// Deterministic: the error is served from cache on retry.
	if _, err := c.MinimalDFA(tiny, r); !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("cached tiny-budget error lost: %v", err)
	}
	// A larger budget is a different cache key and must succeed.
	big := budget.With(context.Background(), budget.Default())
	d, err := c.MinimalDFA(big, r)
	if err != nil || d == nil {
		t.Fatalf("retry with larger budget failed: %v", err)
	}
	if !d.Accepts([]string{"b", "a", "a", "b", "a"}) {
		t.Fatal("larger-budget DFA is wrong")
	}
	// Unlimited context shares the pre-budget key and also succeeds.
	if _, err := c.MinimalDFA(context.Background(), r); err != nil {
		t.Fatalf("unlimited retry failed: %v", err)
	}
	if st := c.Stats().Of(StageDFA); st.Misses != 3 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 3 misses / 1 hit", st)
	}
}
