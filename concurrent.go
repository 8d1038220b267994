package shelley

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/shelley-go/shelley/internal/check"
	"github.com/shelley-go/shelley/internal/obs"
)

// CheckAllConcurrent verifies every class of the module in parallel,
// using up to workers goroutines (0 means GOMAXPROCS). It is
// CheckAllContext without a deadline.
func (m *Module) CheckAllConcurrent(workers int) ([]*Report, error) {
	return m.CheckAllContext(context.Background(), workers)
}

// CheckAllContext is the one module sweep: CheckAll, CheckAllConcurrent,
// the daemon's whole-module checks (union and precise) and
// Session.Recheck all run it. Every class is verified with opts (e.g.
// Precise) over up to workers goroutines (0 means GOMAXPROCS, 1 checks
// in the calling goroutine). The analyses are independent — every
// class reads the shared registry and the shared pipeline cache, both
// concurrency-safe — so results come back in source order regardless
// of completion order.
//
// The sweep first peeks every class: classes whose whole-class report
// is already memoized are collected without a span, each counted once
// as a report hit, and only the rest are checked. A fully-warm module
// is therefore nothing but one report-cache peek per class, with no
// check.module span and no fan-out; the hits add one aggregated
// cache.hit.report count to the caller's span (the pipeline's "hits
// annotate, misses re-time" rule one level up, EXPERIMENTS.md P3).
// Otherwise one "check.module" span brackets the rest, carrying the
// hit count, and each checked class's "check.class" span is its child.
//
// The first analysis error (not verification finding) stops the sweep:
// once any class fails, no further class is handed out, so a module
// whose first class cannot be analyzed does not pay for checking the
// remaining hundreds. A class whose subsystems do not resolve stops it
// as soon as it is handed out, since its check cannot succeed. Cancelling ctx (deadline, client disconnect,
// server drain) stops it the same way. Classes already in flight finish
// normally — the per-class pipeline stages are not interruptible — so
// cancellation latency is one class. An analysis error wins over
// cancellation: the error reported is the one for the earliest
// (source-order) failing class among those actually checked; on plain
// cancellation the result is nil and ctx's error is returned.
func (m *Module) CheckAllContext(ctx context.Context, workers int, opts ...Option) ([]*Report, error) {
	reports, _, err := m.sweep(ctx, workers, opts)
	return reports, err
}

// sweep is CheckAllContext that also returns how many classes it
// answered from a memoized report; it checked the rest.
func (m *Module) sweep(ctx context.Context, workers int, opts []Option) ([]*Report, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("shelley: check cancelled: %w", err)
	}
	peek := append([]check.Option{check.WithCache(m.cache)}, opts...)
	reports := make([]*Report, len(m.classes))
	// keys holds each cold class's cache keys, built by its peek, for
	// its check.
	keys := make([]check.Keys, len(m.classes))
	var cold []int
	for i, c := range m.classes {
		if r, k, ok := check.PeekReport(ctx, c.model, m.registry, peek...); ok {
			reports[i] = r
		} else {
			keys[i] = k
			cold = append(cold, i)
		}
	}
	reused := len(m.classes) - len(cold)
	if len(cold) == 0 {
		obs.SpanFrom(ctx).AddCountN("cache.hit.report", uint64(reused))
		return reports, reused, nil
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(cold))
	ctx, span := obs.Start(ctx, "check.module",
		obs.Int("classes", len(m.classes)),
		obs.Int("workers", workers))
	defer span.End()
	if reused > 0 {
		span.AddCountN("cache.hit.report", uint64(reused))
	}

	errs := make([]error, len(m.classes))
	var next atomic.Int64
	// failed flips once on the first analysis error; every worker then
	// stops taking classes. Context cancellation takes the same exit.
	var failed atomic.Bool
	work := func() {
		for !failed.Load() && ctx.Err() == nil {
			n := int(next.Add(1) - 1)
			if n >= len(cold) {
				return
			}
			i := cold[n]
			if keys[i].Unresolvable() {
				// Its check is bound to fail: stop handing out classes
				// now rather than once it returns.
				failed.Store(true)
			}
			reports[i], errs[i] = check.CheckContext(ctx, m.classes[i].model, m.registry,
				append(peek[:len(peek):len(peek)], check.WithKeys(keys[i]))...)
			if errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("shelley: checking %s: %w", m.classes[i].Name(), err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("shelley: check cancelled: %w", err)
	}
	return reports, reused, nil
}
