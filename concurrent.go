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
// The sweep first peeks the warm prefix: the leading classes whose
// whole-class report is already memoized are collected without a span,
// each counted once as a report hit, and only the classes after the
// prefix are checked. A fully-warm module is therefore nothing but one
// report-cache peek per class, with no check.module span and no
// fan-out; the hits add one aggregated cache.hit.report count to the
// caller's span (the pipeline's "hits annotate, misses re-time" rule
// one level up, EXPERIMENTS.md P3). Otherwise one "check.module" span
// brackets the rest, carrying the prefix's hit count, and each checked
// class's "check.class" span is its child.
//
// The first analysis error (not verification finding) stops the sweep:
// once any class fails, no further class is handed out, so a module
// whose first class cannot be analyzed does not pay for checking the
// remaining hundreds. Cancelling ctx (deadline, client disconnect,
// server drain) stops it the same way. Classes already in flight finish
// normally — the per-class pipeline stages are not interruptible — so
// cancellation latency is one class. An analysis error wins over
// cancellation: the error reported is the one for the earliest
// (source-order) failing class among those actually checked; on plain
// cancellation the result is nil and ctx's error is returned.
func (m *Module) CheckAllContext(ctx context.Context, workers int, opts ...Option) ([]*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("shelley: check cancelled: %w", err)
	}
	peek := append([]check.Option{check.WithCache(m.cache)}, opts...)
	reports := make([]*Report, len(m.classes))
	warm := 0
	for ; warm < len(m.classes); warm++ {
		r, ok := check.PeekReport(ctx, m.classes[warm].model, m.registry, peek...)
		if !ok {
			break
		}
		reports[warm] = r
	}
	if warm == len(m.classes) {
		obs.SpanFrom(ctx).AddCountN("cache.hit.report", uint64(warm))
		return reports, nil
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(m.classes)-warm)
	ctx, span := obs.Start(ctx, "check.module",
		obs.Int("classes", len(m.classes)),
		obs.Int("workers", workers))
	defer span.End()
	if warm > 0 {
		span.AddCountN("cache.hit.report", uint64(warm))
	}

	errs := make([]error, len(m.classes))
	var next atomic.Int64
	next.Store(int64(warm))
	// failed flips once on the first analysis error; every worker then
	// stops taking classes. Context cancellation takes the same exit.
	var failed atomic.Bool
	sweep := func() {
		for !failed.Load() && ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(m.classes) {
				return
			}
			reports[i], errs[i] = m.classes[i].CheckContext(ctx, opts...)
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
			sweep()
		}()
	}
	sweep()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shelley: checking %s: %w", m.classes[i].Name(), err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("shelley: check cancelled: %w", err)
	}
	return reports, nil
}
