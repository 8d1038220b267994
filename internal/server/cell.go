package server

import (
	"context"
	"errors"
	"sync"

	shelley "github.com/shelley-go/shelley"
)

// cell is one singleflight response slot, modelled on the pipeline
// cache's entry: done is closed once status and body are final. The
// first request for a key leads and computes on the worker pool;
// concurrent requests for the key wait on done and replay the leader's
// exact bytes.
type cell struct {
	done   chan struct{}
	status int
	body   []byte
}

func newCell() *cell { return &cell{done: make(chan struct{})} }

// resolve publishes the result and releases every waiter. Call once.
func (c *cell) resolve(status int, body []byte) {
	c.status, c.body = status, body
	close(c.done)
}

// isClosed reports whether ch is closed, without blocking.
func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// errNotResident distinguishes "fingerprint unknown" (404) from load
// failures (422).
var errNotResident = errors.New("server: module not resident")

// moduleEntry is one resident module with its own singleflight load
// cell, so concurrent first requests for the same source parse it once,
// plus the response cells of the requests it answers.
type moduleEntry struct {
	ready chan struct{}
	mod   *shelley.Module
	err   error

	// cells maps a request key (checkKey, or an infer/trace key) to its
	// response cell. A module is content-addressed and immutable, so a
	// verified check body for (fingerprint, class, precise) can never
	// change: a 200 check body stays and answers every later request for
	// its key without a pool round trip. Every other result — errors
	// (budget, timeout, panic) and all infer/trace responses — leaves
	// the map before its waiters are released, the rule
	// pipeline.Cache.DoCtx follows for uncacheable errors, so a retry
	// recomputes. A settled cell still in the map is therefore always a
	// kept 200. The map lives as long as the entry, so module eviction
	// drops every cell with it.
	cellMu sync.Mutex
	cells  map[string]*cell
}

// cell returns key's response cell, creating it when absent. The
// creator leads: it must settle the cell exactly once.
func (e *moduleEntry) cell(key string) (c *cell, leader bool) {
	e.cellMu.Lock()
	defer e.cellMu.Unlock()
	if c, ok := e.cells[key]; ok {
		return c, false
	}
	if e.cells == nil {
		e.cells = make(map[string]*cell)
	}
	c = newCell()
	e.cells[key] = c
	return c, true
}

// settle publishes the leader's result. Unless keep, the cell leaves
// the map first, so no request arriving after the release can latch
// onto a result that must not stick.
func (e *moduleEntry) settle(key string, c *cell, status int, body []byte, keep bool) {
	if !keep {
		e.cellMu.Lock()
		delete(e.cells, key)
		e.cellMu.Unlock()
	}
	c.resolve(status, body)
}

// kept reports whether key's response is a kept 200 body, answerable
// without scheduling anything.
func (e *moduleEntry) kept(key string) bool {
	e.cellMu.Lock()
	c := e.cells[key]
	e.cellMu.Unlock()
	return c != nil && isClosed(c.done)
}

// moduleCache keeps loaded modules resident by content fingerprint,
// each bound to the daemon's one analysis cache. Residency turns the
// daemon's requests from process-lifetime work into lookups: the second
// check of an unchanged source is a fingerprint hit plus a response-cell
// hit. Eviction drops a module's parse and cells, never its artifacts.
type moduleCache struct {
	mu      sync.Mutex
	entries map[string]*moduleEntry
	max     int
	met     *metrics
	cache   *shelley.Cache
}

func newModuleCache(max int, met *metrics, cache *shelley.Cache) *moduleCache {
	return &moduleCache{entries: make(map[string]*moduleEntry), max: max, met: met, cache: cache}
}

// get returns the resident entry for fp, loading it from source on
// first use; loaded is true when this call made it resident. An empty
// source is a cache-only lookup and fails with errNotResident when the
// module is not in memory. Load errors are NOT made resident: a bad
// source answers 422 but does not occupy a slot, and a corrected
// re-upload under a new fingerprint loads fresh.
func (mc *moduleCache) get(ctx context.Context, fp, source string) (e *moduleEntry, loaded bool, err error) {
	mc.mu.Lock()
	if e, ok := mc.entries[fp]; ok {
		mc.mu.Unlock()
		// A settled entry needs no wait; probing it first spares the warm
		// path ctx.Done, which allocates a request context's channel.
		if !isClosed(e.ready) {
			select {
			case <-e.ready:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		if e.err != nil {
			return nil, false, e.err
		}
		return e, false, nil
	}
	if source == "" {
		mc.mu.Unlock()
		return nil, false, errNotResident
	}
	e = &moduleEntry{ready: make(chan struct{})}
	mc.entries[fp] = e
	mc.evictLocked(fp)
	mc.mu.Unlock()

	mc.met.moduleMisses.Add(1)
	e.mod, e.err = mc.cache.LoadSource(ctx, shortFP(fp), source)
	close(e.ready)
	if e.err != nil {
		mc.mu.Lock()
		delete(mc.entries, fp)
		mc.mu.Unlock()
		return nil, false, e.err
	}
	return e, true, nil
}

// evictLocked drops arbitrary settled entries (never keep, the entry
// just inserted) until the cache respects max. Eviction order is map
// order — effectively random — which is cheap and good enough for a
// content-addressed cache whose entries are all equally rebuildable.
func (mc *moduleCache) evictLocked(keep string) {
	if mc.max <= 0 {
		return
	}
	for fp, e := range mc.entries {
		if len(mc.entries) <= mc.max {
			return
		}
		if fp == keep {
			continue
		}
		select {
		case <-e.ready:
			delete(mc.entries, fp)
			mc.met.moduleEvictions.Add(1)
		default:
			// Still loading; a follower may be blocked on ready.
		}
	}
}

// settled returns fp's entry when it is resident and loaded, else nil.
// It never blocks on a loading entry: the miner and the batch flush
// hint only look, they never wait.
func (mc *moduleCache) settled(fp string) *moduleEntry {
	mc.mu.Lock()
	e := mc.entries[fp]
	mc.mu.Unlock()
	if e == nil || !isClosed(e.ready) || e.err != nil {
		return nil
	}
	return e
}

// shortFP abbreviates a fingerprint for error labels.
func shortFP(fp string) string {
	if len(fp) > 15 {
		return fp[:15]
	}
	return fp
}
