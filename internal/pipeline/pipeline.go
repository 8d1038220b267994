// Package pipeline implements the memoizing analysis cache that makes
// repeated verification near-free: a content-addressed, concurrency-safe
// store for the expensive stages of the inference pipeline — behavior
// regex inference (§3.2), regex→DFA compilation, protocol automata,
// flattened composite DFAs, LTLf claim compilation, and whole-class
// verification reports.
//
// Keys are stable content fingerprints (ir fingerprints for programs,
// model.Class.Fingerprint for classes, regex.Key for expressions), so
// the cache never needs explicit invalidation: a class that changes in
// any way hashes to fresh keys, and entries for dead content simply
// stop being hit and age out (see addLocked), so one bounded cache can
// serve every module and session. Two workers that race on the same
// key are collapsed by per-entry singleflight — the first builds while
// the rest block on the entry's ready channel — so no artifact is
// computed twice at once, even under CheckAllConcurrent.
//
// Every lookup feeds the Stats observability layer: per-stage hit/miss
// counters, build wall-time histograms, and live entry counts, exposed
// through Module.PipelineStats and the -stats flag of the CLIs.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/budget"
	"github.com/shelley-go/shelley/internal/core"
	"github.com/shelley-go/shelley/internal/ir"
	"github.com/shelley-go/shelley/internal/ltlf"
	"github.com/shelley-go/shelley/internal/obs"
	"github.com/shelley-go/shelley/internal/regex"
	"github.com/shelley-go/shelley/internal/telemetry"
)

// Stage identifies one cached stage of the analysis pipeline.
type Stage int

const (
	// StageBehavior memoizes behavior regex inference: ⟦p⟧ for one
	// method body (raw and simplified forms, keyed by ir fingerprints).
	StageBehavior Stage = iota

	// StageDFA memoizes regex→automaton compilation (derivative NFA
	// construction, determinization, and minimization; keyed by the
	// canonical regex key).
	StageDFA

	// StageSpec memoizes class usage-protocol automata (SpecDFA, keyed
	// by class fingerprint and qualification prefix).
	StageSpec

	// StageFlatten memoizes flattened composite behavior automata —
	// the determinization of the ε-NFA substitution, not the ε-NFA
	// itself (keyed by the class fingerprint, analysis mode, and every
	// subsystem fingerprint).
	StageFlatten

	// StageClaim memoizes compiled LTLf claim-violation automata
	// (keyed by formula text and the formula's minterms of the
	// alphabet).
	StageClaim

	// StageReport memoizes whole-class verification reports (keyed
	// like StageFlatten); a warm Check is a lookup plus a deep copy.
	StageReport

	numStages int = iota
)

// String names the stage as shown in stats output.
func (s Stage) String() string {
	switch s {
	case StageBehavior:
		return "behavior"
	case StageDFA:
		return "dfa"
	case StageSpec:
		return "spec"
	case StageFlatten:
		return "flatten"
	case StageClaim:
		return "claim"
	case StageReport:
		return "report"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// NumStages is the number of pipeline stages tracked by Stats.
const NumStages = numStages

// spanNames and hitCounters are the per-stage span and counter names,
// precomputed because DoCtx and Peek sit on the warm lookup path:
// concatenating "pipeline.<stage>" or "cache.hit.<stage>" at lookup
// time allocates per call even with tracing off (EXPERIMENTS.md P3).
var spanNames, hitCounters [numStages]string

func init() {
	for s := StageBehavior; int(s) < numStages; s++ {
		spanNames[s] = "pipeline." + s.String()
		hitCounters[s] = "cache.hit." + s.String()
	}
}

// shardCount spreads entries over independently locked maps so that
// concurrent workers contend only when they touch the same key range.
// A power of two keeps the index computation a mask.
const shardCount = 32

// genEntries is the size of one generation across all shards, so a
// cache holds at most 2×genEntries entries (sizing: EXPERIMENTS.md P9).
const genEntries = 4096

// Persister is the durable artifact store surface the cache reads
// through on a miss and writes behind on a fill. Both methods must be
// safe for concurrent use and must never block for long: Get is on the
// first-miss path, and Put is expected to enqueue (the store behind it
// sheds under pressure rather than stalling verification). Any durable
// failure must surface as a miss (Get) or a silent drop (Put) — the
// cache treats the persister as strictly best-effort.
type Persister interface {
	// Get returns the payload persisted under key, or ok=false.
	Get(key string) ([]byte, bool)

	// Put persists payload under key, best-effort.
	Put(key string, payload []byte)
}

// Codec translates one stage's artifact between its in-memory form and
// durable bytes. DecodeArtifact must validate: persisted bytes come
// from disk and may predate this build, and a decode error simply
// demotes the lookup to a rebuild.
type Codec interface {
	EncodeArtifact(v any) ([]byte, error)
	DecodeArtifact(b []byte) (any, error)
}

// persistHook pairs a stage's durable store with its codec.
type persistHook struct {
	store Persister
	codec Codec
}

// Cache is the memoization store. The zero value is not usable; create
// caches with New. A nil *Cache is valid everywhere and disables
// memoization (every lookup builds), which lets callers thread
// "caching off" without branching.
type Cache struct {
	shards  [shardCount]shard
	stats   [numStages]stageCounters
	persist [numStages]atomic.Pointer[persistHook]
}

// shard holds two generations; an entry lives in exactly one of them.
type shard struct {
	mu         sync.Mutex
	young, old map[cacheKey]*entry
}

// entry is one singleflight cell: ready is closed once val/err are
// final, and waiters block on it instead of rebuilding.
type entry struct {
	ready chan struct{}
	val   any
	err   error
}

// Persist attaches a durable read-through/write-behind layer to one
// stage: a miss consults p before building (a verified decode is
// published as if built, counted as a persist hit), and a successful
// build is encoded and handed to p.Put. Errors are never persisted —
// only values — and the layer is strictly best-effort: a failing or
// absent persister leaves the cache exactly as fast and exactly as
// correct as without one. Attach before serving traffic; nil p or codec
// detaches. A nil cache ignores the call.
func (c *Cache) Persist(stage Stage, p Persister, codec Codec) {
	if c == nil {
		return
	}
	if p == nil || codec == nil {
		c.persist[stage].Store(nil)
		return
	}
	c.persist[stage].Store(&persistHook{store: p, codec: codec})
}

// New returns an empty cache.
func New() *Cache {
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].young = make(map[cacheKey]*entry)
	}
	return c
}

// cacheKey identifies an entry: its stage and the stage's own key.
type cacheKey struct {
	stage Stage
	key   string
}

func entryKey(stage Stage, key string) cacheKey { return cacheKey{stage, key} }

// stored is the key's name in a Persister: the stage digit, then key.
func (k cacheKey) stored() string { return string(rune('0'+int(k.stage))) + k.key }

// lookupLocked returns k's entry or nil, promoting an old-generation hit.
func (c *Cache) lookupLocked(sh *shard, k cacheKey) *entry {
	if e := sh.young[k]; e != nil {
		return e
	}
	e := sh.old[k]
	if e != nil {
		delete(sh.old, k)
		c.addLocked(sh, k, e)
	}
	return e
}

// addLocked puts e into the young generation; a full one first becomes
// old, dropping the old one (its waiters are still released).
func (c *Cache) addLocked(sh *shard, k cacheKey, e *entry) {
	if len(sh.young) >= genEntries/shardCount {
		for dk := range sh.old {
			c.stats[dk.stage].entries.Add(-1)
		}
		sh.old, sh.young = sh.young, make(map[cacheKey]*entry, genEntries/shardCount)
	}
	sh.young[k] = e
}

// removeLocked deletes k only while it maps to e, never an entry that
// a later caller rebuilt after e was dropped.
func (c *Cache) removeLocked(sh *shard, k cacheKey, e *entry) {
	for _, gen := range [...]map[cacheKey]*entry{sh.young, sh.old} {
		if gen[k] == e {
			delete(gen, k)
			c.stats[k.stage].entries.Add(-1)
			return
		}
	}
}

func shardIndex(k cacheKey) int {
	// FNV-1a over the stage digit and the key; cheaper than importing
	// hash/fnv per call.
	h := (uint32(2166136261) ^ uint32('0'+k.stage)) * 16777619
	for i := 0; i < len(k.key); i++ {
		h ^= uint32(k.key[i])
		h *= 16777619
	}
	return int(h & (shardCount - 1))
}

// ErrPanicked is the sentinel wrapped into the error published to
// waiters of a panicking build. It exists so every cache layer can
// recognize a panic-contaminated result when it propagates upward: a
// waiter blocked on the doomed entry returns the synthesized error as
// an ordinary build error up its own stack, and without the sentinel an
// outer stage (a different class's report, a flatten that embeds the
// inner artifact) would memoize it permanently even though the panicked
// entry itself was deleted.
var ErrPanicked = errors.New("pipeline: build panicked")

// uncacheable reports whether a build error must not be memoized.
// Cancellation belongs to one request's deadline, not to the content:
// caching a *budget.CancelErr would turn one timed-out request into a
// permanent instant failure for every later request with the same
// budget key. Panic contamination (ErrPanicked, possibly observed by a
// waiter and re-returned from an outer build) is not known to be
// deterministic. Budget-exceeded errors are NOT listed: under a
// budget-prefixed key they are deterministic and stay cached.
func uncacheable(err error) bool {
	return errors.Is(err, ErrPanicked) ||
		errors.Is(err, budget.ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// DoCtx returns the cached value for (stage, key), building it with
// build on first use. Concurrent callers of the same key share one
// build: exactly one goroutine runs build while the others wait, so the
// cost of every artifact is paid once regardless of worker count. Build
// errors are cached too — the pipeline is deterministic, so an error is
// as content-addressed as a value — except cancellation and panic
// containment errors (see uncacheable), which are released to waiters
// but never memoized. A nil receiver bypasses the cache.
//
// A miss runs build inside a "pipeline.<stage>" span (child of ctx's
// active span, so stage timings nest under the class verification that
// triggered them), and a hit increments a cache.hit.<stage> counter on
// the active span instead of opening a child — warm lookups cost
// nanoseconds and a span each would drown the timeline without adding
// information. The build callback receives the span-carrying context so
// nested stages parent correctly.
func (c *Cache) DoCtx(ctx context.Context, stage Stage, key string, build func(context.Context) (any, error)) (any, error) {
	if c == nil {
		ctx, span := obs.Start(ctx, spanNames[stage], obs.Bool("uncached", true))
		v, err := build(ctx)
		span.End()
		return v, err
	}
	k := entryKey(stage, key)
	sh := &c.shards[shardIndex(k)]
	sh.mu.Lock()
	if e := c.lookupLocked(sh, k); e != nil {
		sh.mu.Unlock()
		<-e.ready
		c.stats[stage].hits.Add(1)
		obs.SpanFrom(ctx).AddCount(hitCounters[stage])
		return e.val, e.err
	}
	e := &entry{ready: make(chan struct{})}
	c.stats[stage].entries.Add(1)
	c.addLocked(sh, k, e)
	sh.mu.Unlock()

	// Read-through: a durable artifact persisted by an earlier process
	// (or this one, pre-crash) turns the miss into a publish without a
	// build. The decode must fully validate — disk bytes are untrusted —
	// and any failure silently falls through to the build below.
	hook := c.persist[stage].Load()
	if hook != nil {
		if raw, ok := hook.store.Get(k.stored()); ok {
			if v, derr := hook.codec.DecodeArtifact(raw); derr == nil {
				e.val = v
				close(e.ready)
				c.stats[stage].persistHits.Add(1)
				obs.SpanFrom(ctx).AddCount(hitCounters[stage])
				return e.val, nil
			}
		}
	}

	ctx, span := obs.Start(ctx, spanNames[stage])
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			// Never strand waiters on a panicking build: publish an
			// error, release them, and re-panic. The entry is deleted
			// from the shard first — before ready is closed — so a
			// caller that looks up the key after the close can never
			// latch onto the doomed entry; it rebuilds from scratch.
			// The published error wraps ErrPanicked so outer stages
			// that receive it from a waiter decline to cache it too.
			e.err = fmt.Errorf("%w: %s build for key %q: %v", ErrPanicked, stage, key, r)
			sh.mu.Lock()
			c.removeLocked(sh, k, e)
			sh.mu.Unlock()
			close(e.ready)
			span.End()
			panic(r)
		}
	}()
	e.val, e.err = build(ctx)
	elapsed := time.Since(start)
	cacheable := !uncacheable(e.err)
	if !cacheable {
		// Release the waiters that already latched, but delete the
		// entry (before closing ready, same ordering as the panic
		// path) so the next caller rebuilds instead of inheriting a
		// cancellation that belonged to someone else's deadline.
		sh.mu.Lock()
		c.removeLocked(sh, k, e)
		sh.mu.Unlock()
	}
	close(e.ready)
	span.End()

	st := &c.stats[stage]
	st.misses.Add(1)
	st.buildNanos.Add(int64(elapsed))
	st.buckets[telemetry.RollupIndex(telemetry.BucketIndex(elapsed))].Add(1)

	// Write-behind: persist the freshly built value (never an error —
	// errors are cheap to recompute and poisonous to resurrect). Put is
	// non-blocking by contract, so the only cost on this path is the
	// encode, which is trivial next to the build that just ran.
	if hook != nil && cacheable && e.err == nil {
		if raw, perr := hook.codec.EncodeArtifact(e.val); perr == nil {
			hook.store.Put(k.stored(), raw)
		}
	}
	return e.val, e.err
}

// PeekQuiet is Peek without the span annotation: a successful peek
// still counts as a stats hit, but the caller owns reporting it to the
// trace — Module.CheckAllContext peeks every class and adds one
// aggregated cache.hit.report count instead of one per class
// (EXPERIMENTS.md P3).
func (c *Cache) PeekQuiet(stage Stage, key string) (any, error, bool) {
	if c == nil {
		return nil, nil, false
	}
	k := entryKey(stage, key)
	sh := &c.shards[shardIndex(k)]
	sh.mu.Lock()
	e := c.lookupLocked(sh, k)
	sh.mu.Unlock()
	if e == nil {
		return nil, nil, false
	}
	select {
	case <-e.ready:
	default:
		return nil, nil, false
	}
	c.stats[stage].hits.Add(1)
	return e.val, e.err, true
}

// Peek returns the cached value for (stage, key) when it is already
// built, without blocking and without building: ok is false when the
// key is absent, still being built by another goroutine, or the cache
// is nil. A successful peek counts as a hit and annotates ctx's active
// span like DoCtx, so callers can use it as a span-free warm fast path
// (check.CheckContext peeks the report stage before opening its
// "check.class" span — see EXPERIMENTS.md P3).
func (c *Cache) Peek(ctx context.Context, stage Stage, key string) (any, error, bool) {
	v, err, ok := c.PeekQuiet(stage, key)
	if ok {
		obs.SpanFrom(ctx).AddCount(hitCounters[stage])
	}
	return v, err, ok
}

// Memo is MemoCtx without a context. A nil cache builds directly (still
// inside a span when ctx traces — tracing works with caching off).
func Memo[T any](c *Cache, stage Stage, key string, build func() (T, error)) (T, error) {
	return MemoCtx(context.Background(), c, stage, key,
		func(context.Context) (T, error) { return build() })
}

// MemoCtx is the typed form of DoCtx.
func MemoCtx[T any](ctx context.Context, c *Cache, stage Stage, key string, build func(context.Context) (T, error)) (T, error) {
	v, err := c.DoCtx(ctx, stage, key, func(ctx context.Context) (any, error) { return build(ctx) })
	if err != nil || v == nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// SpecKey is the canonical StageSpec key for a class fingerprint and
// qualification prefix. Exposed so every caller (the checker and the
// public API) shares one entry per automaton.
func SpecKey(classFingerprint, prefix string) string {
	return classFingerprint + "|" + prefix
}

// Infer returns ⟦p⟧ in the paper-verbatim (unsimplified) form,
// memoized under StageBehavior. ctx carries the active span for stage
// tracing; context.Background() is always valid.
func (c *Cache) Infer(ctx context.Context, p ir.Program) regex.Regex {
	r, _ := MemoCtx(ctx, c, StageBehavior, programKey("raw|", p), func(context.Context) (regex.Regex, error) {
		return core.Infer(p), nil
	})
	return r
}

// InferSimplified returns the language-preserving normalization of
// ⟦p⟧, memoized under StageBehavior.
func (c *Cache) InferSimplified(ctx context.Context, p ir.Program) regex.Regex {
	r, _ := MemoCtx(ctx, c, StageBehavior, programKey("simp|", p), func(context.Context) (regex.Regex, error) {
		return regex.Simplify(core.Infer(p)), nil
	})
	return r
}

// programKey is prefix+ir.AppendFingerprint(nil, p), built in one
// allocation.
func programKey(prefix string, p ir.Program) string {
	var buf [40]byte
	return string(ir.AppendFingerprint(append(buf[:0], prefix...), p))
}

// budgetKey prefixes key with the canonical encoding of the given
// resource limits, so a result (or deterministic budget error) computed
// under one budget is never served to a request with another: a retry
// with a larger budget hashes to a fresh key and can succeed. Callers
// pass the projection of ctx's limits onto the resources their stage
// can actually consume (see dfaLimits), so keys don't fragment on
// limits that cannot affect the artifact. Unlimited limits leave the
// key unchanged, so pre-budget entries keep hitting.
func budgetKey(l budget.Limits, key string) string {
	if l.Unlimited() {
		return key
	}
	var buf [128]byte
	return string(append(append(l.AppendKey(buf[:0]), '\x01'), key...))
}

// dfaLimits projects l onto the limits a regex→DFA compilation or an
// LTLf claim compilation can consume: derivative construction,
// determinization, and formula progression gate dfa-states, and state
// elimination / DNF canonicalization gate regex-size. NFA-state and
// search-node limits cannot affect these artifacts, so they stay out
// of the cache key — two requests differing only in those limits share
// one entry.
func dfaLimits(l budget.Limits) budget.Limits {
	return budget.Limits{MaxDFAStates: l.MaxDFAStates, MaxRegexSize: l.MaxRegexSize}
}

// MinimalDFA compiles r to its minimal DFA, memoized under StageDFA by
// the canonical regex key (prefixed with the DFA-relevant projection of
// ctx's budget key). The build runs under ctx's resource budget; a
// budget trip is returned as a structured error and cached like any
// other deterministic result. Cached automata are shared read-only;
// all DFA algorithms in internal/automata are non-mutating, and public
// API boundaries clone before handing automata to callers.
func (c *Cache) MinimalDFA(ctx context.Context, r regex.Regex) (*automata.DFA, error) {
	key := budgetKey(dfaLimits(budget.From(ctx)), regex.Key(r))
	return MemoCtx(ctx, c, StageDFA, key, func(ctx context.Context) (*automata.DFA, error) {
		return automata.CompileMinimalCtx(ctx, r)
	})
}

// BehaviorDFA is the fused hot path of flattening: the minimal DFA of
// the simplified behavior of one method body, with both intermediate
// stages memoized.
func (c *Cache) BehaviorDFA(ctx context.Context, p ir.Program) (*automata.DFA, error) {
	return c.MinimalDFA(ctx, c.InferSimplified(ctx, p))
}

// ClaimNegation compiles the violation automaton of an LTLf claim over
// alphabet under ctx's budget. The cache holds the compile over the
// formula's minterms (ltlf.Minterms), memoized under StageClaim and
// keyed by formulaText, which must be the source text of f, and the
// minterms, prefixed with the claim-relevant projection of ctx's budget
// key; alphabets that differ only in events f does not name share the
// entry. The result is that automaton relabeled onto alphabet, which is
// exactly the minimal DFA a compile over alphabet itself returns.
func (c *Cache) ClaimNegation(ctx context.Context, f ltlf.Formula, formulaText string, alphabet []string) (*automata.DFA, error) {
	return c.ClaimNegationOf(ctx, f, ltlf.Atoms(f), formulaText, alphabet)
}

// ClaimNegationOf is ClaimNegation for a caller that already holds the
// atoms of f (ltlf.Atoms(f)), such as a parsed model.Claim.
func (c *Cache) ClaimNegationOf(ctx context.Context, f ltlf.Formula, atoms []string, formulaText string, alphabet []string) (*automata.DFA, error) {
	minterms, class := ltlf.Minterms(atoms, alphabet)
	key := budgetKey(dfaLimits(budget.From(ctx)), formulaText+"\x00"+strings.Join(minterms, "\x00"))
	d, err := MemoCtx(ctx, c, StageClaim, key, func(ctx context.Context) (*automata.DFA, error) {
		return ltlf.CompileNegationCtx(ctx, f, minterms)
	})
	if err != nil {
		return nil, err
	}
	return d.Relabel(alphabet, class), nil
}
