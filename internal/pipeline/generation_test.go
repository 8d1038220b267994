package pipeline

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/shelley-go/shelley/internal/budget"
)

// where reports which generation of its shard holds (stage, key):
// "young", "old" or "" when absent.
func where(c *Cache, stage Stage, key string) string {
	k := entryKey(stage, key)
	sh := &c.shards[shardIndex(k)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch {
	case sh.young[k] != nil:
		return "young"
	case sh.old[k] != nil:
		return "old"
	}
	return ""
}

// liveEntries counts the entries held by every shard's maps.
func liveEntries(c *Cache) int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.young) + len(sh.old)
		sh.mu.Unlock()
	}
	return n
}

// fillUntil inserts fresh keys into the shard of (stage, key) until
// done reports true, and fails the test if that takes more than four
// generations' worth of inserts.
func fillUntil(t *testing.T, c *Cache, stage Stage, key string, done func() bool) {
	t.Helper()
	target := shardIndex(entryKey(stage, key))
	inserted := 0
	for i := 0; !done(); i++ {
		fill := fmt.Sprintf("fill-%s-%d", key, i)
		if shardIndex(entryKey(stage, fill)) != target {
			continue
		}
		if _, err := c.Do(stage, fill, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		if inserted++; inserted > 4*genEntries/shardCount {
			t.Fatalf("%q still %q after %d inserts into its shard", key, where(c, stage, key), inserted)
		}
	}
}

// TestLiveEntriesStayWithinTwoGenerations drives 50k distinct keys
// through one cache: the live count never exceeds two generations and
// always equals what the shards actually hold.
func TestLiveEntriesStayWithinTwoGenerations(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 5; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				stage := Stage(i % NumStages)
				if _, err := c.Do(stage, fmt.Sprintf("k-%d-%d", g, i), func() (any, error) { return i, nil }); err != nil {
					t.Error(err)
					return
				}
				if i%1000 == 0 {
					if n := liveEntries(c); n > 2*genEntries {
						t.Errorf("%d live entries, bound %d", n, 2*genEntries)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var entries, misses uint64
	for _, st := range c.Stats().Stages {
		entries += st.Entries
		misses += st.Misses
	}
	if misses != 50000 {
		t.Fatalf("%d misses, want 50000", misses)
	}
	if n := liveEntries(c); entries != uint64(n) || n > 2*genEntries || n < genEntries {
		t.Fatalf("Entries sums to %d, shards hold %d (want between %d and %d, and equal)",
			entries, n, genEntries, 2*genEntries)
	}
}

// TestOldGenerationHitSurvivesFlip: a hit in the old generation moves
// the entry to the young one, so the next flip keeps it.
func TestOldGenerationHitSurvivesFlip(t *testing.T) {
	for _, peek := range []bool{false, true} {
		c := New()
		builds := 0
		build := func() (any, error) { builds++; return "v", nil }
		if _, err := c.Do(StageSpec, "hot", build); err != nil {
			t.Fatal(err)
		}
		fillUntil(t, c, StageSpec, "hot", func() bool { return where(c, StageSpec, "hot") == "old" })
		if peek {
			if _, _, ok := c.Peek(context.Background(), StageSpec, "hot"); !ok {
				t.Fatal("peek missed an old-generation entry")
			}
		} else if _, err := c.Do(StageSpec, "hot", build); err != nil {
			t.Fatal(err)
		}
		if got := where(c, StageSpec, "hot"); got != "young" {
			t.Fatalf("peek=%v: hit left the entry in %q, want young", peek, got)
		}
		fillUntil(t, c, StageSpec, "hot", func() bool { return where(c, StageSpec, "hot") == "old" })
		if _, err := c.Do(StageSpec, "hot", build); err != nil || builds != 1 {
			t.Fatalf("peek=%v: promoted entry lost across a flip (builds=%d, err=%v)", peek, builds, err)
		}
	}
}

// TestFlippedOutInFlightEntryReleasesWaiters: an entry dropped while
// its build is still running keeps its waiters, and the builder
// releases them; a caller arriving after the drop builds afresh.
func TestFlippedOutInFlightEntryReleasesWaiters(t *testing.T) {
	c := New()
	started, release := make(chan struct{}), make(chan struct{})
	builderDone := make(chan any, 1)
	go func() {
		v, _ := c.Do(StageFlatten, "slow", func() (any, error) {
			close(started)
			<-release
			return "first", nil
		})
		builderDone <- v
	}()
	<-started
	// A waiter is a caller that found the entry and now blocks on it.
	k := entryKey(StageFlatten, "slow")
	sh := &c.shards[shardIndex(k)]
	sh.mu.Lock()
	held := c.lookupLocked(sh, k)
	sh.mu.Unlock()
	waiterDone := make(chan any, 1)
	go func() {
		<-held.ready
		waiterDone <- held.val
	}()
	fillUntil(t, c, StageFlatten, "slow", func() bool { return where(c, StageFlatten, "slow") == "" })
	if v, _ := c.Do(StageFlatten, "slow", func() (any, error) { return "rebuilt", nil }); v != "rebuilt" {
		t.Fatalf("caller after the drop got %v, want a fresh build", v)
	}
	close(release)
	if v := <-builderDone; v != "first" {
		t.Fatalf("builder got %v", v)
	}
	if v := <-waiterDone; v != "first" {
		t.Fatalf("waiter got %v, want the flipped-out build's value", v)
	}
	if v, _ := c.Do(StageFlatten, "slow", func() (any, error) { return "third", nil }); v != "rebuilt" {
		t.Fatalf("finishing the stale build replaced the live entry: got %v", v)
	}
	if n, entries := liveEntries(c), c.Stats().Of(StageFlatten).Entries; uint64(n) != entries {
		t.Fatalf("Entries %d, shards hold %d", entries, n)
	}
}

// TestStaleFailedBuildDeletesOnlyItsOwnEntry: a panicking or cancelled
// build whose entry was flipped out, and whose key was rebuilt since,
// must leave the rebuilt entry (and the live count) alone.
func TestStaleFailedBuildDeletesOnlyItsOwnEntry(t *testing.T) {
	fail := map[string]func() (any, error){
		"panic":  func() (any, error) { panic("kaboom") },
		"cancel": func() (any, error) { return nil, &budget.CancelErr{Op: "determinize", Cause: context.Canceled} },
	}
	for name, failing := range fail {
		t.Run(name, func(t *testing.T) {
			c := New()
			started, release := make(chan struct{}), make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer func() { _ = recover() }()
				_, _ = c.Do(StageReport, "k", func() (any, error) {
					close(started)
					<-release
					return failing()
				})
			}()
			<-started
			fillUntil(t, c, StageReport, "k", func() bool { return where(c, StageReport, "k") == "" })
			if v, err := c.Do(StageReport, "k", func() (any, error) { return "rebuilt", nil }); err != nil || v != "rebuilt" {
				t.Fatalf("rebuild: %v, %v", v, err)
			}
			close(release)
			<-done
			if where(c, StageReport, "k") == "" {
				t.Fatal("the stale build deleted the rebuilt entry")
			}
			if v, _ := c.Do(StageReport, "k", func() (any, error) { return "again", nil }); v != "rebuilt" {
				t.Fatalf("got %v, want the rebuilt entry", v)
			}
			if n, entries := liveEntries(c), c.Stats().Of(StageReport).Entries; uint64(n) != entries {
				t.Fatalf("Entries %d, shards hold %d", entries, n)
			}
		})
	}
}

// Do is DoCtx without a context.
func (c *Cache) Do(stage Stage, key string, build func() (any, error)) (any, error) {
	return c.DoCtx(context.Background(), stage, key,
		func(context.Context) (any, error) { return build() })
}
