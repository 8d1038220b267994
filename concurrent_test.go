package shelley

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/shelley-go/shelley/internal/obs"
	"github.com/shelley-go/shelley/internal/pipeline"
)

func TestCheckAllConcurrentMatchesSequential(t *testing.T) {
	m := loadPaper(t)
	seq, err := m.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 8, 100} {
		par, err := m.CheckAllConcurrent(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i].Class != seq[i].Class {
				t.Errorf("workers=%d: report %d is %s, want %s (order must be source order)",
					workers, i, par[i].Class, seq[i].Class)
			}
			if par[i].String() != seq[i].String() {
				t.Errorf("workers=%d: report for %s differs:\n%s\nvs\n%s",
					workers, par[i].Class, par[i], seq[i])
			}
		}
	}
}

func TestCheckAllConcurrentPropagatesErrors(t *testing.T) {
	// A composite whose subsystem class is missing from the module.
	m, err := LoadFile(filepath.Join("testdata", "badsector.py")) // no Valve
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CheckAllConcurrent(4); err == nil {
		t.Error("expected a resolution error")
	}
}

// TestCheckAllConcurrentStopsOnFirstError is the regression test for
// the early-stop fix: when an early class fails to analyze, the fan-out
// must stop handing out work instead of checking every remaining class.
// The module puts a broken composite (unresolvable subsystem type)
// first, followed by many valid composites; the pipeline cache counters
// reveal how many of them were actually analyzed.
func TestCheckAllConcurrentStopsOnFirstError(t *testing.T) {
	const valid = 60
	var b strings.Builder
	b.WriteString("@sys([\"x\"])\nclass Broken:\n    def __init__(self):\n        self.x = Missing()\n\n")
	b.WriteString("    @op_initial_final\n    def go(self):\n        self.x.up()\n        return []\n\n")
	b.WriteString(`@sys
class Dev:
    @op_initial
    def acquire(self):
        return ["release"]

    @op_final
    def release(self):
        return ["acquire"]

`)
	for i := 0; i < valid; i++ {
		fmt.Fprintf(&b, "@sys([\"d\"])\nclass Ctl%d:\n    def __init__(self):\n        self.d = Dev()\n\n", i)
		fmt.Fprintf(&b, "    @op_initial_final\n    def go%d(self):\n        self.d.acquire()\n        self.d.release()\n        return []\n\n", i)
	}

	m, err := LoadSource(b.String())
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.CheckAllConcurrent(4)
	if err == nil {
		t.Fatal("expected a resolution error for Broken")
	}
	if !strings.Contains(err.Error(), "Broken") {
		t.Fatalf("error does not name the failing class: %v", err)
	}

	// Every valid class that was analyzed recorded one report-stage miss
	// (the broken one takes the uncached error path, so it counts
	// nothing). Without the early stop, all 60 get checked.
	checked := m.PipelineStats().Of(pipeline.StageReport).Misses
	if checked >= valid/2 {
		t.Fatalf("early stop ineffective: %d of %d classes were still analyzed after the failure", checked, valid)
	}
}

// manyValidClasses builds a module of n independent valid composites
// over one shared base class.
func manyValidClasses(t *testing.T, n int) *Module {
	t.Helper()
	var b strings.Builder
	b.WriteString(`@sys
class Dev:
    @op_initial
    def acquire(self):
        return ["release"]

    @op_final
    def release(self):
        return ["acquire"]

`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "@sys([\"d\"])\nclass Ctl%d:\n    def __init__(self):\n        self.d = Dev()\n\n", i)
		fmt.Fprintf(&b, "    @op_initial_final\n    def go%d(self):\n        self.d.acquire()\n        self.d.release()\n        return []\n\n", i)
	}
	m, err := LoadSource(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCheckAllContextMatchesConcurrent(t *testing.T) {
	m := loadPaper(t)
	want, err := m.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := m.CheckAllContext(context.Background(), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d reports", workers, len(got))
		}
		for i := range want {
			if got[i].String() != want[i].String() {
				t.Errorf("workers=%d: report %d differs", workers, i)
			}
		}
	}
}

// TestCheckAllContextCancelled pins the cancellation contract: a dead
// context stops dispatch — on both the sequential and fan-out paths —
// instead of only stopping on the first analysis error.
func TestCheckAllContextCancelled(t *testing.T) {
	m := manyValidClasses(t, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		reports, err := m.CheckAllContext(ctx, workers)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if reports != nil {
			t.Errorf("workers=%d: got %d reports from a cancelled run", workers, len(reports))
		}
	}
	// A pre-cancelled context skips per-class work entirely.
	if misses := m.PipelineStats().Of(pipeline.StageReport).Misses; misses != 0 {
		t.Errorf("cancelled runs still analyzed %d classes", misses)
	}
}

// TestCheckAllContextCancelMidRun cancels while the fan-out is live:
// the result must be either a complete, correct report set (cancel
// lost the race) or a context error — never a partial success.
func TestCheckAllContextCancelMidRun(t *testing.T) {
	for i := 0; i < 10; i++ {
		m := manyValidClasses(t, 30)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { cancel(); close(done) }()
		reports, err := m.CheckAllContext(ctx, 4)
		<-done
		switch {
		case err == nil:
			if len(reports) != 31 {
				t.Fatalf("iteration %d: complete run returned %d reports", i, len(reports))
			}
		case errors.Is(err, context.Canceled):
			if reports != nil {
				t.Fatalf("iteration %d: cancelled run returned reports", i)
			}
		default:
			t.Fatalf("iteration %d: unexpected error %v", i, err)
		}
	}
}

func TestCheckAllConcurrentRace(t *testing.T) {
	// Many repetitions to give the race detector something to chew on
	// (run with -race in CI).
	m := loadPaper(t)
	for i := 0; i < 20; i++ {
		if _, err := m.CheckAllConcurrent(8); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckAllPartialWarmCountsEachHitOnce: when only a leading prefix
// of the module is warm, the sweep peeks that prefix once and checks
// only the classes after it, so each warm class is one report hit — in
// the pipeline stats and in the trace's cache.hit.report counters —
// and each cold class one miss.
func TestCheckAllPartialWarmCountsEachHitOnce(t *testing.T) {
	for _, traced := range []bool{false, true} {
		m, err := LoadFiles(
			filepath.Join("testdata", "valve.py"),
			filepath.Join("testdata", "sector.py"),
			filepath.Join("testdata", "badsector.py"),
			filepath.Join("testdata", "goodsector.py"),
		)
		if err != nil {
			t.Fatal(err)
		}
		valve, _ := m.Class("Valve")
		if _, err := valve.Check(); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var ring *obs.Ring
		if traced {
			ctx, ring = tracedContext(t)
		}
		before := m.PipelineStats().Of(pipeline.StageReport)
		reports, err := m.CheckAllContext(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != 4 {
			t.Fatalf("traced=%v: %d reports, want 4", traced, len(reports))
		}
		after := m.PipelineStats().Of(pipeline.StageReport)
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 1 || misses != 3 {
			t.Errorf("traced=%v: report stage +%d hits +%d misses, want +1 +3", traced, hits, misses)
		}
		if traced {
			var counted uint64
			for _, s := range ring.Snapshot() {
				counted += s.Counts["cache.hit.report"]
			}
			if counted != 1 {
				t.Errorf("cache.hit.report counted %d times across the trace, want 1 (one warm class)", counted)
			}
		}
	}
}
