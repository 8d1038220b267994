package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/shelley-go/shelley/client"
	"github.com/shelley-go/shelley/internal/budget"
)

// tightLimits trips fast on every pathological corpus entry while
// leaving the small good sources untouched.
func tightLimits() budget.Limits {
	return budget.Limits{
		MaxNFAStates:   500,
		MaxDFAStates:   500,
		MaxRegexSize:   500,
		MaxSearchNodes: 500,
	}
}

func readPathologicalCorpus(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "pathological", "*.py"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no pathological corpus files")
	}
	var sources []string
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, string(b))
	}
	return sources
}

// TestBudgetExceededAnswers422 pins the error surface: a blowup
// request under a tight budget answers 422 with a structured message,
// and the budget-exceeded counter moves.
func TestBudgetExceededAnswers422(t *testing.T) {
	_, cl := startServer(t, Config{Workers: 2, Limits: tightLimits()})
	ctx := context.Background()
	for _, src := range readPathologicalCorpus(t) {
		_, err := cl.Check(ctx, client.CheckRequest{Source: src})
		apiErr, ok := err.(*client.APIError)
		if !ok {
			t.Fatalf("want *client.APIError, got %v", err)
		}
		if apiErr.StatusCode != 422 {
			t.Fatalf("want 422, got %d: %s", apiErr.StatusCode, apiErr.Message)
		}
	}
	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := client.ParseMetric(metrics, "shelleyd_budget_exceeded_total"); !ok || v == 0 {
		t.Fatalf("shelleyd_budget_exceeded_total = %v (present=%v), want > 0", v, ok)
	}
	// The pre-rename shelley_* alias finished its one-release
	// deprecation window and must stay gone.
	if _, ok := client.ParseMetric(metrics, "shelley_budget_exceeded_total"); ok {
		t.Fatal("removed alias shelley_budget_exceeded_total is still exported")
	}
}

// TestBlowupRequestReleasesWorker is the worker-stop regression: a
// request whose construction cannot finish inside the deadline must
// come back as a 504 near the deadline, and the worker that ran it
// must actually stop — workers back to idle, goroutines back to
// baseline — instead of grinding on the abandoned exponential build.
func TestBlowupRequestReleasesWorker(t *testing.T) {
	detblow, err := os.ReadFile(filepath.Join("..", "..", "testdata", "pathological", "detblow.py"))
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	// Huge limits so the deadline, not the budget, is the binding cutoff.
	huge := budget.Limits{MaxNFAStates: 1 << 30, MaxDFAStates: 1 << 30, MaxRegexSize: 1 << 30, MaxSearchNodes: 1 << 30}
	srv, cl := startServer(t, Config{Workers: 2, RequestTimeout: 300 * time.Millisecond, Limits: huge})
	ctx := context.Background()

	start := time.Now()
	_, err = cl.Check(ctx, client.CheckRequest{Source: string(detblow)})
	elapsed := time.Since(start)
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("want *client.APIError, got %v", err)
	}
	if apiErr.StatusCode != 504 {
		t.Fatalf("want 504, got %d: %s", apiErr.StatusCode, apiErr.Message)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("504 took %v; the worker kept grinding long past the deadline", elapsed)
	}

	// The worker must go idle and its goroutines must drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		busy := srv.met.workersBusy.Load()
		n := runtime.NumGoroutine()
		if busy == 0 && n <= baseline+8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker did not stop: busy=%d goroutines=%d (baseline %d)", busy, n, baseline)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// And the daemon is still fully serviceable afterwards.
	if _, err := cl.Check(ctx, client.CheckRequest{Source: syntheticSource(1, "After")}); err != nil {
		t.Fatalf("good request after blowup failed: %v", err)
	}
}

// TestHostileRunSurvives hammers one daemon with hundreds of mixed
// good and pathological requests plus injected panics: the daemon must
// answer every request with a well-formed HTTP response, never crash,
// keep memory bounded, and show nonzero panic and budget-exceeded
// counters afterwards.
func TestHostileRunSurvives(t *testing.T) {
	pathological := readPathologicalCorpus(t)
	var jobs atomic.Int64
	cfg := Config{
		Workers:        4,
		RequestTimeout: 15 * time.Second,
		Limits:         tightLimits(),
		runHook: func() {
			// Every 17th pooled job panics inside the contained region,
			// simulating a pipeline-stage bug under load.
			if jobs.Add(1)%17 == 0 {
				panic("injected verification panic")
			}
		},
	}
	_, cl := startServer(t, cfg)
	ctx := context.Background()

	const clients = 8
	const perClient = 64 // 512 requests total
	var badStatus atomic.Int64
	var transport atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var src string
				if i%2 == 0 {
					// Distinct tags defeat the module cache and the
					// response cells often enough to keep real work flowing.
					src = syntheticSource(1, fmt.Sprintf("H%dx%d", c, i))
				} else {
					src = pathological[(c+i)%len(pathological)] + fmt.Sprintf("\n# variant %d.%d\n", c, i%4)
				}
				_, err := cl.Check(ctx, client.CheckRequest{Source: src})
				if err == nil {
					continue
				}
				apiErr, ok := err.(*client.APIError)
				if !ok {
					// Transport-level failure: the daemon dropped the
					// connection — exactly what containment must prevent.
					transport.Add(1)
					continue
				}
				switch apiErr.StatusCode {
				case 422, 500, 503, 504:
					// Structured refusals are the expected hostile-run diet.
				default:
					badStatus.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	if n := transport.Load(); n > 0 {
		t.Fatalf("%d transport-level failures; daemon dropped connections", n)
	}
	if n := badStatus.Load(); n > 0 {
		t.Fatalf("%d responses with unexpected status codes", n)
	}

	// The daemon survived; its counters must show what it absorbed.
	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("daemon unhealthy after hostile run: %v", err)
	}
	if v, ok := client.ParseMetric(metrics, "shelleyd_panics_total"); !ok || v == 0 {
		t.Fatalf("shelleyd_panics_total = %v (present=%v), want > 0", v, ok)
	}
	if v, ok := client.ParseMetric(metrics, "shelleyd_budget_exceeded_total"); !ok || v == 0 {
		t.Fatalf("shelleyd_budget_exceeded_total = %v (present=%v), want > 0", v, ok)
	}

	// Bounded memory: after GC the heap must be far below what any
	// runaway exponential construction would have pinned.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 1<<30 {
		t.Fatalf("heap after hostile run = %d bytes; memory is not bounded", ms.HeapAlloc)
	}
}
