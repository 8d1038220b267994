package shelley

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/shelley-go/shelley/internal/automata"
	"github.com/shelley-go/shelley/internal/pipeline"
)

// Differential property tests of the memoizing pipeline cache: every
// analysis the library exposes must produce byte-identical results with
// caching on and off, across worker counts, over a large population of
// random classes. This is the safety net that lets the cache be
// aggressive — any aliasing bug (two distinct programs sharing a cache
// key) or stale-artifact bug (a cached automaton mutated by a caller)
// surfaces as a diff here. Run under -race in CI, which additionally
// checks the singleflight and shard locking under CheckAllConcurrent.

// diffModule generates one random module with two independent base
// classes and two composites (one per base), so concurrent checks hit
// both shared entries (same base fingerprint) and distinct ones.
func diffModule(rng *rand.Rand) (string, int) {
	nOps0 := 2 + rng.Intn(3)
	nOps1 := 2 + rng.Intn(3)
	ops := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("op%d", i)
		}
		return out
	}
	src := randBaseClass(rng, "Dev0", nOps0) + "\n" +
		randBaseClass(rng, "Dev1", nOps1) + "\n" +
		randComposite(rng, "Ctl0", "Dev0", ops(nOps0)) + "\n" +
		randComposite(rng, "Ctl1", "Dev1", ops(nOps1))
	return src, 4
}

func TestPipelineCacheDifferential(t *testing.T) {
	const modules = 20
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	classesChecked := 0

	for wi, workers := range workerCounts {
		rng := rand.New(rand.NewSource(int64(9000 + wi)))
		for m := 0; m < modules; m++ {
			src, nClasses := diffModule(rng)

			cached, err := LoadSource(src)
			if err != nil {
				t.Fatalf("workers=%d module=%d: %v\n%s", workers, m, err, src)
			}
			uncached, err := LoadSource(src)
			if err != nil {
				t.Fatal(err)
			}
			uncached.SetPipelineCaching(false)

			// (a) Reports: concurrent cached vs sequential uncached must
			// be byte-identical, in source order.
			cold, err := cached.CheckAllConcurrent(workers)
			if err != nil {
				t.Fatalf("workers=%d module=%d: %v\n%s", workers, m, err, src)
			}
			plain, err := uncached.CheckAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(cold) != len(plain) || len(cold) != nClasses {
				t.Fatalf("workers=%d module=%d: %d cached vs %d uncached reports",
					workers, m, len(cold), len(plain))
			}
			for i := range cold {
				if cold[i].String() != plain[i].String() {
					t.Fatalf("workers=%d module=%d class %s: cached report differs\n--- cached ---\n%s\n--- uncached ---\n%s\nsource:\n%s",
						workers, m, plain[i].Class, cold[i], plain[i], src)
				}
			}
			classesChecked += nClasses

			// (b) Warm pass: serving from cache must not change a byte,
			// and must actually hit the report stage.
			before := cached.PipelineStats().Of(pipeline.StageReport).Hits
			warm, err := cached.CheckAllConcurrent(workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range warm {
				if warm[i].String() != plain[i].String() {
					t.Fatalf("workers=%d module=%d class %s: warm report differs", workers, m, plain[i].Class)
				}
			}
			after := cached.PipelineStats().Of(pipeline.StageReport)
			if after.Hits < before+uint64(nClasses) {
				t.Fatalf("workers=%d module=%d: warm pass hit report cache %d times, want ≥ %d",
					workers, m, after.Hits-before, nClasses)
			}

			// (c) Per-class artifacts: behaviors, protocol automata, and
			// flattened automata agree across the two modes.
			for _, cc := range cached.Classes() {
				uc, ok := uncached.Class(cc.Name())
				if !ok {
					t.Fatalf("class %s missing from uncached module", cc.Name())
				}
				for _, op := range cc.Operations() {
					bc, err1 := cc.Behavior(op)
					bu, err2 := uc.Behavior(op)
					if err1 != nil || err2 != nil || bc != bu {
						t.Fatalf("class %s op %s: behavior differs (%q vs %q, errs %v %v)",
							cc.Name(), op, bc, bu, err1, err2)
					}
					sc, err1 := cc.BehaviorSimplified(op)
					su, err2 := uc.BehaviorSimplified(op)
					if err1 != nil || err2 != nil || sc != su {
						t.Fatalf("class %s op %s: simplified behavior differs (%q vs %q)",
							cc.Name(), op, sc, su)
					}
				}
				dc, err := cc.SpecDFA("")
				if err != nil {
					t.Fatal(err)
				}
				du, err := uc.SpecDFA("")
				if err != nil {
					t.Fatal(err)
				}
				if !automata.Equivalent(dc, du) {
					t.Fatalf("class %s: cached SpecDFA differs in language\n%s", cc.Name(), src)
				}
				for _, opts := range [][]Option{nil, {Precise()}} {
					fc, err := cc.FlattenedDFA(opts...)
					if err != nil {
						t.Fatal(err)
					}
					fu, err := uc.FlattenedDFA(opts...)
					if err != nil {
						t.Fatal(err)
					}
					if !automata.Equivalent(fc, fu) {
						w, _ := automata.Distinguish(fc, fu)
						t.Fatalf("class %s (precise=%v): flattened language differs, witness %v\n%s",
							cc.Name(), len(opts) > 0, w, src)
					}
				}
			}

			// (d) Cache hygiene: mutating what the public API returned
			// must not leak into later answers.
			ctl, _ := cached.Class("Ctl0")
			f1, err := ctl.FlattenedDFA()
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < f1.NumStates(); s++ {
				f1.SetAccepting(s, !f1.Accepting(s)) // vandalize the returned copy
			}
			f2, err := ctl.FlattenedDFA()
			if err != nil {
				t.Fatal(err)
			}
			ufc, _ := uncached.Class("Ctl0")
			f3, err := ufc.FlattenedDFA()
			if err != nil {
				t.Fatal(err)
			}
			if !automata.Equivalent(f2, f3) {
				t.Fatalf("mutating a returned FlattenedDFA poisoned the cache\n%s", src)
			}
			r2, err := ctl.Check()
			if err != nil {
				t.Fatal(err)
			}
			ur2, err := ufc.Check()
			if err != nil {
				t.Fatal(err)
			}
			if r2.String() != ur2.String() {
				t.Fatalf("report after DFA mutation differs\n%s", src)
			}
		}
	}

	const minClasses = 200
	if classesChecked < minClasses {
		t.Fatalf("differential test covered %d classes, want ≥ %d", classesChecked, minClasses)
	}
}

// TestPipelineCacheReportIsolation checks the clone-on-hit contract of
// report memoization: a caller mutating a returned report must not
// affect the next caller's copy.
func TestPipelineCacheReportIsolation(t *testing.T) {
	m := loadPaper(t)
	bad, _ := m.Class("BadSector")
	r1, err := bad.Check()
	if err != nil {
		t.Fatal(err)
	}
	if r1.OK() {
		t.Fatal("BadSector must fail")
	}
	want := r1.String()
	r1.Diagnostics[0].Message = "VANDALIZED"
	r1.Diagnostics[0].Counterexample = append(r1.Diagnostics[0].Counterexample, "bogus")
	r2, err := bad.Check()
	if err != nil {
		t.Fatal(err)
	}
	if r2.String() != want {
		t.Fatalf("mutating a returned report changed the cached one:\n%s", r2)
	}
}

// TestPipelineStatsObservability drives the paper module and checks the
// counters tell a coherent story: cold run is all misses, warm run is
// all hits, and disabling caching zeroes the stats.
func TestPipelineStatsObservability(t *testing.T) {
	m := loadPaper(t)
	if _, err := m.CheckAll(); err != nil {
		t.Fatal(err)
	}
	cold := m.PipelineStats()
	if cold.TotalMisses() == 0 {
		t.Fatal("cold run recorded no cache misses")
	}
	if got := cold.Of(pipeline.StageReport).Entries; got != 3 {
		t.Fatalf("report stage has %d entries after checking 3 classes, want 3", got)
	}
	if _, err := m.CheckAll(); err != nil {
		t.Fatal(err)
	}
	warm := m.PipelineStats()
	if warm.Of(pipeline.StageReport).Hits < 3 {
		t.Fatalf("warm CheckAll hit the report stage %d times, want ≥ 3",
			warm.Of(pipeline.StageReport).Hits)
	}
	if warm.TotalMisses() != cold.TotalMisses() {
		t.Fatalf("warm run rebuilt artifacts: misses went %d → %d",
			cold.TotalMisses(), warm.TotalMisses())
	}
	if s := warm.String(); len(s) == 0 {
		t.Fatal("empty stats rendering")
	}
	m.SetPipelineCaching(false)
	off := m.PipelineStats()
	var hits uint64
	for _, st := range off.Stages {
		hits += st.Hits
	}
	if hits != 0 || off.TotalMisses() != 0 {
		t.Fatal("stats must read zero with caching disabled")
	}
}
