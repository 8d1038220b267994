package shelley

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// namedSessionSource is sessionSource with every class name prefixed
// by tag, so sessions with different tags share no class (and hence no
// report) while their method bodies still share behavior artifacts.
func namedSessionSource(tag string, nComposites int, seeds map[string]int64) string {
	src := sessionSource(nComposites, seeds)
	return strings.NewReplacer("Ctl", tag+"Ctl", "Dev", tag+"Dev").Replace(src)
}

// sessionRound is what one Recheck round reports, in comparable form.
type sessionRound struct {
	reused, checked int
	reports         string
}

// editScript returns the sources of a session's rounds: an initial
// generation, then one random edit per round — a composite method body
// or, one time in three, the base class's protocol.
func editScript(tag string, seed int64, rounds int) []string {
	rng := rand.New(rand.NewSource(seed))
	const nComposites = 4
	seeds := map[string]int64{"Dev": rng.Int63()}
	var methods []string
	for i := 0; i < nComposites; i++ {
		for m := 0; m < 2; m++ {
			k := fmt.Sprintf("Ctl%d.m%d", i, m)
			seeds[k] = rng.Int63()
			methods = append(methods, k)
		}
	}
	out := []string{namedSessionSource(tag, nComposites, seeds)}
	for r := 1; r < rounds; r++ {
		if rng.Intn(3) > 0 {
			seeds[methods[rng.Intn(len(methods))]] = rng.Int63()
		} else {
			seeds["Dev"] = rng.Int63()
		}
		out = append(out, namedSessionSource(tag, nComposites, seeds))
	}
	return out
}

// runScript pushes every source of script through s, one Recheck each.
func runScript(t *testing.T, s *Session, name string, script []string) []sessionRound {
	t.Helper()
	var out []sessionRound
	for i, src := range script {
		res, err := s.Recheck(context.Background(), name, []byte(src))
		if err != nil {
			t.Errorf("%s round %d: %v", name, i, err)
			return out
		}
		b, err := json.Marshal(res.Reports)
		if err != nil {
			t.Errorf("%s round %d: %v", name, i, err)
			return out
		}
		out = append(out, sessionRound{res.ReusedReports, res.CheckedClasses, string(b)})
	}
	return out
}

// TestSharedCacheSessionsMatchPrivate: sessions bound to one Cache and
// pushed concurrently report, round by round, the same reuse counts and
// byte-identical reports as each session run alone on a private cache.
// The counts are each round's own, so one session never sees another's
// work in them, even though the sessions' shared cache counters do.
func TestSharedCacheSessionsMatchPrivate(t *testing.T) {
	const sessions, rounds = 6, 12
	scripts := make([][]string, sessions)
	alone := make([][]sessionRound, sessions)
	for k := range scripts {
		scripts[k] = editScript(fmt.Sprintf("S%d", k), int64(k+1), rounds)
		alone[k] = runScript(t, NewSession(), fmt.Sprintf("s%d", k), scripts[k])
	}

	cache := NewCache()
	shared := make([][]sessionRound, sessions)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for k := range scripts {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			<-start
			shared[k] = runScript(t, cache.NewSession(), fmt.Sprintf("s%d", k), scripts[k])
		}(k)
	}
	close(start)
	wg.Wait()

	for k := range scripts {
		if len(shared[k]) != len(alone[k]) {
			t.Fatalf("session %d: %d shared rounds, %d alone", k, len(shared[k]), len(alone[k]))
		}
		for r := range alone[k] {
			a, s := alone[k][r], shared[k][r]
			if a.reused != s.reused || a.checked != s.checked {
				t.Errorf("session %d round %d: shared reused/checked %d/%d, alone %d/%d",
					k, r, s.reused, s.checked, a.reused, a.checked)
			}
			if a.reports != s.reports {
				t.Errorf("session %d round %d: reports differ\n--- shared ---\n%s\n--- alone ---\n%s",
					k, r, s.reports, a.reports)
			}
		}
	}
	var misses uint64
	for _, st := range cache.Stats().Stages {
		misses += st.Misses
	}
	if misses == 0 {
		t.Fatal("the shared cache recorded no work")
	}
}

// TestSharedCacheMemorySoak runs a long edit loop over 48 sessions on
// one Cache: its live entries stay within two generations, and the
// post-GC heap at the last round stays within 25% of the heap at a
// quarter of the rounds, so memory does not grow with rounds.
func TestSharedCacheMemorySoak(t *testing.T) {
	const sessions, rounds = 48, 3200
	cache := NewCache()
	ss := make([]*Session, sessions)
	seeds := make([]map[string]int64, sessions)
	for k := range ss {
		ss[k] = cache.NewSession()
		seeds[k] = map[string]int64{"Dev": int64(k)}
		for i := 0; i < 6; i++ {
			seeds[k][fmt.Sprintf("Ctl%d.m0", i)] = int64(2*i + 1)
			seeds[k][fmt.Sprintf("Ctl%d.m1", i)] = int64(2*i + 2)
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	var quarterHeap uint64
	for r := 1; r <= rounds; r++ {
		// Edit one method of every composite, so each round adds a
		// dozen entries and the cache reaches its steady state before
		// the quarter mark.
		k := r % sessions
		for i := 0; i < 6; i++ {
			seeds[k][fmt.Sprintf("Ctl%d.m%d", i, rng.Intn(2))] = rng.Int63()
		}
		src := namedSessionSource(fmt.Sprintf("S%d", k), 6, seeds[k])
		if _, err := ss[k].Recheck(ctx, "soak", []byte(src)); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if r == rounds/4 {
			quarterHeap = heap()
		}
	}
	lastHeap := heap()
	var live uint64
	for _, st := range cache.Stats().Stages {
		live += st.Entries
	}
	t.Logf("live entries %d; heap %d KB at round %d, %d KB at round %d",
		live, quarterHeap/1024, rounds/4, lastHeap/1024, rounds)
	if live > 2*4096 {
		t.Errorf("%d live entries, bound %d", live, 2*4096)
	}
	if float64(lastHeap) > 1.25*float64(quarterHeap) {
		t.Errorf("heap grew from %d KB at round %d to %d KB at round %d (> 25%%)",
			quarterHeap/1024, rounds/4, lastHeap/1024, rounds)
	}
}
