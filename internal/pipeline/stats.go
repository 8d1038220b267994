package pipeline

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"github.com/shelley-go/shelley/internal/telemetry"
)

// NumBuckets is the number of build wall-time histogram columns per
// stage: the columns telemetry.RollupIndex folds the fine latency
// buckets into, one per decade from ≤10µs to ≤100ms plus an overflow
// column. The spread covers the observed range of the pipeline, from
// sub-microsecond behavior inference to multi-millisecond
// flatten/claim products.
const NumBuckets = 6

// columnBounds[c] is the inclusive upper bound of column c: the largest
// bound among the telemetry buckets that RollupIndex folds into c. The
// overflow column has none.
var columnBounds = func() (b [NumBuckets - 1]time.Duration) {
	for i := 0; i < telemetry.NumLatBuckets; i++ {
		if c := telemetry.RollupIndex(i); c < len(b) {
			b[c] = telemetry.BucketBound(i)
		}
	}
	return b
}()

// BucketLabels returns the histogram column labels, in bucket order.
func BucketLabels() []string {
	out := make([]string, 0, NumBuckets)
	for _, bound := range columnBounds {
		out = append(out, "≤"+bound.String())
	}
	return append(out, ">"+columnBounds[len(columnBounds)-1].String())
}

// stageCounters are the live atomics behind one stage's statistics.
type stageCounters struct {
	hits        atomic.Uint64
	misses      atomic.Uint64
	entries     atomic.Int64
	persistHits atomic.Uint64
	buildNanos  atomic.Int64
	buckets     [NumBuckets]atomic.Uint64
}

// StageStats is a point-in-time snapshot of one stage.
type StageStats struct {
	// Stage is the stage name (Stage.String()).
	Stage string

	// Hits counts lookups served from the cache, including waiters
	// that piggybacked on an in-flight build.
	Hits uint64

	// Misses counts builds actually executed.
	Misses uint64

	// Entries is the number of live entries, in-flight builds
	// included: dropped generations and entries deleted after a
	// panicked or cancelled build no longer count.
	Entries uint64

	// PersistHits counts misses answered by the durable artifact store
	// instead of a build (see Cache.Persist). They are counted apart
	// from Hits — a persist hit cost a disk read and a decode, not a
	// map lookup — and apart from Misses, which count builds actually
	// executed.
	PersistHits uint64

	// BuildTime is the total wall time spent in builds.
	BuildTime time.Duration

	// Buckets is the build wall-time histogram (see BucketLabels).
	Buckets [NumBuckets]uint64
}

// HitRate returns hits/(hits+misses), or 0 with no lookups.
func (s StageStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats is a snapshot of every stage, in Stage order.
type Stats struct {
	Stages []StageStats
}

// Stats snapshots the cache's counters. A nil cache yields all-zero
// stats (stage names included, so renderers need no special case).
func (c *Cache) Stats() Stats {
	out := Stats{Stages: make([]StageStats, numStages)}
	for i := range out.Stages {
		st := &out.Stages[i]
		st.Stage = Stage(i).String()
		if c == nil {
			continue
		}
		cnt := &c.stats[i]
		st.Hits = cnt.hits.Load()
		st.Misses = cnt.misses.Load()
		st.Entries = uint64(cnt.entries.Load())
		st.PersistHits = cnt.persistHits.Load()
		st.BuildTime = time.Duration(cnt.buildNanos.Load())
		for b := range st.Buckets {
			st.Buckets[b] = cnt.buckets[b].Load()
		}
	}
	return out
}

// Of returns the snapshot of one stage.
func (s Stats) Of(stage Stage) StageStats {
	if int(stage) < 0 || int(stage) >= len(s.Stages) {
		return StageStats{Stage: stage.String()}
	}
	return s.Stages[stage]
}

// Sub returns the per-stage difference s − prev: the activity that
// happened between two snapshots of the same cache. Incremental
// re-verification uses it to pin exactly which stages re-executed for
// one edit (hits = artifacts reused, misses = builds actually run).
// Counters are clamped at zero so a snapshot pair from different caches
// degrades to zeros instead of wrapping; Entries, a live count, keeps s's.
func (s Stats) Sub(prev Stats) Stats {
	sub := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	out := Stats{Stages: make([]StageStats, len(s.Stages))}
	for i, st := range s.Stages {
		d := st
		if i < len(prev.Stages) {
			p := prev.Stages[i]
			d.Hits = sub(st.Hits, p.Hits)
			d.Misses = sub(st.Misses, p.Misses)
			d.PersistHits = sub(st.PersistHits, p.PersistHits)
			d.BuildTime = st.BuildTime - p.BuildTime
			if d.BuildTime < 0 {
				d.BuildTime = 0
			}
			for b := range d.Buckets {
				d.Buckets[b] = sub(st.Buckets[b], p.Buckets[b])
			}
		}
		out.Stages[i] = d
	}
	return out
}

// TotalMisses sums misses over every stage.
func (s Stats) TotalMisses() uint64 {
	var n uint64
	for _, st := range s.Stages {
		n += st.Misses
	}
	return n
}

// String renders the snapshot as the aligned table printed by the
// -stats flag of shelleyc and shelleysim.
func (s Stats) String() string {
	var b strings.Builder
	b.WriteString("pipeline cache:\n")
	header := append([]string{"stage", "hits", "misses", "entries", "hit%", "build-time"}, BucketLabels()...)
	rows := [][]string{header}
	for _, st := range s.Stages {
		row := []string{
			st.Stage,
			fmt.Sprintf("%d", st.Hits),
			fmt.Sprintf("%d", st.Misses),
			fmt.Sprintf("%d", st.Entries),
			fmt.Sprintf("%.0f%%", st.HitRate()*100),
			st.BuildTime.Round(time.Microsecond).String(),
		}
		for _, n := range st.Buckets {
			row = append(row, fmt.Sprintf("%d", n))
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if w := len([]rune(cell)); w > widths[i] {
				widths[i] = w
			}
		}
	}
	for _, row := range rows {
		b.WriteString(" ")
		for i, cell := range row {
			pad := widths[i] - len([]rune(cell))
			b.WriteString(" ")
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", pad))
		}
		b.WriteString("\n")
	}
	return b.String()
}
