package pipeline

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/shelley-go/shelley/internal/telemetry"
)

// column is the histogram column a build of duration d is counted in.
func column(d time.Duration) int { return telemetry.RollupIndex(telemetry.BucketIndex(d)) }

func TestBucketIndexBoundaries(t *testing.T) {
	tests := []struct {
		name string
		d    time.Duration
		want int
	}{
		{"zero lands in the first bucket", 0, 0},
		{"below first bound", 9 * time.Microsecond, 0},
		{"exact first bound is inclusive", 10 * time.Microsecond, 0},
		{"just past first bound", 10*time.Microsecond + 1, 1},
		{"exact second bound", 100 * time.Microsecond, 1},
		{"exact 1ms bound", time.Millisecond, 2},
		{"exact 10ms bound", 10 * time.Millisecond, 3},
		{"exact last bound", 100 * time.Millisecond, 4},
		{"just past last bound overflows", 100*time.Millisecond + 1, NumBuckets - 1},
		{"effectively +Inf overflows", time.Hour, NumBuckets - 1},
		{"negative clamps to first bucket", -time.Second, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := column(tt.d); got != tt.want {
				t.Errorf("column(%v) = %d, want %d", tt.d, got, tt.want)
			}
		})
	}
}

func TestBucketIndexAlwaysInRange(t *testing.T) {
	for _, d := range []time.Duration{0, 1, time.Nanosecond, time.Microsecond,
		time.Millisecond, time.Second, time.Hour, -1} {
		if i := column(d); i < 0 || i >= NumBuckets {
			t.Errorf("column(%v) = %d out of [0, %d)", d, i, NumBuckets)
		}
	}
	if i := column(time.Duration(1<<63 - 1)); i != NumBuckets-1 {
		t.Errorf("the largest duration lands in column %d, want the overflow column %d", i, NumBuckets-1)
	}
}

func TestBucketBoundMatchesIndex(t *testing.T) {
	// Every non-overflow column's bound must map back into that column.
	for i, bound := range columnBounds {
		if got := column(bound); got != i {
			t.Errorf("column(columnBounds[%d]=%v) = %d", i, bound, got)
		}
		if got := column(bound + 1); got != i+1 {
			t.Errorf("column(bound+1) = %d, want %d", got, i+1)
		}
	}
	if len(BucketLabels()) != NumBuckets {
		t.Errorf("BucketLabels() has %d entries, want %d", len(BucketLabels()), NumBuckets)
	}
}

// TestStatsTableHeader pins the -stats table's header and column labels,
// and checks that every stage counts each build in exactly one column.
func TestStatsTableHeader(t *testing.T) {
	const want = "  stage    hits misses entries hit% build-time ≤10µs ≤100µs ≤1ms ≤10ms ≤100ms >100ms"
	c := New()
	for i := 0; i < 40; i++ {
		stage := Stage(i % int(numStages))
		_, _ = c.Do(stage, fmt.Sprint(i%25), func() (any, error) {
			time.Sleep(time.Duration(i%3) * 20 * time.Microsecond)
			return i, nil
		})
	}
	s := c.Stats()
	lines := strings.Split(s.String(), "\n")
	if lines[0] != "pipeline cache:" || strings.TrimRight(lines[1], " ") != want {
		t.Fatalf("table header:\n%s\nwant:\n%s", lines[1], want)
	}
	misses := uint64(0)
	for _, st := range s.Stages {
		var sum uint64
		for _, n := range st.Buckets {
			sum += n
		}
		if sum != st.Misses {
			t.Errorf("stage %s: buckets sum to %d, misses %d", st.Stage, sum, st.Misses)
		}
		misses += st.Misses
	}
	if misses == 0 {
		t.Fatal("no builds recorded")
	}
}
