package telemetry

import (
	"math"
	"sort"
	"time"
)

// Request latencies are histogrammed into geometric buckets with ratio
// 10^(1/16) (~15.5% per step), sixteen per decade from 1µs to 10s plus
// one overflow bucket. The resolution is chosen for two properties:
//
//   - quantiles interpolated inside a bucket are within ±7.5% of the
//     true value, comfortably inside the 10% accuracy the status
//     endpoint promises;
//   - every decade anchor (1µs, 10µs, ..., 10s) is an exact bucket
//     bound, so RollupIndex folds fine buckets into whole decades.
const (
	// bucketsPerDecade fixes the ratio r = 10^(1/16) ≈ 1.1548.
	bucketsPerDecade = 16

	// numLatBounds is the count of finite upper bounds: 1µs·10^(i/16)
	// for i in [0, 112]; bound 112 is exactly 10s.
	numLatBounds = 7*bucketsPerDecade + 1

	// NumLatBuckets is the histogram size: every finite bound plus the
	// overflow bucket.
	NumLatBuckets = numLatBounds + 1
)

// latBounds[i] is the inclusive upper bound of bucket i in nanoseconds.
// Decade anchors are computed in integer arithmetic, so a duration of
// exactly 10µs, 100µs, ... lands in the bucket that the anchor closes.
var latBounds = func() [numLatBounds]int64 {
	var b [numLatBounds]int64
	decade := int64(1000) // 1µs in ns
	for i := range b {
		switch {
		case i%bucketsPerDecade == 0:
			b[i] = decade
			decade *= 10
		default:
			b[i] = int64(math.Round(1000 * math.Pow(10, float64(i)/bucketsPerDecade)))
		}
	}
	return b
}()

// BucketIndex returns the fine histogram bucket for a duration, in
// [0, NumLatBuckets). Durations above 10s land in the overflow bucket.
func BucketIndex(d time.Duration) int {
	n := int64(d)
	if n <= latBounds[0] {
		return 0
	}
	if n > latBounds[numLatBounds-1] {
		return numLatBounds
	}
	// Smallest bound that contains n; ~7 probes over 113 bounds.
	return sort.Search(numLatBounds, func(i int) bool { return latBounds[i] >= n })
}

// BucketBound returns the inclusive upper bound of bucket i, or a
// negative duration for the overflow bucket.
func BucketBound(i int) time.Duration {
	if i < 0 || i >= numLatBounds {
		return -1
	}
	return time.Duration(latBounds[i])
}

// BucketLabel renders a bucket's upper bound ("+Inf" for overflow),
// matching the le label convention of the exposition format.
func BucketLabel(i int) string {
	if b := BucketBound(i); b >= 0 {
		return b.String()
	}
	return "+Inf"
}

// RollupIndex maps a fine bucket to one of six coarse buckets, one per
// decade with bounds 10µs, 100µs, 1ms, 10ms, 100ms, then +Inf: the
// columns of the pipeline-stats table and the le buckets of /metrics.
func RollupIndex(fine int) int {
	switch {
	case fine <= 1*bucketsPerDecade:
		return 0
	case fine <= 2*bucketsPerDecade:
		return 1
	case fine <= 3*bucketsPerDecade:
		return 2
	case fine <= 4*bucketsPerDecade:
		return 3
	case fine <= 5*bucketsPerDecade:
		return 4
	default:
		return 5
	}
}

// Quantile estimates the q-quantile (0 < q <= 1) of a latency
// distribution from per-bucket counts, interpolating geometrically
// inside the landing bucket. An empty histogram yields 0; ranks landing
// in the overflow bucket are reported as the last finite bound (10s).
func Quantile(counts *[NumLatBuckets]uint64, q float64) time.Duration {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum+1e-9 < rank {
			continue
		}
		if i >= numLatBounds {
			return time.Duration(latBounds[numLatBounds-1])
		}
		upper := float64(latBounds[i])
		frac := (rank - prev) / float64(c)
		if i == 0 {
			// The first bucket spans (0, 1µs] — there is no previous
			// bound to anchor a geometric interpolation, so interpolate
			// linearly from 0 instead of fabricating a ~866ns lower
			// bound that would overstate sub-microsecond quantiles.
			return time.Duration(upper * frac)
		}
		lower := float64(latBounds[i-1])
		return time.Duration(lower * math.Pow(upper/lower, frac))
	}
	return time.Duration(latBounds[numLatBounds-1])
}
