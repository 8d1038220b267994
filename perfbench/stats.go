package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	ds = append([]time.Duration(nil), ds...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(math.Ceil(p*float64(len(ds)))) - 1
	if k < 0 {
		k = 0
	}
	return ds[k]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads printed here match the ones an
// external checker computes. xs is sorted in place; fewer than two
// values give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perSecond counts the samples sent in each second of the window.
func perSecond(ats []time.Duration) []int {
	var n []int
	for _, at := range ats {
		k := int(at / time.Second)
		for len(n) <= k {
			n = append(n, 0)
		}
		n[k]++
	}
	return n
}

// quantilesUS summarises a latency distribution for the result file.
func quantilesUS(ds []time.Duration) map[string]float64 {
	q := map[string]float64{}
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		q[fmt.Sprintf("p%g", 100*p)] = us(percentile(ds, p))
	}
	return q
}
