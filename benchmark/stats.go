package main

import (
	"math"
	"sort"
)

// rank is the nearest-rank position (1-based) of the p-th percentile among
// n samples. The small slack keeps a product such as 99.9/100·10000, which
// floating point lands a hair above 9990, from rounding up a whole rank.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p/100*float64(n)-1e-9)))
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle value of v (unsorted), the mean of the two middle
// values when there are an even number, 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tailCandidates are the percentiles a latency report may quote.
var tailCandidates = []float64{50, 75, 90, 99, 99.9}

// samplesBeyond counts the samples strictly above the nearest-rank p-th
// percentile position of an n-sample set.
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// supportedTail returns the highest candidate percentile that still has at
// least ten of n samples beyond it, 0 when not even the median does.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		if samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// quartileSpread is the distance between the first and third quartile of v
// as a share of its median — the steadiness measure the acceptance check
// uses. The quartiles follow Python's statistics.quantiles(v, n=4)
// (exclusive method); fewer than two values have no spread.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	mid := q(2)
	if mid == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(mid)
}
