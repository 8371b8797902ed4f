package main

import (
	"math"
	"slices"
)

// minLatencySamples is the smallest sample count whose p99 has at least
// ten samples beyond it; a timed phase runs on past its budget until it
// has this many.
const minLatencySamples = 1000

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the exact q-quantile (nearest rank) of sorted and the
// number of samples beyond it, or beyond = -1 when fewer than minBeyond
// samples lie beyond it and the percentile must not be reported.
func percentile(sorted []int64, q float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, -1
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	beyond = n - 1 - idx
	if beyond < minBeyond {
		return sorted[idx], -1
	}
	return sorted[idx], beyond
}

// sortedCopy merges sample slices into one sorted slice.
func sortedCopy(parts ...[]int64) []int64 {
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int64, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.Sort(out)
	return out
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), leaving xs unsorted.
func median[T ~int64 | ~float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
