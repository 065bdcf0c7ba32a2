package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-th percentile of xs (0 if empty).
// xs is sorted in place.
func percentile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(math.Ceil(q/100*float64(len(xs)))) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

// median returns the median of xs (0 if empty); xs is sorted in place.
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
