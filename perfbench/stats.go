package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs: the smallest sample
// with at least a fraction q of the samples at or below it. NaN for an
// empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rankIndex(len(s), q)]
}

// rankIndex is the 0-based index of the nearest-rank q-quantile among n
// sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// tailOK reports whether the nearest-rank q-quantile of n samples has at
// least minBeyond samples above it — the rule that makes a tail
// percentile meaningful (p99 needs 1000 samples for 10 beyond it).
func tailOK(n int, q float64, minBeyond int) bool {
	if n == 0 {
		return false
	}
	return n-1-rankIndex(n, q) >= minBeyond
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never enters).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sortBy sorts xs in place by ascending key, stably.
func sortBy[T any](xs []T, key func(T) float64) {
	sort.SliceStable(xs, func(i, j int) bool { return key(xs[i]) < key(xs[j]) })
}
