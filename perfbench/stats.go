package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie above it, so a tail figure is never
// one or two unlucky samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether the sample supports it under the minBeyond rule. xs is sorted
// in place.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], n-rank >= minBeyond
}

// highestPercentile returns the highest of the candidate quantiles the
// sample supports, with the quantile chosen; ok=false when even the
// lowest is unsupported.
func highestPercentile(xs []float64, candidates ...float64) (v, q float64, ok bool) {
	for i := len(candidates) - 1; i >= 0; i-- {
		if v, ok := percentile(xs, candidates[i]); ok {
			return v, candidates[i], true
		}
	}
	return 0, 0, false
}

// median is the plain median of a handful of repeated measurements
// (set-up times, repetitions) — no tail rule applies to it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
