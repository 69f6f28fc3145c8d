package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles tailPercentile chooses from, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder, no higher
// than maxPct, that leaves at least ten of n samples beyond it. It returns
// 0 when even the median would leave fewer than ten (n < 20).
func tailPercentile(n int, maxPct float64) float64 {
	for _, p := range tailLadder {
		if p <= maxPct && n-rank(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples, clamped to [1, n].
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(1, min(r, n))
}

// percentile returns the p-th percentile (nearest rank) of xs, which it
// sorts in place. It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// slope fits y = a + b·t by least squares and returns b (units of y per
// unit of t). It returns 0 for fewer than two distinct times.
func slope(t, y []float64) float64 {
	n := float64(len(t))
	if len(t) < 2 || len(t) != len(y) {
		return 0
	}
	var st, sy, stt, sty float64
	for i := range t {
		st += t[i]
		sy += y[i]
		stt += t[i] * t[i]
		sty += t[i] * y[i]
	}
	den := n*stt - st*st
	if den == 0 {
		return 0
	}
	return (n*sty - st*sy) / den
}

// ratio divides a by b, returning 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
