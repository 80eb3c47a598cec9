package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs with linear
// interpolation between the two closest ranks (the same rule as Python's
// statistics and numpy's default), on a sorted copy. An empty sample reads
// as 0 — the value a layer reports when it is not on a workload's path.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// median is the 50th percentile; it is both the p50 of a latency sample and
// the fold that turns a metric's per-repetition values into its reported one.
func median(xs []float64) float64 { return percentile(xs, 50) }

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

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// eligible reports whether the p-th percentile of n samples has at least ten
// samples beyond it — the rule for the highest percentile a sample supports.
func eligible(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= 10
}
