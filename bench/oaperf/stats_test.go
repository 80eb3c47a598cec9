package main

import (
	"math"
	"testing"
)

func TestPercentileKnownVectors(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} // unsorted on purpose
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 0, 1},
		{ten, 50, 5.5},
		{ten, 90, 9.1},
		{ten, 95, 9.55},
		{ten, 100, 10},
		{[]float64{4}, 95, 4},
		{[]float64{1, 2, 3}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2.5},
		{nil, 50, 0},
	} {
		if got := percentile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.xs, tc.p, got, tc.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestMedianOfRepetitions(t *testing.T) {
	// One disturbed repetition must not move the reported value.
	if got := median([]float64{1.02, 9.7, 0.98}); got != 1.02 {
		t.Errorf("median of three = %g, want the middle one 1.02", got)
	}
	if got := median([]float64{2, 4}); got != 3 {
		t.Errorf("median of two = %g, want 3", got)
	}
}

func TestEligible(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{{200, 95, true}, {199, 95, false}, {100, 90, true}, {1000, 99, true}, {999, 99, false}} {
		if got := eligible(tc.n, tc.p); got != tc.want {
			t.Errorf("eligible(%d, %g) = %t, want %t", tc.n, tc.p, got, tc.want)
		}
	}
}
