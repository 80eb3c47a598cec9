package stats

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %g, want 5", m)
	}
	if sd := StdDev(xs); math.Abs(sd-2) > 1e-12 {
		t.Fatalf("StdDev = %g, want 2", sd)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{3}) != 0 {
		t.Fatal("empty/singleton aggregates should be 0")
	}
}

func TestGainPercent(t *testing.T) {
	if g := GainPercent(100, 88); g != 12 {
		t.Fatalf("GainPercent = %g, want 12", g)
	}
	if g := GainPercent(100, 110); g != -10 {
		t.Fatalf("GainPercent = %g, want -10", g)
	}
	if g := GainPercent(0, 50); g != 0 {
		t.Fatalf("GainPercent with zero baseline = %g, want 0", g)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Label = "gain1"
	s.Add(20, 1, 2, 3)
	s.Add(40, 4)
	if len(s.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(s.Points))
	}
	if s.Points[0].Mean != 2 {
		t.Fatalf("mean = %g, want 2", s.Points[0].Mean)
	}
	if s.Points[1].X != 40 || s.Points[1].Mean != 4 {
		t.Fatalf("second point = %+v, want x 40 mean 4", s.Points[1])
	}
	csv := s.CSV()
	if !strings.Contains(csv, "# gain1") || !strings.Contains(csv, "20,2,") {
		t.Fatalf("CSV missing content:\n%s", csv)
	}
}

func TestASCIIPlot(t *testing.T) {
	var s Series
	s.Label = "demo"
	for x := 0; x < 10; x++ {
		s.Add(float64(x), float64(x*x))
	}
	out := ASCIIPlot(40, 10, &s)
	if !strings.Contains(out, "*") || !strings.Contains(out, "demo") {
		t.Fatalf("plot missing marks or legend:\n%s", out)
	}
	if got := ASCIIPlot(40, 10); got != "(empty plot)\n" {
		t.Fatalf("empty plot rendering = %q", got)
	}
	// Flat series must not divide by zero.
	var flat Series
	flat.Add(1, 5)
	flat.Add(2, 5)
	_ = ASCIIPlot(20, 5, &flat)
}

// Property: the mean is always within [min, max] and StdDev is non-negative.
func TestMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		lo, hi := slices.Min(xs), slices.Max(xs)
		return m >= lo-1e-9 && m <= hi+1e-9 && StdDev(xs) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
