// Package stats provides the small statistical toolkit used by the
// experiment harness: means, standard deviations, and labelled series in the
// form the paper's gain plots (Figures 8 and 10) report.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or 0 when fewer
// than two samples are present. The paper's Figure 8 error bars are population
// deviations over its five cluster profiles, so we match that convention.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += float64(d * d) // rounded: never a fused multiply-add
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// GainPercent returns the relative improvement of improved over baseline in
// percent: 100 * (baseline - improved) / baseline. A positive gain means the
// improved makespan is shorter. A zero baseline yields 0.
func GainPercent(baseline, improved float64) float64 {
	if baseline == 0 {
		return 0
	}
	return 100 * (baseline - improved) / baseline
}

// Point is one x position of a Series.
type Point struct {
	X      float64
	Mean   float64
	StdDev float64
	// Samples preserves the raw values behind Mean/StdDev so downstream
	// consumers (tests, CSV export) can re-aggregate.
	Samples []float64
}

// Series is a labelled sequence of points, ordered by X. It is the common
// currency between the figure harness, the CLI plotters and the benchmarks.
type Series struct {
	Label  string
	Points []Point
}

// Add appends a point computed from the given samples.
func (s *Series) Add(x float64, samples ...float64) {
	s.Points = append(s.Points, Point{
		X:       x,
		Mean:    Mean(samples),
		StdDev:  StdDev(samples),
		Samples: append([]float64(nil), samples...),
	})
}

// CSV renders the series as "x,mean,stddev" lines with a header, the format
// consumed by gnuplot in the original study.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\nx,mean,stddev\n", s.Label)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%g,%g,%g\n", p.X, p.Mean, p.StdDev)
	}
	return b.String()
}

// ASCIIPlot renders one or more series as a crude fixed-width terminal plot.
// It exists so cmd/oabench can show figure shapes without any plotting
// dependency. Width and height are the plot area in characters.
func ASCIIPlot(width, height int, series ...*Series) string {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	var xmin, xmax, ymin, ymax float64
	first := true
	for _, s := range series {
		for _, p := range s.Points {
			if first {
				xmin, xmax, ymin, ymax = p.X, p.X, p.Mean, p.Mean
				first = false
				continue
			}
			xmin = math.Min(xmin, p.X)
			xmax = math.Max(xmax, p.X)
			ymin = math.Min(ymin, p.Mean)
			ymax = math.Max(ymax, p.Mean)
		}
	}
	if first {
		return "(empty plot)\n"
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	marks := []byte{'*', '+', 'o', 'x', '#', '@'}
	for si, s := range series {
		mark := marks[si%len(marks)]
		for _, p := range s.Points {
			cx := int((p.X - xmin) / (xmax - xmin) * float64(width-1))
			cy := int((p.Mean - ymin) / (ymax - ymin) * float64(height-1))
			row := height - 1 - cy
			grid[row][cx] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "y: [%.3g .. %.3g]\n", ymin, ymax)
	for _, row := range grid {
		b.WriteByte('|')
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "x: [%.3g .. %.3g]   ", xmin, xmax)
	for si, s := range series {
		fmt.Fprintf(&b, "%c=%s ", marks[si%len(marks)], s.Label)
	}
	b.WriteByte('\n')
	return b.String()
}
