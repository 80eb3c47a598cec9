package oagrid

// The benchmark harness: one benchmark per evaluation figure of the paper
// plus the ablations of DESIGN.md and micro-benchmarks of the hot paths.
// Figure benchmarks run a reduced workload (the gains depend on the wave
// structure, not the chain length); cmd/oabench regenerates the full-scale
// data. Custom metrics report the reproduction's headline numbers, e.g.
// max-gain-% for Figure 8.

import (
	"testing"

	"oagrid/internal/climate/field"
	"oagrid/internal/climate/model"
	"oagrid/internal/core"
	"oagrid/internal/engine"
	"oagrid/internal/exec"
	"oagrid/internal/figures"
	"oagrid/internal/knapsack"
	"oagrid/internal/platform"
)

// benchConfig is the reduced-scale harness configuration shared by the
// figure benchmarks.
func benchConfig() figures.Config {
	return figures.Config{
		App:   core.Application{Scenarios: 10, Months: 60},
		RStep: 5,
	}
}

// BenchmarkFigure1TaskTable re-derives the Figure-1 task-duration table by
// running one short coupled month per processor count (E1).
func BenchmarkFigure1TaskTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := figures.Figure1(figures.Figure1Config{
			WorkDir:   b.TempDir(),
			AtmosGrid: field.Grid{NLat: 24, NLon: 48},
			OceanGrid: field.Grid{NLat: 36, NLon: 72},
			Days:      2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Speedup[platform.MaxGroup], "speedup-at-11procs")
		}
	}
}

// BenchmarkFigure7OptimalGrouping regenerates the optimal-grouping curve
// (E2).
func BenchmarkFigure7OptimalGrouping(b *testing.B) {
	cfg := figures.DefaultConfig()
	for i := 0; i < b.N; i++ {
		s, err := figures.Figure7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := s.Points[len(s.Points)-1]
			b.ReportMetric(last.Mean, "grouping-at-R120")
		}
	}
}

// BenchmarkFigure8Gains regenerates the three gain curves over the five
// cluster profiles (E3).
func BenchmarkFigure8Gains(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		series, err := figures.Figure8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			maxGain := 0.0
			for _, s := range series {
				for _, p := range s.Points {
					if p.Mean > maxGain {
						maxGain = p.Mean
					}
				}
			}
			b.ReportMetric(maxGain, "max-gain-%")
		}
	}
}

// BenchmarkFigure10GridGains regenerates the grid-repartition gains for 2–5
// clusters (E4).
func BenchmarkFigure10GridGains(b *testing.B) {
	cfg := benchConfig()
	sweep := []int{11, 33, 55, 77, 99}
	for i := 0; i < b.N; i++ {
		series, _, err := figures.Figure10(cfg, sweep)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			maxGain := 0.0
			for _, s := range series {
				for _, p := range s.Points {
					if p.Mean > maxGain {
						maxGain = p.Mean
					}
				}
			}
			b.ReportMetric(maxGain, "max-grid-gain-%")
		}
	}
}

// BenchmarkAblationKnapsackValue compares knapsack value functions (A1).
func BenchmarkAblationKnapsackValue(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := figures.AblationKnapsackValue(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFairness compares dispatch policies (A2).
func BenchmarkAblationFairness(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := figures.AblationFairness(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationModelError measures the analytical model's error against
// the executor (A3).
func BenchmarkAblationModelError(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		s, err := figures.AblationModelError(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			worst := 0.0
			for _, p := range s.Points {
				if p.Mean > worst {
					worst = p.Mean
				}
			}
			b.ReportMetric(worst, "worst-model-error-%")
		}
	}
}

// BenchmarkAblationJitter measures gain robustness under duration noise (A4).
func BenchmarkAblationJitter(b *testing.B) {
	cfg := benchConfig()
	cfg.RStep = 20
	for i := 0; i < b.N; i++ {
		if _, err := figures.AblationJitter(cfg, []float64{0.05, 0.15}, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkKnapsackSolve measures one grouping optimization (R=120, NS=10).
func BenchmarkKnapsackSolve(b *testing.B) {
	ref := platform.ReferenceTiming()
	items := make([]knapsack.Item, 0, 8)
	for g := platform.MinGroup; g <= platform.MaxGroup; g++ {
		tg, err := ref.MainSeconds(g)
		if err != nil {
			b.Fatal(err)
		}
		items = append(items, knapsack.Item{Cost: g, Value: 1 / tg})
	}
	p := knapsack.Problem{Items: items, Capacity: 120, MaxItems: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := knapsack.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUniformEstimate measures one closed-form model evaluation.
func BenchmarkUniformEstimate(b *testing.B) {
	app := core.Default()
	ref := platform.ReferenceTiming()
	for i := 0; i < b.N; i++ {
		if _, err := core.UniformEstimate(app, ref, 53, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutorFullScale replays the paper's full workload (10 scenarios
// × 1800 months = 36000 tasks) through the event-driven executor.
func BenchmarkExecutorFullScale(b *testing.B) {
	app := core.Default()
	ref := platform.ReferenceTiming()
	al, err := (core.Knapsack{}).Plan(app, ref, 53)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(app, ref, 53, al, exec.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerformanceVector measures one cluster's step-2 computation.
func BenchmarkPerformanceVector(b *testing.B) {
	app := core.Application{Scenarios: 10, Months: 120}
	cl := platform.ReferenceCluster(53)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.PerformanceVector(engine.DES{}, app, cl, core.Knapsack{}, engine.Options{}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepartition measures Algorithm 1 on five clusters.
func BenchmarkRepartition(b *testing.B) {
	app := core.Application{Scenarios: 10, Months: 60}
	var perf [][]float64
	for _, cl := range platform.FiveClusters() {
		vec, err := engine.PerformanceVector(engine.Model{}, app, cl.WithProcs(60), core.Basic{}, engine.Options{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		perf = append(perf, vec)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Repartition(perf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoupledMonth measures one toy coupled month (the pcr task) at the
// default grids with the full 4-to-11 moldable spread reported as the
// speedup between the two extremes.
func BenchmarkCoupledMonth(b *testing.B) {
	for _, procs := range []int{4, 11} {
		procs := procs
		b.Run(byProcs(procs), func(b *testing.B) {
			dir := b.TempDir()
			for i := 0; i < b.N; i++ {
				_, err := model.Run(model.Config{
					WorkDir:    dir,
					Procs:      procs,
					Scenario:   0,
					Month:      0,
					CloudParam: 0.4,
					Days:       5,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func byProcs(p int) string { return "procs-" + string(rune('0'+p/10)) + string(rune('0'+p%10)) }
