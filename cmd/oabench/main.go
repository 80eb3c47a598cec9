// Command oabench regenerates the paper's evaluation figures as CSV series
// and ASCII plots.
//
// Usage:
//
//	oabench -fig all                 # everything, reduced scale (~seconds)
//	oabench -fig 8 -full             # figure 8 at full paper scale
//	oabench -fig 7 -csv out/         # also write CSV files
//	oabench -fig ablations           # the DESIGN.md ablation experiments
//
// Figure numbering follows the paper: 1 (task-duration calibration from the
// toy coupled model), 7 (optimal groupings), 8 (single-cluster gains),
// 10 (grid-repartition gains). Every measured figure runs through
// internal/engine's batched sweep runner; -workers sizes the pool.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"oagrid/internal/climate/field"
	"oagrid/internal/core"
	"oagrid/internal/figures"
	"oagrid/internal/stats"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 1, 7, 8, 10, ablations or all")
		full    = flag.Bool("full", false, "paper-scale workload (NS=10, NM=1800, dense sweeps); slower")
		months  = flag.Int("months", 0, "override months per scenario (0 = 60 reduced / 1800 full)")
		step    = flag.Int("step", 0, "override resource sweep stride (0 = 5 reduced / 1 full)")
		csvDir  = flag.String("csv", "", "directory to write CSV series into (optional)")
		workers = flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	)
	flag.Parse()

	cfg := figures.DefaultConfig()
	if *full {
		cfg.App = core.Default()
		cfg.RStep = 1
	} else {
		cfg.App = core.Application{Scenarios: 10, Months: 60}
		cfg.RStep = 5
	}
	if *months > 0 {
		cfg.App.Months = *months
	}
	if *step > 0 {
		cfg.RStep = *step
	}
	cfg.Workers = *workers

	want := func(name string) bool { return *fig == "all" || *fig == name }
	ran := false
	if want("1") {
		ran = true
		runFigure1(*full)
	}
	if want("7") {
		ran = true
		runFigure7(cfg, *csvDir)
	}
	if want("8") {
		ran = true
		runFigure8(cfg, *csvDir)
	}
	if want("10") {
		ran = true
		runFigure10(cfg, *csvDir, *full)
	}
	if want("ablations") {
		ran = true
		runAblations(cfg, *csvDir)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "oabench: unknown figure %q (want 1, 7, 8, 10, ablations or all)\n", *fig)
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "oabench:", err)
	os.Exit(1)
}

func writeCSV(dir, name string, series ...*stats.Series) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	var b strings.Builder
	for _, s := range series {
		b.WriteString(s.CSV())
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func runFigure1(full bool) {
	fmt.Println("== Figure 1: task-duration calibration (toy coupled model) ==")
	dir, err := os.MkdirTemp("", "oabench-fig1-*")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	cfg := figures.Figure1Config{
		WorkDir:   dir,
		AtmosGrid: field.Grid{NLat: 24, NLon: 48},
		OceanGrid: field.Grid{NLat: 36, NLon: 72},
		Days:      3,
	}
	if full {
		cfg.AtmosGrid = field.Grid{NLat: 48, NLon: 96}
		cfg.OceanGrid = field.Grid{NLat: 72, NLon: 144}
		cfg.Days = 30
	}
	res, err := figures.Figure1(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Println(res.Table())
}

func runFigure7(cfg figures.Config, csvDir string) {
	fmt.Println("== Figure 7: optimal groupings for 10 scenario simulations ==")
	s, err := figures.Figure7(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Print(stats.ASCIIPlot(100, 12, s))
	writeCSV(csvDir, "figure7.csv", s)
}

func runFigure8(cfg figures.Config, csvDir string) {
	fmt.Printf("== Figure 8: gains over basic (NS=%d, NM=%d, 5 cluster profiles) ==\n",
		cfg.App.Scenarios, cfg.App.Months)
	series, err := figures.Figure8(cfg)
	if err != nil {
		fail(err)
	}
	for _, s := range series {
		fmt.Printf("-- %s --\n", s.Label)
		fmt.Print(stats.ASCIIPlot(100, 10, s))
	}
	writeCSV(csvDir, "figure8.csv", series...)
}

func runFigure10(cfg figures.Config, csvDir string, full bool) {
	fmt.Printf("== Figure 10: grid gains, 2-5 clusters (NS=%d, NM=%d) ==\n",
		cfg.App.Scenarios, cfg.App.Months)
	sweep := []int{11, 25, 50, 75, 99}
	if full {
		sweep = sweep[:0]
		for r := 11; r <= 99; r += 2 {
			sweep = append(sweep, r)
		}
	}
	series, points, err := figures.Figure10(cfg, sweep)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%8s %8s %14s %14s %14s\n", "clusters", "procs", "gain-redis-%", "gain-a2m-%", "gain-knap-%")
	for _, pt := range points {
		fmt.Printf("%8d %8d %14.2f %14.2f %14.2f\n",
			pt.Clusters, pt.ProcsPerCluster, pt.Gains[0], pt.Gains[1], pt.Gains[2])
	}
	writeCSV(csvDir, "figure10.csv", series...)
}

func runAblations(cfg figures.Config, csvDir string) {
	fmt.Println("== Ablation A1: knapsack value function (makespans, lower is better) ==")
	a1, err := figures.AblationKnapsackValue(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Print(stats.ASCIIPlot(100, 10, a1...))
	writeCSV(csvDir, "ablation-knapsack-value.csv", a1...)

	fmt.Println("== Ablation A2: dispatch fairness policies (makespans) ==")
	a2, err := figures.AblationFairness(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Print(stats.ASCIIPlot(100, 10, a2...))
	writeCSV(csvDir, "ablation-fairness.csv", a2...)

	fmt.Println("== Ablation A3: analytical-model error vs executor (%) ==")
	a3, err := figures.AblationModelError(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Print(stats.ASCIIPlot(100, 8, a3))
	writeCSV(csvDir, "ablation-model-error.csv", a3)

	fmt.Println("== Ablation A4: knapsack gain under duration jitter (%) ==")
	a4, err := figures.AblationJitter(cfg, []float64{0, 0.05, 0.15}, 3)
	if err != nil {
		fail(err)
	}
	fmt.Print(stats.ASCIIPlot(100, 10, a4...))
	writeCSV(csvDir, "ablation-jitter.csv", a4...)

	fmt.Println("== Ablation A5: related-work baselines (CPA, sequential DAGs; makespans) ==")
	a5, err := figures.AblationCPA(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Print(stats.ASCIIPlot(100, 10, a5...))
	writeCSV(csvDir, "ablation-cpa.csv", a5...)
}
