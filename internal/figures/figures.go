// Package figures regenerates every evaluation figure of the paper as data
// series: Figure 7 (optimal groupings), Figure 8 (gains of the three improved
// heuristics on one cluster) and Figure 10 (gains on a grid of 2–5 clusters
// with Algorithm-1 repartition), plus the ablation experiments listed in
// DESIGN.md. Every measured point is evaluated on the event-driven executor
// through internal/engine's batched sweep runner, so figures parallelize
// across GOMAXPROCS workers while staying bit-identical to a serial run;
// Figure 10 runs each campaign through grid.Local, the campaign lifecycle
// the scheduler daemon runs. The command cmd/oabench prints these series as
// CSV and ASCII plots; bench_test.go wraps each one in a testing.B
// benchmark.
package figures

import (
	"context"
	"fmt"

	"oagrid/internal/core"
	"oagrid/internal/engine"
	"oagrid/internal/grid"
	"oagrid/internal/platform"
	"oagrid/internal/stats"
)

// Config parameterizes the experiment harness.
type Config struct {
	// App is the workload; the paper uses 10 scenarios × 1800 months. The
	// benchmarks shrink Months — gains are wave-structured and virtually
	// independent of the chain length beyond a few dozen months.
	App core.Application
	// RStep is the resource-count stride of the single-cluster sweeps
	// (Figures 7 and 8); 1 reproduces the paper's dense curves.
	RStep int
	// Workers sizes the sweep worker pool; 0 uses GOMAXPROCS. Results are
	// bit-identical whatever the value.
	Workers int
}

// DefaultConfig returns the paper's evaluation setup.
func DefaultConfig() Config {
	return Config{App: core.Default(), RStep: 1}
}

func (c Config) normalized() Config {
	if c.App.Scenarios == 0 {
		c.App = core.Default()
	}
	if c.RStep <= 0 {
		c.RStep = 1
	}
	return c
}

// rsweep returns one resized copy per resource count of the sweep, sharing
// each copy across heuristics and variants so the engine's plan cache and
// timing memos apply.
func rsweep(profile *platform.Cluster, from, to, step int) []*platform.Cluster {
	var out []*platform.Cluster
	for r := from; r <= to; r += step {
		out = append(out, profile.WithProcs(r))
	}
	return out
}

// Figure7 computes the optimal grouping (the basic heuristic's G) for
// resource counts 11..120 with 10 scenario simulations, the paper's Figure 7.
// The returned series maps R to G.
func Figure7(cfg Config) (*stats.Series, error) {
	cfg = cfg.normalized()
	ref := engine.Memoize(platform.ReferenceTiming())
	s := &stats.Series{Label: "best-grouping"}
	for r := 11; r <= 120; r += cfg.RStep {
		al, err := (core.Basic{}).Plan(cfg.App, ref, r)
		if err != nil {
			return nil, fmt.Errorf("figures: figure 7 at R=%d: %w", r, err)
		}
		s.Add(float64(r), float64(al.Groups[0]))
	}
	return s, nil
}

// Figure8Matrix builds the Figure-8 job matrix: resource counts 20..120 on
// the five cluster speed profiles, planned by the basic heuristic and its
// three improvements. The determinism test and the engine benchmark reuse it
// as the reference workload.
func Figure8Matrix(cfg Config) engine.Matrix {
	cfg = cfg.normalized()
	var clusters []*platform.Cluster
	for _, cl := range platform.FiveClusters() {
		clusters = append(clusters, rsweep(cl, 20, 120, cfg.RStep)...)
	}
	return engine.Matrix{
		App:        cfg.App,
		Clusters:   clusters,
		Heuristics: core.All(),
	}
}

// Figure8 computes, for each resource count R in 20..120, the makespan gain
// (percent) of each improved heuristic over the basic one, averaged over the
// five cluster speed profiles — the paper's Figure 8 (three stacked panels:
// Gain 1 = redistribute, Gain 2 = all-to-main, Gain 3 = knapsack). Each
// series point carries the mean and the standard deviation over the five
// profiles. The whole matrix runs as one batched sweep.
func Figure8(cfg Config) ([]*stats.Series, error) {
	cfg = cfg.normalized()
	m := Figure8Matrix(cfg)
	results := engine.Sweep(engine.DES{}, m.Jobs(), cfg.Workers)
	if err := engine.FirstError(results); err != nil {
		return nil, fmt.Errorf("figures: figure 8: %w", err)
	}
	// The matrix nests clusters as (profile, R): profiles outer, R inner.
	profiles := len(platform.FiveClusters())
	rcount := len(m.Clusters) / profiles
	improved := core.Improvements()
	series := make([]*stats.Series, len(improved))
	for i, h := range improved {
		series[i] = &stats.Series{Label: "gain-" + h.Name()}
	}
	for ri := 0; ri < rcount; ri++ {
		r := m.Clusters[ri].Procs
		gains := make([][]float64, len(improved))
		for pi := 0; pi < profiles; pi++ {
			ci := pi*rcount + ri
			base := results[m.Index(ci, 0, 0)].Result.Makespan
			for hi := range improved {
				ms := results[m.Index(ci, hi+1, 0)].Result.Makespan
				gains[hi] = append(gains[hi], stats.GainPercent(base, ms))
			}
		}
		for i := range improved {
			series[i].Add(float64(r), gains[i]...)
		}
	}
	return series, nil
}

// GridPoint is one Figure-10 configuration: k identical-size clusters drawn
// from the five speed profiles.
type GridPoint struct {
	Clusters        int
	ProcsPerCluster int
	// X is the paper's axis encoding: clusters + procs/100 ("2.25 represents
	// two clusters with 25 resources each").
	X float64
	// Gain per improved heuristic (percent over basic), in
	// core.Improvements() order.
	Gains []float64
}

// Figure10 computes the grid experiment: for 2..5 clusters (prefixes of the
// five speed profiles) with identical per-cluster resource counts, each
// heuristic's campaign runs the Figure-9 pipeline the scheduler daemon runs
// — per-cluster performance vectors, Algorithm-1 repartition, one chunk per
// loaded cluster — and the gain compares its makespan against the basic
// heuristic's campaign. procsSweep lists the per-cluster resource counts to
// visit (the paper uses 11..99).
func Figure10(cfg Config, procsSweep []int) ([]*stats.Series, []GridPoint, error) {
	cfg = cfg.normalized()
	profiles := platform.FiveClusters()
	improved := core.Improvements()
	series := make([]*stats.Series, len(improved))
	for i, h := range improved {
		series[i] = &stats.Series{Label: "gain-" + h.Name()}
	}
	var points []GridPoint
	for k := 2; k <= len(profiles); k++ {
		for _, procs := range procsSweep {
			pt, err := gridPoint(cfg, profiles[:k], procs)
			if err != nil {
				return nil, nil, fmt.Errorf("figures: figure 10 k=%d R=%d: %w", k, procs, err)
			}
			for i, g := range pt.Gains {
				series[i].Add(pt.X, g)
			}
			points = append(points, pt)
		}
	}
	return series, points, nil
}

// gridPoint runs one campaign per heuristic on a grid.Local over the
// profiles resized to procs. The four campaigns share the point's Local and
// so its vector cache, which keys on cluster name: WithProcs keeps the name,
// so a Local shared across resource counts would hand one count's vectors to
// another.
func gridPoint(cfg Config, profiles []*platform.Cluster, procs int) (GridPoint, error) {
	clusters := make([]*platform.Cluster, len(profiles))
	for i, cl := range profiles {
		clusters[i] = cl.WithProcs(procs)
	}
	local, err := grid.NewLocal(clusters, grid.LocalConfig{Workers: cfg.Workers})
	if err != nil {
		return GridPoint{}, err
	}
	defer local.Close()
	makespan := func(h core.Heuristic) (float64, error) {
		res, err := local.RunContext(context.Background(), cfg.App, h.Name(), grid.SubmitMeta{}, nil, nil)
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	}
	base, err := makespan(core.Basic{})
	if err != nil {
		return GridPoint{}, err
	}
	pt := GridPoint{
		Clusters:        len(profiles),
		ProcsPerCluster: procs,
		X:               float64(len(profiles)) + float64(procs)/100,
	}
	for _, h := range core.Improvements() {
		ms, err := makespan(h)
		if err != nil {
			return GridPoint{}, err
		}
		pt.Gains = append(pt.Gains, stats.GainPercent(base, ms))
	}
	return pt, nil
}
