package figures

import (
	"fmt"
	"math"

	"oagrid/internal/baseline"
	"oagrid/internal/core"
	"oagrid/internal/engine"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
	"oagrid/internal/stats"
)

// This file implements the ablation experiments A1–A5 of DESIGN.md — design
// choices the paper fixes without comparison, explored here. Each ablation is
// one engine.Sweep over a (cluster × heuristic × variant) matrix.

// referenceSweep returns the shared single-cluster resource sweep: the
// reference profile resized to each resource count, one copy per count.
func referenceSweep(cfg Config, from int) []*platform.Cluster {
	return rsweep(platform.ReferenceCluster(0), from, 120, cfg.RStep)
}

// AblationKnapsackValue (A1) compares the paper's knapsack value function
// 1/T[g] against two alternatives on the reference cluster: the
// per-processor-efficiency value 1/(g·T[g]) and a square-root compromise.
// The literal (paper-formulation) planner is used so the value function
// alone decides the grouping — the default planner's pin-aware re-ranking
// would mask the differences. It returns one makespan series per value
// function.
func AblationKnapsackValue(cfg Config) ([]*stats.Series, error) {
	cfg = cfg.normalized()
	clusters := referenceSweep(cfg, 20)
	variants := []struct {
		label string
		value func(g int, tg float64) float64
	}{
		{"value-1/T", nil}, // the paper's choice
		{"value-1/(gT)", func(g int, tg float64) float64 { return 1 / (float64(g) * tg) }},
		{"value-1/(sqrt(g)T)", func(g int, tg float64) float64 { return 1 / (math.Sqrt(float64(g)) * tg) }},
	}
	// All three planners share the name "knapsack"; the per-variant PlanKey
	// keeps their plan-cache entries apart inside the single sweep.
	jobs := make([]engine.Job, 0, len(variants)*len(clusters))
	for _, v := range variants {
		h := core.Knapsack{Literal: true, Value: v.value}
		for _, cl := range clusters {
			jobs = append(jobs, engine.Job{
				App:       cfg.App,
				Cluster:   cl,
				Heuristic: h,
				PlanKey:   v.label,
			})
		}
	}
	results := engine.Sweep(engine.DES{}, jobs, cfg.Workers)
	if err := engine.FirstError(results); err != nil {
		return nil, fmt.Errorf("figures: knapsack-value ablation: %w", err)
	}
	series := make([]*stats.Series, len(variants))
	for i, v := range variants {
		series[i] = &stats.Series{Label: v.label}
		for ci, cl := range clusters {
			series[i].Add(float64(cl.Procs), results[i*len(clusters)+ci].Result.Makespan)
		}
	}
	return series, nil
}

// AblationFairness (A2) measures the makespan of the knapsack allocation
// under the three dispatch policies. The paper's least-advanced rule is
// motivated by fairness; this shows what it costs (or not) in makespan.
func AblationFairness(cfg Config) ([]*stats.Series, error) {
	cfg = cfg.normalized()
	policies := []exec.Policy{exec.LeastAdvanced, exec.RoundRobin, exec.MostAdvanced}
	m := engine.Matrix{
		App:        cfg.App,
		Clusters:   referenceSweep(cfg, 20),
		Heuristics: []core.Heuristic{core.Knapsack{}},
	}
	for _, p := range policies {
		m.Variants = append(m.Variants, engine.Variant{Policy: p})
	}
	results := engine.Sweep(engine.DES{}, m.Jobs(), cfg.Workers)
	if err := engine.FirstError(results); err != nil {
		return nil, fmt.Errorf("figures: fairness ablation: %w", err)
	}
	series := make([]*stats.Series, len(policies))
	for vi, p := range policies {
		series[vi] = &stats.Series{Label: p.String()}
		for ci, cl := range m.Clusters {
			series[vi].Add(float64(cl.Procs), results[m.Index(ci, 0, vi)].Result.Makespan)
		}
	}
	return series, nil
}

// AblationModelError (A3) reports the relative error (percent) of the
// analytical model (equations 1–5) against the event-driven executor for the
// basic heuristic across the resource sweep — the same job list evaluated on
// both backends.
func AblationModelError(cfg Config) (*stats.Series, error) {
	cfg = cfg.normalized()
	m := engine.Matrix{
		App:        cfg.App,
		Clusters:   referenceSweep(cfg, 11),
		Heuristics: []core.Heuristic{core.Basic{}},
	}
	jobs := m.Jobs()
	sim := engine.Sweep(engine.DES{}, jobs, cfg.Workers)
	if err := engine.FirstError(sim); err != nil {
		return nil, err
	}
	// Evaluate the very allocations the executor ran on the model backend,
	// so each cell is planned once and the two sweeps stay comparable.
	model := engine.Sweep(engine.Model{}, allocJobs(jobs, sim), cfg.Workers)
	if err := engine.FirstError(model); err != nil {
		return nil, err
	}
	s := &stats.Series{Label: "model-error-%"}
	for ci, cl := range m.Clusters {
		i := m.Index(ci, 0, 0)
		mms, sms := model[i].Result.Makespan, sim[i].Result.Makespan
		s.Add(float64(cl.Procs), 100*math.Abs(mms-sms)/sms)
	}
	return s, nil
}

// allocJobs clones jobs with the allocations a previous sweep planned, so a
// second backend re-evaluates identical plans without re-planning.
func allocJobs(jobs []engine.Job, results []engine.JobResult) []engine.Job {
	out := make([]engine.Job, len(jobs))
	for i, j := range jobs {
		j.Heuristic = nil
		j.PlanKey = ""
		j.Alloc = results[i].Alloc
		out[i] = j
	}
	return out
}

// AblationJitter (A4) recomputes the knapsack-vs-basic gain under increasing
// task-duration jitter. Each series is one jitter amplitude; points carry
// gains for several seeds, exposing how robust the 12%-class gains are to
// run-time noise. The full (amplitude × seed × R) matrix runs as one sweep.
func AblationJitter(cfg Config, amplitudes []float64, seeds int) ([]*stats.Series, error) {
	cfg = cfg.normalized()
	if seeds <= 0 {
		seeds = 3
	}
	m := engine.Matrix{
		App:        cfg.App,
		Clusters:   referenceSweep(cfg, 20),
		Heuristics: []core.Heuristic{core.Basic{}, core.Knapsack{}},
	}
	for _, amp := range amplitudes {
		for seed := 0; seed < seeds; seed++ {
			m.Variants = append(m.Variants, engine.Variant{Jitter: amp, Seed: uint64(seed + 1)})
		}
	}
	results := engine.Sweep(engine.DES{}, m.Jobs(), cfg.Workers)
	if err := engine.FirstError(results); err != nil {
		return nil, fmt.Errorf("figures: jitter ablation: %w", err)
	}
	series := make([]*stats.Series, len(amplitudes))
	for ai, amp := range amplitudes {
		series[ai] = &stats.Series{Label: fmt.Sprintf("jitter-%g%%", amp*100)}
		for ci, cl := range m.Clusters {
			var gains []float64
			for seed := 0; seed < seeds; seed++ {
				vi := ai*seeds + seed
				base := results[m.Index(ci, 0, vi)].Result.Makespan
				kn := results[m.Index(ci, 1, vi)].Result.Makespan
				gains = append(gains, stats.GainPercent(base, kn))
			}
			series[ai].Add(float64(cl.Procs), gains...)
		}
	}
	return series, nil
}

// AblationCPA (A5) pits the paper's heuristics against the related-work
// baselines its §3 dismisses: the adapted CPA mixed-parallelism allotment
// and the naive sequential-DAGs strategy (internal/baseline). It returns one
// makespan series per planner on the reference cluster — the quantitative
// version of "these heuristics are not applicable here".
func AblationCPA(cfg Config) ([]*stats.Series, error) {
	cfg = cfg.normalized()
	planners := []core.Heuristic{
		core.Basic{},
		core.Knapsack{},
		baseline.CPA{},
		baseline.SequentialDAGs{},
	}
	m := engine.Matrix{
		App:        cfg.App,
		Clusters:   referenceSweep(cfg, 20),
		Heuristics: planners,
	}
	results := engine.Sweep(engine.DES{}, m.Jobs(), cfg.Workers)
	if err := engine.FirstError(results); err != nil {
		return nil, fmt.Errorf("figures: cpa ablation: %w", err)
	}
	series := make([]*stats.Series, len(planners))
	for hi, h := range planners {
		series[hi] = &stats.Series{Label: h.Name()}
		for ci, cl := range m.Clusters {
			series[hi].Add(float64(cl.Procs), results[m.Index(ci, hi, 0)].Result.Makespan)
		}
	}
	return series, nil
}
