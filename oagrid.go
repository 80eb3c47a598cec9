// Package oagrid schedules Ocean-Atmosphere climate-prediction ensembles on
// clusters and grids, reproducing "Ocean-Atmosphere Modelization over the
// Grid" (Caniou, Caron, Charrier, Chis, Desprez, Maisonnave — INRIA RR-6695
// / ICPP 2008).
//
// An experiment is NS independent scenarios, each a chain of NM monthly
// simulations; every month is one moldable main task (the coupled
// ARPEGE+OPA+TRIP run under OASIS, 4–11 processors) followed by one
// single-processor post-processing task. The package plans how a cluster's
// processors are divided into main-task groups (four heuristics, the best
// being a bounded-knapsack formulation), replays the plan on an event-driven
// executor, and distributes scenarios over heterogeneous grids with the
// paper's greedy repartition.
//
// The client API v1 is one concept: a Runner accepts a Campaign and returns
// a Handle streaming typed Events (planned, chunk-done, progress, result).
// Two runners share the interface — Local runs the campaign on the
// in-process engine, Dial submits it to a grid scheduler daemon over the
// versioned wire protocol — and both produce bit-identical Results at
// default options:
//
//	runner, _ := oagrid.Local(oagrid.FiveClusters())
//	h, _ := runner.Run(ctx, oagrid.NewCampaign(10, 1800))
//	for ev := range h.Events() {
//		if p, ok := ev.(oagrid.EventProgress); ok {
//			fmt.Printf("%d/%d scenarios\n", p.Done, p.Total)
//		}
//	}
//	res, err := h.Wait()
//
// Swapping the engine for a live daemon is one line:
//
//	runner, err := oagrid.Dial(ctx, "127.0.0.1:7714")
//
// The pre-campaign entry points (Plan, Simulate, Evaluate, Compare,
// Distribute, Sweep) remain as thin wrappers over the same engine the Local
// runner uses:
//
//	app := oagrid.NewExperiment(10, 1800)           // 10 scenarios × 150 years
//	cluster := oagrid.ReferenceCluster(53)          // 53 processors
//	plan, _ := oagrid.Plan(oagrid.Knapsack, app, cluster)
//	res, _ := oagrid.Simulate(app, cluster, plan, oagrid.Options{})
//	fmt.Println(plan, res.Makespan)
//
// The deeper layers are importable through this facade: the analytical
// makespan model (equations 1–5 of the paper), the toy coupled climate model
// that stands in for the real ARPEGE/OPA/TRIP binaries, and a loopback
// reimplementation of the DIET middleware protocol the paper deploys with.
package oagrid

import (
	"context"
	"fmt"

	"oagrid/internal/core"
	"oagrid/internal/engine"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
)

// Re-exported core types. Aliases keep the facade zero-cost: values flow
// unchanged between the public API and the internal packages.
type (
	// Experiment is the ensemble: NS scenarios of NM months.
	Experiment = core.Application
	// Allocation is a division of processors into main-task groups plus a
	// post-processing pool.
	Allocation = core.Allocation
	// Heuristic plans allocations.
	Heuristic = core.Heuristic
	// Cluster is a homogeneous processor pool with benchmark timings.
	Cluster = platform.Cluster
	// Grid is an ordered set of clusters.
	Grid = platform.Grid
	// Timing yields main/post task durations for a cluster.
	Timing = platform.Timing
	// Options tunes the executor (dispatch policy, jitter, tracing).
	Options = exec.Options
	// Result is an evaluation report (makespan, utilization, trace).
	Result = engine.Result
	// Evaluator is a pluggable makespan backend: the analytical model, the
	// event-driven executor, or real execution (realrun.Backend).
	Evaluator = engine.Evaluator
	// SweepJob is one cell of a batched evaluation matrix.
	SweepJob = engine.Job
	// SweepResult is the outcome of one sweep job, stored at the job index.
	SweepResult = engine.JobResult
)

// The in-process evaluator backends.
var (
	// ModelBackend evaluates with the analytical model (equations 1–5).
	ModelBackend Evaluator = engine.Model{}
	// DESBackend evaluates with the event-driven executor (ground truth).
	DESBackend Evaluator = engine.DES{}
)

// Sweep fans the jobs across a worker pool (workers <= 0 uses GOMAXPROCS)
// and returns results indexed like jobs — bit-identical to a serial run
// whatever the worker count.
func Sweep(ev Evaluator, jobs []SweepJob, workers int) []SweepResult {
	return engine.Sweep(ev, jobs, workers)
}

// SweepContext is Sweep with cooperative cancellation: workers stop
// claiming jobs once ctx is done, unstarted jobs carry ctx's error in their
// slot, and the call returns ctx.Err(). Results that are present are
// exactly what a serial run would have produced for those indices.
func SweepContext(ctx context.Context, ev Evaluator, jobs []SweepJob, workers int) ([]SweepResult, error) {
	return engine.SweepContext(ctx, ev, jobs, workers)
}

// Heuristic names, the values Campaign.Heuristic and WithHeuristic accept.
const (
	BasicName        = core.NameBasic
	RedistributeName = core.NameRedistribute
	AllToMainName    = core.NameAllToMain
	KnapsackName     = core.NameKnapsack
)

// The four heuristics of the paper, in presentation order.
var (
	// Basic gives every main task the same processor count G, chosen by the
	// analytical model (paper §4.1).
	Basic Heuristic = core.Basic{}
	// Redistribute is Improvement 1: idle processors join the groups.
	Redistribute Heuristic = core.Redistribute{}
	// AllToMain is Improvement 2: no dedicated post-processing processors.
	AllToMain Heuristic = core.AllToMain{}
	// Knapsack is Improvement 3 and the paper's best performer.
	Knapsack Heuristic = core.Knapsack{}
)

// Heuristics returns the four planners in presentation order.
func Heuristics() []Heuristic { return core.All() }

// HeuristicByName resolves "basic", "redistribute", "all-to-main" or
// "knapsack".
func HeuristicByName(name string) (Heuristic, error) { return core.ByName(name) }

// NewExperiment builds an ensemble of the given shape.
func NewExperiment(scenarios, months int) Experiment {
	return Experiment{Scenarios: scenarios, Months: months}
}

// DefaultExperiment is the paper's evaluation workload: 10 scenarios × 1800
// months (150 years each).
func DefaultExperiment() Experiment { return core.Default() }

// ReferenceCluster returns the calibration cluster (Figure-1 timings:
// pcr = 1260 s on 11 processors) with the given processor count.
func ReferenceCluster(procs int) *Cluster { return platform.ReferenceCluster(procs) }

// FiveClusters returns the five Grid'5000-style speed profiles used in the
// paper's evaluation (fastest 1177 s, slowest 1622 s on 11 processors).
func FiveClusters() []*Cluster { return platform.FiveClusters() }

// NewGrid assembles and validates a grid.
func NewGrid(clusters ...*Cluster) (*Grid, error) { return platform.NewGrid(clusters...) }

// Plan divides the cluster's processors with the given heuristic.
func Plan(h Heuristic, app Experiment, cluster *Cluster) (Allocation, error) {
	if err := cluster.Validate(); err != nil {
		return Allocation{}, err
	}
	return h.Plan(app, cluster.Timing, cluster.Procs)
}

// EstimateMakespan evaluates the paper's analytical model (equations 1–5)
// for a uniform group size on the cluster.
func EstimateMakespan(app Experiment, cluster *Cluster, group int) (float64, error) {
	if err := cluster.Validate(); err != nil {
		return 0, err
	}
	return core.UniformEstimate(app, cluster.Timing, cluster.Procs, group)
}

// Simulate replays an allocation on the event-driven executor and returns
// the measured makespan (and the trace when Options.RecordTrace is set). It
// is a thin wrapper over the same engine path the Local runner drives;
// EvaluateContext is the cancellable form.
func Simulate(app Experiment, cluster *Cluster, alloc Allocation, opt Options) (Result, error) {
	return Evaluate(DESBackend, app, cluster, alloc, opt)
}

// Evaluate runs an allocation through any backend — the engine-level entry
// the three evaluators share.
func Evaluate(ev Evaluator, app Experiment, cluster *Cluster, alloc Allocation, opt Options) (Result, error) {
	return EvaluateContext(context.Background(), ev, app, cluster, alloc, opt)
}

// EvaluateContext is Evaluate under a context: a done ctx short-circuits
// before the backend runs. Evaluations are virtual-time and fast, so
// cancellation is cooperative at the evaluation boundary — a result that is
// returned is always whole.
func EvaluateContext(ctx context.Context, ev Evaluator, app Experiment, cluster *Cluster, alloc Allocation, opt Options) (Result, error) {
	if err := cluster.Validate(); err != nil {
		return Result{}, err
	}
	return engine.EvaluateContext(ctx, ev, app, cluster, alloc, engine.Options{Exec: opt})
}

// GridPlan is the outcome of distributing an experiment over a grid.
type GridPlan struct {
	// Clusters lists cluster names in grid order.
	Clusters []string
	// Counts[i] is the number of scenarios cluster i received.
	Counts []int
	// Vectors[i] is cluster i's performance vector (makespan of 1..NS
	// scenarios).
	Vectors [][]float64
	// Allocations[i] is the processor grouping cluster i uses for its share
	// (zero-valued when the cluster received no scenario).
	Allocations []Allocation
	// Makespan is the global (max over clusters) makespan.
	Makespan float64
}

// Distribute runs the paper's heterogeneous-grid pipeline: each cluster
// computes its performance vector with the heuristic, the greedy Algorithm 1
// assigns scenarios, and each loaded cluster's share is simulated.
func Distribute(app Experiment, grid *Grid, h Heuristic, opt Options) (*GridPlan, error) {
	if grid == nil || len(grid.Clusters) == 0 {
		return nil, fmt.Errorf("%w: empty grid", ErrInvalidConfig)
	}
	plan := &GridPlan{
		Clusters:    grid.Names(),
		Allocations: make([]Allocation, len(grid.Clusters)),
	}
	// One batched sweep computes every cluster's performance vector over the
	// engine worker pool.
	vecs, err := engine.PerformanceVectors(context.Background(), DESBackend, app, grid.Clusters, h, engine.Options{Exec: opt}, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("oagrid: %w", err)
	}
	plan.Vectors = vecs
	rep, err := core.Repartition(plan.Vectors)
	if err != nil {
		return nil, err
	}
	plan.Counts = rep.Counts
	plan.Makespan = rep.Makespan
	for i, cl := range grid.Clusters {
		if rep.Counts[i] == 0 {
			continue
		}
		share := Experiment{Scenarios: rep.Counts[i], Months: app.Months}
		alloc, err := h.Plan(share, cl.Timing, cl.Procs)
		if err != nil {
			return nil, fmt.Errorf("oagrid: cluster %s: %w", cl.Name, err)
		}
		plan.Allocations[i] = alloc
	}
	return plan, nil
}

// Compare plans and simulates every heuristic on one cluster and returns the
// makespans keyed by heuristic name — the experiment behind the paper's
// Figure 8 at a single resource count. The four evaluations run as one
// batched sweep.
func Compare(app Experiment, cluster *Cluster, opt Options) (map[string]float64, error) {
	hs := Heuristics()
	jobs := make([]SweepJob, len(hs))
	for i, h := range hs {
		jobs[i] = SweepJob{App: app, Cluster: cluster, Heuristic: h, Opts: engine.Options{Exec: opt}}
	}
	results := Sweep(DESBackend, jobs, 0)
	out := make(map[string]float64, len(hs))
	for i, h := range hs {
		if results[i].Err != nil {
			return nil, fmt.Errorf("oagrid: %s: %w", h.Name(), results[i].Err)
		}
		out[h.Name()] = results[i].Result.Makespan
	}
	return out, nil
}
