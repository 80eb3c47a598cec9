// Package engine unifies the repository's three makespan evaluators behind
// one pluggable interface and drives batches of evaluations through a
// deterministic parallel sweep runner.
//
// The paper's methodology is a three-stage pipeline: plan with an analytical
// model (internal/core, equations 1–5), validate the plan on an event-driven
// executor (internal/exec, the ground truth of every figure), and — as the
// paper's §7 "ongoing work" — verify the simulation by real execution
// (internal/realrun, the toy coupled climate model). Each stage answers the
// same question, "how long does this allocation take?", so the engine gives
// them one signature:
//
//	Evaluate(app, cluster, alloc, opts) (Result, error)
//
// Backends:
//
//   - Model — the analytical estimate; exact (paper equations) for uniform
//     groupings, throughput-based otherwise. Microseconds per call.
//   - DES — the discrete-event executor; bit-for-bit deterministic given
//     Options, including under task-duration jitter. About a millisecond
//     per call at NS=10, NM=420 on 30 processors (exec's BenchmarkRun),
//     with a fixed handful of allocations per run: the event loop
//     allocates nothing per event.
//   - realrun.Backend — real execution of the toy coupled model (lives in
//     internal/realrun, which imports this package).
//
// The sweep runner (Sweep, Matrix, PerformanceVectors) fans a job matrix
// across a worker pool while keeping results bit-identical to a serial run:
// jobs carry their own deterministic seeds and results are collected by job
// index, never by arrival order.
//
//oalint:deterministic
package engine

import (
	"context"
	"errors"

	"oagrid/internal/core"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
	"oagrid/internal/trace"
)

// Options tunes an evaluation. The zero value reproduces the paper's setup:
// least-advanced dispatch, no jitter, no tracing.
type Options struct {
	// Exec configures the event-driven executor (dispatch policy, jitter
	// amplitude and seed, failure injection, tracing). The Model backend
	// ignores it; realrun.Backend honours the parts that exist physically.
	Exec exec.Options
}

// Result is the common run report of every backend. All durations are in
// seconds of the evaluated schedule (virtual time for Model and DES, wall
// clock for realrun). Fields a backend cannot measure are zero.
type Result struct {
	// Backend names the evaluator that produced the result.
	Backend string
	// Makespan is the completion time of the last task.
	Makespan float64
	// MainsDone is the completion time of the last main task.
	MainsDone float64
	// BusyProcSeconds accumulates processors × seconds of actual work.
	BusyProcSeconds float64
	// Utilization is BusyProcSeconds / (procs × Makespan).
	Utilization float64
	// RestartedMains counts main tasks lost to injected failures and re-run.
	RestartedMains int
	// Trace is non-nil when Options.Exec.RecordTrace was set and the backend
	// records spans.
	Trace *trace.Trace
}

// Evaluator is the pluggable backend interface: it measures (or models) the
// makespan of one allocation on one cluster.
type Evaluator interface {
	// Name identifies the backend in artifacts and benchmark reports.
	Name() string
	// Evaluate runs app under alloc on the cluster. Implementations must be
	// safe for concurrent use and deterministic for fixed inputs — Sweep
	// relies on both.
	Evaluate(app core.Application, cluster *platform.Cluster, alloc core.Allocation, opts Options) (Result, error)
}

// Model is the analytical backend: the paper's equations 1–5 for uniform
// allocations with a dedicated post pool, the steady-state throughput bound
// otherwise (the quantity the knapsack heuristic maximizes).
type Model struct{}

// Name implements Evaluator.
func (Model) Name() string { return "model" }

// Evaluate implements Evaluator.
func (Model) Evaluate(app core.Application, cluster *platform.Cluster, alloc core.Allocation, _ Options) (Result, error) {
	if cluster == nil {
		return Result{}, errors.New("engine: nil cluster")
	}
	var ms float64
	var err error
	if uniform(alloc, cluster.Procs) {
		ms, err = core.UniformEstimate(app, cluster.Timing, cluster.Procs, alloc.Groups[0])
	} else {
		// ThroughputEstimate also rejects an empty allocation.
		ms, err = core.ThroughputEstimate(app, cluster.Timing, alloc)
	}
	if err != nil {
		return Result{}, err
	}
	// The analytical model folds the post drain into the makespan and does
	// not separate the last main; report the makespan for both.
	return Result{Backend: "model", Makespan: ms, MainsDone: ms}, nil
}

// uniform reports whether alloc is the setting of the paper's equations:
// equal groups, with every processor they leave in the post pool.
func uniform(alloc core.Allocation, procs int) bool {
	if len(alloc.Groups) == 0 {
		return false
	}
	for _, g := range alloc.Groups[1:] {
		if g != alloc.Groups[0] {
			return false
		}
	}
	return alloc.PostProcs == procs-len(alloc.Groups)*alloc.Groups[0]
}

// DES is the event-driven backend, the ground truth the model is validated
// against and the evaluator behind every figure of the paper.
type DES struct{}

// Name implements Evaluator.
func (DES) Name() string { return "des" }

// Evaluate implements Evaluator.
func (DES) Evaluate(app core.Application, cluster *platform.Cluster, alloc core.Allocation, opts Options) (Result, error) {
	if cluster == nil {
		return Result{}, errors.New("engine: nil cluster")
	}
	res, err := exec.Run(app, cluster.Timing, cluster.Procs, alloc, opts.Exec)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Backend:         "des",
		Makespan:        res.Makespan,
		MainsDone:       res.MainsDone,
		BusyProcSeconds: res.BusyProcSeconds,
		Utilization:     res.Utilization,
		RestartedMains:  res.RestartedMains,
		Trace:           res.Trace,
	}, nil
}

// EvaluateContext runs one evaluation under a context. A single evaluation
// is virtual-time and fast (micro- to milliseconds), so cancellation is
// cooperative at the job boundary: a done ctx short-circuits before the
// backend runs, and the result of a run that did start is returned whole —
// never a torn, partially-evaluated Result. This is the unit SweepContext
// cancels between.
func EvaluateContext(ctx context.Context, ev Evaluator, app core.Application, cluster *platform.Cluster, alloc core.Allocation, opts Options) (Result, error) {
	if ev == nil {
		ev = Default()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return ev.Evaluate(app, cluster, alloc, opts)
}

// Default returns the backend figures and the facade use unless told
// otherwise: the event-driven executor.
func Default() Evaluator { return DES{} }
