package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"oagrid/internal/core"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
)

// Job is one cell of a sweep matrix: plan app on the cluster with the
// heuristic (or take Alloc as given) and evaluate the result.
type Job struct {
	// App is the workload.
	App core.Application
	// Cluster hosts the run. Jobs that share a *Cluster share the memoized
	// timing and the plan cache, so matrices should build one cluster value
	// per (profile, resource count) and reuse it across heuristics and
	// variants — Matrix and PerformanceVectors do.
	Cluster *platform.Cluster
	// Heuristic plans the allocation. Leave nil to evaluate Alloc as given.
	Heuristic core.Heuristic
	// Alloc is the pre-computed allocation evaluated when Heuristic is nil.
	Alloc core.Allocation
	// Opts tunes the evaluation; the jitter seed travels with the job, which
	// is what keeps parallel sweeps bit-identical to serial ones.
	Opts Options
	// PlanKey disambiguates planner variants whose Name() collides (the
	// knapsack value-function ablation builds three planners all named
	// "knapsack"). Empty uses Heuristic.Name().
	PlanKey string
}

// JobResult is the outcome of one job, stored at the job's index.
type JobResult struct {
	// Alloc is the evaluated allocation (planned or passed through).
	Alloc core.Allocation
	// Result is the backend's report; zero when Err is set.
	Result Result
	// Err is the job's failure. One failing job does not stop the sweep.
	Err error
}

// FirstError returns the error of the lowest-indexed failed job, or nil.
func FirstError(results []JobResult) error {
	for i := range results {
		if results[i].Err != nil {
			return fmt.Errorf("engine: job %d: %w", i, results[i].Err)
		}
	}
	return nil
}

// Sweep evaluates every job on ev with a pool of workers goroutines
// (workers <= 0 uses GOMAXPROCS). The result slice is indexed like jobs and
// is bit-identical whatever the worker count: jobs are self-contained
// (deterministic seeds in Opts), workers claim indices from an atomic
// counter, and each result is written to its own slot — arrival order never
// influences the output. Distinct clusters are validated and their timings
// memoized once, serially, before the pool starts.
func Sweep(ev Evaluator, jobs []Job, workers int) []JobResult {
	results, _ := SweepContext(context.Background(), ev, jobs, workers)
	return results
}

// SweepContext is Sweep with cooperative cancellation: workers stop claiming
// jobs once ctx is done, jobs never started carry ctx's error in their slot,
// and the sweep returns ctx.Err(). Cancellation is checked between jobs — a
// job already running finishes (evaluations are virtual-time and fast), so
// results that are present are exactly the results a serial run would have
// produced for those indices.
func SweepContext(ctx context.Context, ev Evaluator, jobs []Job, workers int) ([]JobResult, error) {
	results := make([]JobResult, len(jobs))
	if len(jobs) == 0 {
		return results, ctx.Err()
	}
	if ev == nil {
		ev = Default()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// Per-cluster preparation: validate once, memoize the timing once. The
	// prepared copy keeps the original's name and size so backends and error
	// messages see the cluster the caller described.
	type prepared struct {
		cluster *platform.Cluster
		err     error
	}
	prep := make(map[*platform.Cluster]prepared, 8)
	for i := range jobs {
		cl := jobs[i].Cluster
		if cl == nil {
			continue
		}
		if _, ok := prep[cl]; ok {
			continue
		}
		if err := cl.Validate(); err != nil {
			prep[cl] = prepared{err: err}
			continue
		}
		cp := *cl
		cp.Timing = Memoize(cp.Timing)
		prep[cl] = prepared{cluster: &cp}
	}

	cache := newPlanCache()
	run := func(j Job) JobResult {
		if j.Cluster == nil {
			return JobResult{Err: errors.New("engine: job without a cluster")}
		}
		p := prep[j.Cluster]
		if p.err != nil {
			return JobResult{Err: p.err}
		}
		alloc := j.Alloc
		if j.Heuristic != nil {
			name := j.PlanKey
			if name == "" {
				name = j.Heuristic.Name()
			}
			key := planKey{
				cluster:   j.Cluster,
				scenarios: j.App.Scenarios,
				months:    j.App.Months,
				procs:     p.cluster.Procs,
				heuristic: name,
			}
			var err error
			alloc, err = cache.plan(key, j.Heuristic, j.App, p.cluster.Timing)
			if err != nil {
				return JobResult{Err: err}
			}
		} else if len(alloc.Groups) == 0 {
			return JobResult{Err: errors.New("engine: job without a heuristic or an allocation")}
		}
		res, err := ev.Evaluate(j.App, p.cluster, alloc, j.Opts)
		if err != nil {
			return JobResult{Err: err}
		}
		return JobResult{Alloc: alloc, Result: res}
	}

	if workers == 1 {
		for i := range jobs {
			if err := ctx.Err(); err != nil {
				results[i] = JobResult{Err: err}
				continue
			}
			results[i] = run(jobs[i])
		}
		return results, ctx.Err()
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(jobs) {
					return
				}
				if err := ctx.Err(); err != nil {
					results[i] = JobResult{Err: err}
					continue
				}
				results[i] = run(jobs[i])
			}
		}()
	}
	wg.Wait()
	return results, ctx.Err()
}

// Variant is one executor configuration of a sweep matrix.
type Variant struct {
	// Policy is the dispatch rule.
	Policy exec.Policy
	// Jitter and Seed configure the deterministic duration noise.
	Jitter float64
	Seed   uint64
}

// Matrix enumerates the cross product (cluster × heuristic × variant) the
// evaluation sweeps iterate: resource counts and speed profiles enter as
// clusters, dispatch policies and jitter streams as variants.
type Matrix struct {
	// App is the workload shared by every cell.
	App core.Application
	// Clusters are the platforms, typically profile.WithProcs(r) copies —
	// build each copy once so plan-cache sharing applies.
	Clusters []*platform.Cluster
	// Heuristics are the planners. Empty defaults to core.All().
	Heuristics []core.Heuristic
	// Variants are the executor configurations. Empty defaults to the
	// paper's single zero variant.
	Variants []Variant
	// Base is merged into every job's options before the variant is applied
	// (tracing, failure injection, ...).
	Base Options
}

func (m Matrix) heuristics() []core.Heuristic {
	if len(m.Heuristics) == 0 {
		return core.All()
	}
	return m.Heuristics
}

func (m Matrix) variants() []Variant {
	if len(m.Variants) == 0 {
		// The default variant inherits the base options verbatim, so a
		// matrix without explicit variants honours Base.Exec untouched.
		return []Variant{{
			Policy: m.Base.Exec.Policy,
			Jitter: m.Base.Exec.Jitter,
			Seed:   m.Base.Exec.Seed,
		}}
	}
	return m.Variants
}

// Size returns the number of jobs the matrix expands to.
func (m Matrix) Size() int {
	return len(m.Clusters) * len(m.heuristics()) * len(m.variants())
}

// Index returns the job index of (cluster ci, heuristic hi, variant vi);
// Jobs emits cells in this order.
func (m Matrix) Index(ci, hi, vi int) int {
	return (ci*len(m.heuristics())+hi)*len(m.variants()) + vi
}

// Jobs expands the matrix into a job slice ordered by Index.
func (m Matrix) Jobs() []Job {
	hs, vs := m.heuristics(), m.variants()
	jobs := make([]Job, 0, m.Size())
	for _, cl := range m.Clusters {
		for _, h := range hs {
			for _, v := range vs {
				opts := m.Base
				opts.Exec.Policy = v.Policy
				opts.Exec.Jitter = v.Jitter
				opts.Exec.Seed = v.Seed
				jobs = append(jobs, Job{
					App:       m.App,
					Cluster:   cl,
					Heuristic: h,
					Opts:      opts,
				})
			}
		}
	}
	return jobs
}

// PerformanceVector computes one cluster's vector through the batched sweep
// runner — the form a SeD answers a perf request with. Entry k-1 is the
// makespan of k scenarios planned by h; values are bit-identical to a serial
// plan-then-evaluate loop over k.
func PerformanceVector(ev Evaluator, app core.Application, cluster *platform.Cluster, h core.Heuristic, opts Options, workers int) ([]float64, error) {
	vecs, err := PerformanceVectors(context.Background(), ev, app, []*platform.Cluster{cluster}, h, opts, workers)
	if err != nil {
		return nil, err
	}
	return vecs[0], nil
}

// PerformanceVectors computes, for every cluster, the makespan of running
// 1..NS scenarios planned by h — the per-cluster vectors of the paper's
// Figure-9 protocol — in one batched sweep. Entry [c][k-1] is cluster c's
// makespan for k scenarios. The sweep stops claiming jobs once ctx is done
// and the call returns ctx's error.
func PerformanceVectors(ctx context.Context, ev Evaluator, app core.Application, clusters []*platform.Cluster, h core.Heuristic, opts Options, workers int) ([][]float64, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if len(clusters) == 0 {
		return nil, errors.New("engine: no cluster")
	}
	jobs := make([]Job, 0, len(clusters)*app.Scenarios)
	for _, cl := range clusters {
		for k := 1; k <= app.Scenarios; k++ {
			jobs = append(jobs, Job{
				App:       core.Application{Scenarios: k, Months: app.Months},
				Cluster:   cl,
				Heuristic: h,
				Opts:      opts,
			})
		}
	}
	results, err := SweepContext(ctx, ev, jobs, workers)
	if err != nil {
		return nil, err
	}
	vecs := make([][]float64, len(clusters))
	for ci, cl := range clusters {
		vec := make([]float64, app.Scenarios)
		for k := 1; k <= app.Scenarios; k++ {
			r := results[ci*app.Scenarios+k-1]
			if r.Err != nil {
				return nil, fmt.Errorf("engine: cluster %s at k=%d: %w", cl.Name, k, r.Err)
			}
			vec[k-1] = r.Result.Makespan
		}
		vecs[ci] = vec
	}
	return vecs, nil
}
