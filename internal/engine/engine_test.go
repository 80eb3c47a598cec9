package engine_test

import (
	"context"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"oagrid/internal/core"
	"oagrid/internal/engine"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
)

func testApp() core.Application { return core.Application{Scenarios: 6, Months: 12} }

// backends are the in-process evaluators, in cost order.
var backends = []engine.Evaluator{engine.Model{}, engine.DES{}}

// TestModelBackendMatchesCoreEstimate pins the analytical backend's
// dispatch: the paper's closed form for equal groups with every other
// processor in the post pool, the throughput bound for anything else, and an
// error, not a panic, for an empty allocation.
func TestModelBackendMatchesCoreEstimate(t *testing.T) {
	app := testApp()
	cl := platform.ReferenceCluster(40)
	closed := func(g int) float64 {
		ms, err := core.UniformEstimate(app, cl.Timing, cl.Procs, g)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	bound := func(al core.Allocation) float64 {
		ms, err := core.ThroughputEstimate(app, cl.Timing, al)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	mixed := core.Allocation{Groups: []int{8, 7, 7}, PostProcs: 18}
	shortPost := core.Allocation{Groups: []int{7, 7}, PostProcs: 1}
	for _, tc := range []struct {
		name  string
		alloc core.Allocation
		want  float64 // 0: an error
	}{
		{"uniform", core.Allocation{Groups: []int{7, 7, 7}, PostProcs: 19}, closed(7)},
		{"uniform-one-group", core.Allocation{Groups: []int{11}, PostProcs: 29}, closed(11)},
		{"mixed-groups", mixed, bound(mixed)},
		{"post-pool-not-the-rest", shortPost, bound(shortPost)},
		{"empty", core.Allocation{}, 0},
	} {
		res, err := engine.Model{}.Evaluate(app, cl, tc.alloc, engine.Options{})
		switch {
		case tc.want == 0:
			if err == nil {
				t.Errorf("%s: evaluated to %g, want an error", tc.name, res.Makespan)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case res.Makespan != tc.want || res.Backend != "model":
			t.Errorf("%s: model backend %g (%q), core estimate %g", tc.name, res.Makespan, res.Backend, tc.want)
		}
	}
}

// TestDESBackendMatchesExecRun pins the event-driven backend to exec.Run.
func TestDESBackendMatchesExecRun(t *testing.T) {
	app := testApp()
	cl := platform.ReferenceCluster(40)
	opts := engine.Options{Exec: exec.Options{Jitter: 0.1, Seed: 7}}
	for _, h := range core.All() {
		alloc, err := h.Plan(app, cl.Timing, cl.Procs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.DES{}.Evaluate(app, cl, alloc, opts)
		if err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		want, err := exec.Run(app, cl.Timing, cl.Procs, alloc, opts.Exec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != want.Makespan || res.Utilization != want.Utilization ||
			res.MainsDone != want.MainsDone || res.BusyProcSeconds != want.BusyProcSeconds {
			t.Errorf("%s: DES backend %+v, exec.Run %+v", h.Name(), res, want)
		}
	}
}

// TestMemoizeMatchesOriginal checks the memoized timing is indistinguishable
// from its source over and outside the moldable range.
func TestMemoizeMatchesOriginal(t *testing.T) {
	for _, cl := range platform.FiveClusters() {
		orig := cl.Timing
		memo := engine.Memoize(orig)
		if memo == orig {
			t.Fatalf("%s: timing not memoized", cl.Name)
		}
		if engine.Memoize(memo) != memo {
			t.Fatalf("%s: double memoization not idempotent", cl.Name)
		}
		lo, hi := orig.Range()
		if mlo, mhi := memo.Range(); mlo != lo || mhi != hi {
			t.Fatalf("%s: range [%d,%d] != [%d,%d]", cl.Name, mlo, mhi, lo, hi)
		}
		for g := lo; g <= hi; g++ {
			want, err := orig.MainSeconds(g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := memo.MainSeconds(g)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s g=%d: memo %g, original %g", cl.Name, g, got, want)
			}
		}
		if memo.PostSeconds() != orig.PostSeconds() {
			t.Fatalf("%s: post seconds differ", cl.Name)
		}
		if _, err := memo.MainSeconds(lo - 1); err == nil {
			t.Fatalf("%s: no error below the range", cl.Name)
		}
		if _, err := memo.MainSeconds(hi + 1); err == nil {
			t.Fatalf("%s: no error above the range", cl.Name)
		}
	}
}

// countingHeuristic counts Plan invocations to expose the plan cache.
type countingHeuristic struct {
	inner core.Heuristic
	calls *atomic.Int64
}

func (c countingHeuristic) Name() string { return c.inner.Name() }
func (c countingHeuristic) Plan(app core.Application, tm platform.Timing, procs int) (core.Allocation, error) {
	c.calls.Add(1)
	return c.inner.Plan(app, tm, procs)
}

// TestSweepPlanCache verifies that jobs sharing (cluster, app, heuristic)
// across variants plan exactly once.
func TestSweepPlanCache(t *testing.T) {
	app := testApp()
	var calls atomic.Int64
	h := countingHeuristic{inner: core.Knapsack{}, calls: &calls}
	clusters := []*platform.Cluster{
		platform.ReferenceCluster(30),
		platform.ReferenceCluster(45),
		platform.ReferenceCluster(60),
	}
	var jobs []engine.Job
	for _, cl := range clusters {
		for seed := uint64(0); seed < 4; seed++ {
			jobs = append(jobs, engine.Job{
				App:       app,
				Cluster:   cl,
				Heuristic: h,
				Opts:      engine.Options{Exec: exec.Options{Jitter: 0.05, Seed: seed}},
			})
		}
	}
	results := engine.Sweep(engine.DES{}, jobs, 4)
	if err := engine.FirstError(results); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(clusters)) {
		t.Errorf("planned %d times for %d distinct clusters (%d jobs)", got, len(clusters), len(jobs))
	}
	// Same cluster, same heuristic: the allocation must be shared verbatim.
	for i := 1; i < 4; i++ {
		if len(results[i].Alloc.Groups) != len(results[0].Alloc.Groups) {
			t.Errorf("job %d got a different plan than job 0", i)
		}
	}
	// Different seeds over the same plan must still change the measurement.
	if results[0].Result.Makespan == results[1].Result.Makespan {
		t.Errorf("distinct jitter seeds produced identical makespans")
	}
}

// TestSweepErrorIsolation checks a failing job does not poison the batch.
func TestSweepErrorIsolation(t *testing.T) {
	app := testApp()
	jobs := []engine.Job{
		{App: app, Cluster: platform.ReferenceCluster(40), Heuristic: core.Knapsack{}},
		{App: app, Cluster: platform.ReferenceCluster(2), Heuristic: core.Knapsack{}}, // too small for any group
		{App: app}, // no cluster
		{App: app, Cluster: platform.ReferenceCluster(40)}, // no heuristic, no alloc
	}
	results := engine.Sweep(engine.DES{}, jobs, 2)
	if results[0].Err != nil {
		t.Fatalf("healthy job failed: %v", results[0].Err)
	}
	if results[0].Result.Makespan <= 0 {
		t.Fatal("healthy job produced no makespan")
	}
	for i := 1; i < len(jobs); i++ {
		if results[i].Err == nil {
			t.Errorf("job %d should have failed", i)
		}
	}
	if err := engine.FirstError(results); err == nil {
		t.Error("FirstError missed the failures")
	}
}

// TestSweepPrecomputedAlloc evaluates an explicit allocation without a
// heuristic.
func TestSweepPrecomputedAlloc(t *testing.T) {
	app := testApp()
	cl := platform.ReferenceCluster(40)
	alloc, err := (core.Basic{}).Plan(app, cl.Timing, cl.Procs)
	if err != nil {
		t.Fatal(err)
	}
	results := engine.Sweep(engine.DES{}, []engine.Job{{App: app, Cluster: cl, Alloc: alloc}}, 1)
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	want, err := exec.Run(app, cl.Timing, cl.Procs, alloc, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Result.Makespan != want.Makespan {
		t.Errorf("sweep %g, direct run %g", results[0].Result.Makespan, want.Makespan)
	}
}

// TestPerformanceVectorsMatchCore pins the batched vectors to a serial
// plan-then-evaluate loop over k, for both backends.
func TestPerformanceVectorsMatchCore(t *testing.T) {
	app := testApp()
	clusters := []*platform.Cluster{}
	for _, cl := range platform.FiveClusters()[:3] {
		clusters = append(clusters, cl.WithProcs(33))
	}
	for _, ev := range backends {
		vecs, err := engine.PerformanceVectors(context.Background(), ev, app, clusters, core.Knapsack{}, engine.Options{}, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(vecs) != len(clusters) {
			t.Fatalf("%s: %d vectors for %d clusters", ev.Name(), len(vecs), len(clusters))
		}
		for ci, cl := range clusters {
			for k := 1; k <= app.Scenarios; k++ {
				sub := core.Application{Scenarios: k, Months: app.Months}
				alloc, err := (core.Knapsack{}).Plan(sub, cl.Timing, cl.Procs)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ev.Evaluate(sub, cl, alloc, engine.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if got := vecs[ci][k-1]; math.Float64bits(got) != math.Float64bits(want.Makespan) {
					t.Errorf("%s %s k=%d: batched %g, serial %g", ev.Name(), cl.Name, k, got, want.Makespan)
				}
			}
			// The paper's repartition assumes non-decreasing vectors.
			for k := 1; k < len(vecs[ci]); k++ {
				if vecs[ci][k] < vecs[ci][k-1] {
					t.Errorf("%s %s: vector decreases at k=%d", ev.Name(), cl.Name, k+1)
				}
			}
		}
	}
}

// TestPerformanceVectorMonotone: the paper's repartition assumes
// non-decreasing vectors, whatever the heuristic and backend.
func TestPerformanceVectorMonotone(t *testing.T) {
	app := core.Application{Scenarios: 8, Months: 24}
	cl := platform.ReferenceCluster(40)
	for _, ev := range backends {
		for _, h := range core.All() {
			vec, err := engine.PerformanceVector(ev, app, cl, h, engine.Options{}, 0)
			if err != nil {
				t.Fatalf("%s %s: %v", ev.Name(), h.Name(), err)
			}
			if len(vec) != app.Scenarios {
				t.Fatalf("%s %s: vector length %d, want %d", ev.Name(), h.Name(), len(vec), app.Scenarios)
			}
			for k := 1; k < len(vec); k++ {
				if vec[k] < vec[k-1]-1e-6 {
					t.Errorf("%s %s: makespan decreases from %g (k=%d) to %g (k=%d)",
						ev.Name(), h.Name(), vec[k-1], k, vec[k], k+1)
				}
			}
		}
	}
}

// TestMatrixInheritsBaseOptions guards against the default variant wiping
// the matrix-wide executor settings: without explicit variants, jobs must
// carry Base.Exec verbatim.
func TestMatrixInheritsBaseOptions(t *testing.T) {
	base := engine.Options{Exec: exec.Options{Policy: exec.RoundRobin, Jitter: 0.07, Seed: 42, NoIdleSteal: true}}
	m := engine.Matrix{
		App:        testApp(),
		Clusters:   []*platform.Cluster{platform.ReferenceCluster(30)},
		Heuristics: []core.Heuristic{core.Basic{}},
		Base:       base,
	}
	jobs := m.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("matrix expanded to %d jobs, want 1", len(jobs))
	}
	if !reflect.DeepEqual(jobs[0].Opts, base) {
		t.Errorf("job options %+v, want base %+v", jobs[0].Opts, base)
	}
	// With explicit variants, the variant's fields override but the rest of
	// the base (here NoIdleSteal) survives.
	m.Variants = []engine.Variant{{Policy: exec.MostAdvanced, Seed: 9}}
	jobs = m.Jobs()
	if got := jobs[0].Opts.Exec; got.Policy != exec.MostAdvanced || got.Seed != 9 || got.Jitter != 0 || !got.NoIdleSteal {
		t.Errorf("variant job options %+v", got)
	}
}
