package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/platform"
)

// benchClusters are the SeD profiles the benchmark serves: the paper's five
// Grid'5000 clusters at 30 processors.
func benchClusters() []*platform.Cluster {
	clusters := platform.FiveClusters()
	for _, cl := range clusters {
		cl.Procs = 30
	}
	return clusters
}

// samePlan fails unless got is what want was, error included.
func samePlan(t *testing.T, what string, got, want core.Allocation, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %+v (err %v), fresh plan %+v (err %v)", what, got, gotErr, want, wantErr)
	}
}

// TestPlansMatchFreshPlan: a cached plan is exactly the plan the heuristic
// would make now, whichever timing filled the cache. A sweep fills one cache
// on memoized timing the way a SeD's PerfVector does, direct calls fill
// another on the raw timing, and every hit of either — through the sweep's
// path and through Plan, the path ExecChunk takes — must equal a fresh
// h.Plan on the raw timing.
func TestPlansMatchFreshPlan(t *testing.T) {
	type planner struct {
		h    core.Heuristic
		name string
	}
	var planners []planner
	for _, h := range core.All() {
		planners = append(planners, planner{h, h.Name()})
	}
	planners = append(planners, planner{core.Knapsack{Literal: true}, "knapsack-literal"})

	for _, pl := range planners {
		for _, cl := range benchClusters() {
			for _, nm := range []int{1, 12, 120, 600, 1800} {
				jobs := make([]Job, 0, 12)
				for ns := 1; ns <= 12; ns++ {
					jobs = append(jobs, Job{App: core.Application{Scenarios: ns, Months: nm}, Cluster: cl, Heuristic: pl.h, PlanKey: pl.name})
				}
				memo := NewPlans()
				if _, err := sweep(context.Background(), Model{}, jobs, 1, memo); err != nil {
					t.Fatal(err)
				}
				raw := NewPlans()
				for _, j := range jobs {
					raw.plan(planKeyOf(j), pl.h, j.App, cl.Timing)
				}
				filled := size(memo)
				if filled != len(jobs) || size(raw) != len(jobs) {
					t.Fatalf("%s on %s NM=%d: caches hold %d and %d plans, want %d", pl.name, cl.Name, nm, filled, size(raw), len(jobs))
				}
				for _, j := range jobs {
					what := fmt.Sprintf("%s on %s NS=%d NM=%d", pl.name, cl.Name, j.App.Scenarios, nm)
					want, wantErr := pl.h.Plan(j.App, cl.Timing, cl.Procs)
					got, err := memo.plan(planKeyOf(j), pl.h, j.App, cl.Timing)
					samePlan(t, what+", memoized fill", got, want, err, wantErr)
					got, err = raw.plan(planKeyOf(j), pl.h, j.App, Memoize(cl.Timing))
					samePlan(t, what+", raw fill", got, want, err, wantErr)
					if pl.name == pl.h.Name() {
						got, err = memo.Plan(cl, j.App, pl.name)
						samePlan(t, what+", by name", got, want, err, wantErr)
					}
				}
				if size(memo) != filled || size(raw) != len(jobs) {
					t.Fatalf("%s on %s NM=%d: a hit inserted a plan", pl.name, cl.Name, nm)
				}
			}
		}
	}
}

// size is how many plans p holds.
func size(p *Plans) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.m)
}

// planKeyOf is the key the sweep files job j under.
func planKeyOf(j Job) planKey {
	return planKey{cluster: j.Cluster, scenarios: j.App.Scenarios, months: j.App.Months, procs: j.Cluster.Procs, heuristic: j.PlanKey}
}

// countingHeuristic is knapsack that counts its plans and takes its time
// over each, so concurrent askers overlap.
type countingHeuristic struct{ calls *atomic.Int32 }

func (countingHeuristic) Name() string { return "counting" }

func (c countingHeuristic) Plan(app core.Application, t platform.Timing, procs int) (core.Allocation, error) {
	c.calls.Add(1)
	time.Sleep(20 * time.Millisecond)
	return core.Knapsack{}.Plan(app, t, procs)
}

// TestPlansSingleFlight: eight goroutines computing one performance vector
// at once plan each of its shapes exactly once, and all get the same plan
// by name afterwards — without resolving the name: "counting" is no
// heuristic core.ByName knows.
func TestPlansSingleFlight(t *testing.T) {
	var calls atomic.Int32
	h := countingHeuristic{&calls}
	cl := platform.ReferenceCluster(30)
	app := core.Application{Scenarios: 6, Months: 24}
	p := NewPlans()
	start := make(chan struct{})
	got := make([]core.Allocation, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			vecs, err := PerformanceVectors(context.Background(), DES{}, app, []*platform.Cluster{cl}, h, Options{}, 1, p)
			if err != nil || len(vecs[0]) != app.Scenarios {
				t.Errorf("vector %v, err %v", vecs, err)
				return
			}
			got[i], err = p.Plan(cl, app, h.Name())
			if err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := calls.Load(); n != int32(app.Scenarios) {
		t.Fatalf("%d goroutines planned %d times for %d shapes, want once per shape", len(got), n, app.Scenarios)
	}
	want, _ := core.Knapsack{}.Plan(app, cl.Timing, cl.Procs)
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("goroutine %d got %+v, want %+v", i, got[i], want)
		}
	}
}

// fixedHeuristic plans the same allocation whatever it is asked.
type fixedHeuristic struct{}

func (fixedHeuristic) Name() string { return "fixed" }

func (fixedHeuristic) Plan(core.Application, platform.Timing, int) (core.Allocation, error) {
	return core.Allocation{Groups: []int{4}, Heuristic: "fixed"}, nil
}

// TestPlansBounded: a cache fed more distinct shapes than maxPlans never
// holds more than maxPlans, and still answers correctly after it started
// over.
func TestPlansBounded(t *testing.T) {
	cl := platform.ReferenceCluster(30)
	p := NewPlans()
	for m := 1; m <= maxPlans+1; m++ {
		app := core.Application{Scenarios: 1, Months: m}
		key := planKey{cluster: cl, scenarios: 1, months: m, procs: cl.Procs, heuristic: "fixed"}
		if _, err := p.plan(key, fixedHeuristic{}, app, cl.Timing); err != nil {
			t.Fatal(err)
		}
		if n := size(p); n > maxPlans {
			t.Fatalf("after %d shapes the cache holds %d plans, cap %d", m, n, maxPlans)
		}
	}
	app := core.Application{Scenarios: 3, Months: 12}
	got, err := p.Plan(cl, app, core.NameKnapsack)
	want, wantErr := core.Knapsack{}.Plan(app, cl.Timing, cl.Procs)
	samePlan(t, "after a reset", got, want, err, wantErr)
}
