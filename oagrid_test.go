package oagrid

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	app := NewExperiment(10, 36)
	cluster := ReferenceCluster(53)
	plan, err := Plan(Knapsack, app, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if plan.UsedProcs() > 53 {
		t.Fatalf("plan uses %d processors on a 53-processor cluster", plan.UsedProcs())
	}
	res, err := Simulate(app, cluster, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("non-positive makespan")
	}
}

func TestEstimateMatchesPaperWorkedExample(t *testing.T) {
	// Worked example of §4.2: R = 53, NS = 10 → basic picks G = 7.
	app := DefaultExperiment()
	cluster := ReferenceCluster(53)
	plan, err := Plan(Basic, app, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Groups[0] != 7 || len(plan.Groups) != 7 {
		t.Fatalf("basic plan %v, want seven groups of 7", plan.Groups)
	}
	best, err := EstimateMakespan(app, cluster, 7)
	if err != nil {
		t.Fatal(err)
	}
	for g := 4; g <= 11; g++ {
		ms, err := EstimateMakespan(app, cluster, g)
		if err != nil {
			t.Fatal(err)
		}
		if ms < best-1e-9 {
			t.Fatalf("G=%d has estimate %g below the chosen G=7's %g", g, ms, best)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	app := NewExperiment(10, 24)
	cluster := ReferenceCluster(53)
	ms, err := Compare(app, cluster, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 {
		t.Fatalf("Compare returned %d entries", len(ms))
	}
	// The knapsack heuristic must not lose to basic (the paper's headline).
	if ms["knapsack"] > ms["basic"]*(1+1e-9) {
		t.Fatalf("knapsack %g worse than basic %g", ms["knapsack"], ms["basic"])
	}
}

func TestDistribute(t *testing.T) {
	clusters := FiveClusters()[:3]
	for _, c := range clusters {
		c.Procs = 40
	}
	grid, err := NewGrid(clusters...)
	if err != nil {
		t.Fatal(err)
	}
	app := NewExperiment(8, 24)
	plan, err := Distribute(app, grid, Knapsack, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, c := range plan.Counts {
		total += c
		if c > 0 && len(plan.Allocations[i].Groups) == 0 {
			t.Fatalf("cluster %s has scenarios but no allocation", plan.Clusters[i])
		}
	}
	if total != app.Scenarios {
		t.Fatalf("distributed %d scenarios, want %d", total, app.Scenarios)
	}
	if plan.Makespan <= 0 || math.IsInf(plan.Makespan, 0) {
		t.Fatalf("bad makespan %g", plan.Makespan)
	}
	// The fastest cluster (first profile) must receive at least as many
	// scenarios as the slowest in the prefix.
	if plan.Counts[0] < plan.Counts[2] {
		t.Fatalf("fastest cluster got %d, slowest %d", plan.Counts[0], plan.Counts[2])
	}
	if _, err := Distribute(app, nil, Knapsack, Options{}); err == nil {
		t.Fatal("nil grid accepted")
	}
}

// TestDistributeMatchesLocal: Distribute runs the Figure-9 pipeline on the
// engine, a Local campaign runs it through the scheduler's lifecycle (vector
// cache, repartition, chunk execution). Per cluster name they must agree on
// the share, its allocation and its makespan, and on the campaign makespan,
// bit for bit.
func TestDistributeMatchesLocal(t *testing.T) {
	app := NewExperiment(10, 24)
	for k := 2; k <= 5; k++ {
		for _, procs := range []int{11, 25, 53, 99} {
			clusters := FiveClusters()[:k]
			for _, cl := range clusters {
				cl.Procs = procs
			}
			grid, err := NewGrid(clusters...)
			if err != nil {
				t.Fatal(err)
			}
			runner, err := Local(clusters)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range Heuristics() {
				name := fmt.Sprintf("k=%d R=%d %s", k, procs, h.Name())
				plan, err := Distribute(app, grid, h, Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				handle, err := runner.Run(context.Background(), Campaign{Experiment: app, Heuristic: h.Name()})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				res, err := handle.Wait()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				reports := make(map[string]ClusterReport, len(res.Reports))
				for _, r := range res.Reports {
					reports[r.Cluster] = r
				}
				loaded := 0
				for i, cl := range plan.Clusters {
					n := plan.Counts[i]
					r, ok := reports[cl]
					if n == 0 {
						if ok {
							t.Errorf("%s: %s ran %d scenarios, Distribute gave it none", name, cl, r.Scenarios)
						}
						continue
					}
					loaded++
					if !ok || r.Scenarios != n || !reflect.DeepEqual(r.Allocation, plan.Allocations[i]) ||
						math.Float64bits(r.Makespan) != math.Float64bits(plan.Vectors[i][n-1]) {
						t.Errorf("%s: %s ran %+v, Distribute planned %d scenarios on %v in %g",
							name, cl, r, n, plan.Allocations[i], plan.Vectors[i][n-1])
					}
				}
				if len(res.Reports) != loaded {
					t.Errorf("%s: %d reports for %d loaded clusters", name, len(res.Reports), loaded)
				}
				if math.Float64bits(res.Makespan) != math.Float64bits(plan.Makespan) {
					t.Errorf("%s: Local makespan %g, Distribute %g", name, res.Makespan, plan.Makespan)
				}
			}
			if err := runner.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestHeuristicByName(t *testing.T) {
	for _, name := range []string{"basic", "redistribute", "all-to-main", "knapsack"} {
		h, err := HeuristicByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if h.Name() != name {
			t.Fatalf("ByName(%q) = %q", name, h.Name())
		}
	}
	if _, err := HeuristicByName("zzz"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if len(Heuristics()) != 4 {
		t.Fatalf("Heuristics() returned %d", len(Heuristics()))
	}
}

func TestEstimateMakespanErrors(t *testing.T) {
	app := NewExperiment(2, 2)
	if _, err := EstimateMakespan(app, ReferenceCluster(10), 3); err == nil {
		t.Error("group below the moldable range accepted")
	}
	if _, err := EstimateMakespan(app, ReferenceCluster(10), 12); err == nil {
		t.Error("group above the moldable range accepted")
	}
	bad := ReferenceCluster(0)
	if _, err := EstimateMakespan(app, bad, 7); err == nil {
		t.Error("invalid cluster accepted")
	}
	if _, err := Plan(Basic, app, bad); err == nil {
		t.Error("Plan accepted an invalid cluster")
	}
	if _, err := Simulate(app, bad, Allocation{Groups: []int{4}}, Options{}); err == nil {
		t.Error("Simulate accepted an invalid cluster")
	}
	for _, ev := range []Evaluator{ModelBackend, DESBackend} {
		if _, err := Evaluate(ev, NewExperiment(2, 3), ReferenceCluster(20), Allocation{}, Options{}); err == nil {
			t.Errorf("%s evaluated an empty allocation", ev.Name())
		}
	}
}

func TestFiveClustersIndependentCopies(t *testing.T) {
	a := FiveClusters()
	a[0].Procs = 999
	b := FiveClusters()
	if b[0].Procs == 999 {
		t.Fatal("FiveClusters returns shared cluster instances")
	}
	if len(a) != 5 || a[0].Name != "sagittaire" || a[4].Name != "azur" {
		t.Fatalf("unexpected profile set: %v, %v", a[0].Name, a[4].Name)
	}
}

func TestSimulateWithTraceAndGantt(t *testing.T) {
	app := NewExperiment(2, 3)
	cluster := ReferenceCluster(12)
	plan, err := Plan(Basic, app, cluster)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(app, cluster, plan, Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace recorded")
	}
	if err := res.Trace.Validate(app.Scenarios, app.Months); err != nil {
		t.Fatal(err)
	}
	gantt := res.Trace.Gantt(60)
	if len(gantt) == 0 {
		t.Fatal("empty Gantt rendering")
	}
}
