package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"oagrid/internal/platform"
)

func TestRepartitionHandExample(t *testing.T) {
	// Two clusters; the first is twice as fast. Vectors are makespans for
	// 1..4 scenarios.
	perf := [][]float64{
		{10, 20, 30, 40},
		{20, 40, 60, 80},
	}
	res, err := Repartition(perf)
	if err != nil {
		t.Fatalf("Repartition: %v", err)
	}
	// Greedy: s0→c0(10), s1→c0(20)=c1(20) tie→c0? perf[0][1]=20 == perf[1][0]=20;
	// strict less keeps c0 only if 20<20 is false, so c1 wins the tie check
	// order: c0 considered first with 20, c1 not strictly less → c0.
	if got, want := res.Counts, []int{3, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("counts = %v, want %v", got, want)
	}
	if res.Makespan != 30 {
		t.Fatalf("makespan = %g, want 30", res.Makespan)
	}
	opt, err := optimalRepartition(perf)
	if err != nil {
		t.Fatalf("optimalRepartition: %v", err)
	}
	if opt.Makespan != 30 {
		t.Fatalf("optimal makespan = %g, want 30", opt.Makespan)
	}
}

func TestRepartitionErrors(t *testing.T) {
	if _, err := Repartition(nil); err == nil {
		t.Error("expected error for empty matrix")
	}
	if _, err := Repartition([][]float64{{}}); err == nil {
		t.Error("expected error for empty vector")
	}
	if _, err := Repartition([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("expected error for ragged matrix")
	}
	if _, err := Repartition([][]float64{{1, -2}}); err == nil {
		t.Error("expected error for non-positive makespan")
	}
	if _, err := Repartition([][]float64{{1, math.NaN()}}); err == nil {
		t.Error("expected error for NaN makespan")
	}
}

// TestRepartitionOptimal is the paper's optimality claim for Algorithm 1
// ("The algorithm gives the optimal repartition for the times given in the
// performance array"): for monotone non-decreasing performance vectors the
// greedy repartition matches exhaustive dynamic programming.
func TestRepartitionOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(5)
		ns := 1 + rng.Intn(10)
		perf := make([][]float64, n)
		for c := range perf {
			perf[c] = make([]float64, ns)
			acc := 0.0
			for k := range perf[c] {
				acc += 1 + rng.Float64()*100
				perf[c][k] = acc
			}
		}
		greedy, err := Repartition(perf)
		if err != nil {
			t.Fatalf("trial %d: greedy: %v", trial, err)
		}
		opt, err := optimalRepartition(perf)
		if err != nil {
			t.Fatalf("trial %d: optimal: %v", trial, err)
		}
		if math.Abs(greedy.Makespan-opt.Makespan) > 1e-9*opt.Makespan {
			t.Fatalf("trial %d: greedy makespan %g != optimal %g (perf=%v)",
				trial, greedy.Makespan, opt.Makespan, perf)
		}
		total := 0
		for _, c := range greedy.Counts {
			total += c
		}
		if total != ns {
			t.Fatalf("trial %d: greedy assigned %d scenarios, want %d", trial, total, ns)
		}
	}
}

func TestRepartitionAssignmentConsistent(t *testing.T) {
	perf := [][]float64{
		{5, 11, 18, 30},
		{7, 13, 22, 35},
		{9, 20, 33, 50},
	}
	res, err := Repartition(perf)
	if err != nil {
		t.Fatalf("Repartition: %v", err)
	}
	counts := make([]int, len(perf))
	for _, c := range res.Assignment {
		counts[c]++
	}
	if !reflect.DeepEqual(counts, res.Counts) {
		t.Fatalf("assignment %v inconsistent with counts %v", res.Assignment, res.Counts)
	}
}

// TestRepartitionFavorsFastClusters mirrors the paper's conclusion ("The
// faster, the more DAGs it has to execute"): with two clusters differing only
// in speed, the faster one receives at least as many scenarios.
func TestRepartitionFavorsFastClusters(t *testing.T) {
	app := Default()
	fast := platform.ReferenceTiming()
	slow := fast
	slow.Speed = 1.5
	// Basic's vector under equations 1–5: entry k-1 is the modelled makespan
	// of k scenarios at the grouping basic picks for them.
	vector := func(tm platform.Timing) []float64 {
		vec := make([]float64, app.Scenarios)
		for k := range vec {
			sub := Application{Scenarios: k + 1, Months: app.Months}
			al, err := (Basic{}).Plan(sub, tm, 40)
			if err != nil {
				t.Fatal(err)
			}
			if vec[k], err = UniformEstimate(sub, tm, 40, al.Groups[0]); err != nil {
				t.Fatal(err)
			}
		}
		return vec
	}
	res, err := Repartition([][]float64{vector(fast), vector(slow)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[0] < res.Counts[1] {
		t.Fatalf("fast cluster got %d scenarios, slow got %d", res.Counts[0], res.Counts[1])
	}
}

// optimalRepartition finds the distribution minimizing the global makespan by
// dynamic programming over (cluster prefix, scenarios placed). It is the
// reference the greedy Algorithm 1 is checked against.
func optimalRepartition(perf [][]float64) (RepartitionResult, error) {
	ns, err := validatePerf(perf)
	if err != nil {
		return RepartitionResult{}, err
	}
	n := len(perf)
	const inf = math.MaxFloat64
	// best[c][k]: minimal max-makespan placing k scenarios on clusters 0..c.
	best := make([][]float64, n)
	choice := make([][]int, n)
	for c := 0; c < n; c++ {
		best[c] = make([]float64, ns+1)
		choice[c] = make([]int, ns+1)
		for k := 0; k <= ns; k++ {
			if c == 0 {
				if k == 0 {
					best[c][k] = 0
				} else {
					best[c][k] = perf[0][k-1]
					choice[c][k] = k
				}
				continue
			}
			best[c][k] = inf
			for take := 0; take <= k; take++ {
				own := 0.0
				if take > 0 {
					own = perf[c][take-1]
				}
				v := math.Max(own, best[c-1][k-take])
				if v < best[c][k] {
					best[c][k] = v
					choice[c][k] = take
				}
			}
		}
	}
	res := RepartitionResult{
		Counts:     make([]int, n),
		Assignment: make([]int, 0, ns),
		Makespan:   best[n-1][ns],
	}
	k := ns
	for c := n - 1; c >= 0; c-- {
		res.Counts[c] = choice[c][k]
		k -= choice[c][k]
	}
	for c := 0; c < n; c++ {
		for i := 0; i < res.Counts[c]; i++ {
			res.Assignment = append(res.Assignment, c)
		}
	}
	return res, nil
}
