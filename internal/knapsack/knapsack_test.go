package knapsack

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSolveHandChecked(t *testing.T) {
	p := Problem{
		Items: []Item{
			{Name: "a", Cost: 4, Value: 1},
			{Name: "b", Cost: 7, Value: 2},
		},
		Capacity: 15,
		MaxItems: 3,
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Best is 2×b (cost 14, value 4); a third item does not fit.
	if sol.Value != 4 || sol.Counts[1] != 2 || sol.Counts[0] != 0 {
		t.Fatalf("solution = %+v, want 2×b", sol)
	}
	if sol.Cost != 14 || sol.Items != 2 {
		t.Fatalf("cost/items = %d/%d, want 14/2", sol.Cost, sol.Items)
	}
}

func TestCardinalityBinds(t *testing.T) {
	p := Problem{
		Items:    []Item{{Name: "a", Cost: 1, Value: 1}},
		Capacity: 100,
		MaxItems: 5,
	}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Items != 5 || sol.Value != 5 {
		t.Fatalf("cardinality constraint violated: %+v", sol)
	}
}

func TestZeroCapacityAndZeroItems(t *testing.T) {
	p := Problem{Items: []Item{{Cost: 2, Value: 3}}, Capacity: 0, MaxItems: 4}
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 0 || sol.Items != 0 {
		t.Fatalf("zero capacity picked items: %+v", sol)
	}
	p = Problem{Items: []Item{{Cost: 2, Value: 3}}, Capacity: 10, MaxItems: 0}
	sol, err = Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 0 {
		t.Fatalf("zero item bound picked items: %+v", sol)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Problem{
		{},
		{Items: []Item{{Cost: 0, Value: 1}}, Capacity: 5, MaxItems: 1},
		{Items: []Item{{Cost: -1, Value: 1}}, Capacity: 5, MaxItems: 1},
		{Items: []Item{{Cost: 1, Value: -1}}, Capacity: 5, MaxItems: 1},
		{Items: []Item{{Cost: 1, Value: math.NaN()}}, Capacity: 5, MaxItems: 1},
		{Items: []Item{{Cost: 1, Value: 1}}, Capacity: -5, MaxItems: 1},
		{Items: []Item{{Cost: 1, Value: 1}}, Capacity: 5, MaxItems: -1},
	}
	for i, p := range bad {
		if _, err := Solve(p); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestSolutionCountsConsistent: reported cost/items/value always match the
// reconstructed counts.
func TestSolutionCountsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		nItems := 1 + rng.Intn(6)
		p := Problem{Capacity: rng.Intn(60), MaxItems: rng.Intn(12)}
		for i := 0; i < nItems; i++ {
			p.Items = append(p.Items, Item{
				Cost:  1 + rng.Intn(12),
				Value: rng.Float64() * 10,
			})
		}
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		cost, items, value := 0, 0, 0.0
		for i, c := range sol.Counts {
			cost += c * p.Items[i].Cost
			items += c
			value += float64(c) * p.Items[i].Value
		}
		if cost != sol.Cost || items != sol.Items || math.Abs(value-sol.Value) > 1e-9 {
			t.Fatalf("trial %d: inconsistent solution %+v (recomputed cost=%d items=%d value=%g)",
				trial, sol, cost, items, value)
		}
		if cost > p.Capacity || items > p.MaxItems {
			t.Fatalf("trial %d: infeasible solution %+v for %+v", trial, sol, p)
		}
	}
}

// TestSolveMatchesBruteForce cross-checks the DP against exhaustive search on
// random small instances.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nItems := 1 + rng.Intn(5)
		p := Problem{Capacity: rng.Intn(30), MaxItems: rng.Intn(8)}
		for i := 0; i < nItems; i++ {
			p.Items = append(p.Items, Item{
				Cost:  1 + rng.Intn(9),
				Value: float64(1+rng.Intn(50)) / 7,
			})
		}
		dp, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := SolveBrute(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dp.Value-brute.Value) > 1e-9*(1+brute.Value) {
			t.Fatalf("trial %d: DP value %g != brute %g (problem %+v)", trial, dp.Value, brute.Value, p)
		}
	}
}

// TestTableBestMatchesSolve: one table answers every smaller (capacity,
// bound) question exactly as a fresh Solve of that instance does, counts
// included — the reuse Knapsack.Plan relies on.
func TestTableBestMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		p := Problem{Capacity: rng.Intn(40), MaxItems: rng.Intn(10)}
		for i := 1 + rng.Intn(6); i > 0; i-- {
			p.Items = append(p.Items, Item{Cost: 1 + rng.Intn(9), Value: float64(1+rng.Intn(50)) / 7})
		}
		table, err := NewTable(p)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c <= p.Capacity; c++ {
			for n := 0; n <= p.MaxItems; n++ {
				q := p
				q.Capacity, q.MaxItems = c, n
				want, err := Solve(q)
				if err != nil {
					t.Fatal(err)
				}
				if got := table.Best(c, n); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (c=%d, n=%d): table %+v, Solve %+v", trial, c, n, got, want)
				}
			}
		}
	}
}

// TestPaperInstanceShape solves the scheduling-shaped instance (costs 4..11,
// values decreasing with cost) and checks the solution saturates either the
// capacity or the cardinality bound.
func TestPaperInstanceShape(t *testing.T) {
	items := make([]Item, 0, 8)
	for g := 4; g <= 11; g++ {
		items = append(items, Item{Cost: g, Value: 1 / float64(900+2880/(g-3))})
	}
	for _, r := range []int{11, 23, 53, 87, 110} {
		p := Problem{Items: items, Capacity: r, MaxItems: 10}
		sol, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Items == 0 {
			t.Fatalf("R=%d: empty solution", r)
		}
		// Leftover capacity must be smaller than the cheapest item unless the
		// cardinality bound binds.
		if sol.Items < p.MaxItems && p.Capacity-sol.Cost >= 4 {
			t.Fatalf("R=%d: wasted %d processors with %d groups", r, p.Capacity-sol.Cost, sol.Items)
		}
	}
}

// Property: adding capacity never decreases the optimal value.
func TestValueMonotoneInCapacity(t *testing.T) {
	items := []Item{{Cost: 3, Value: 2}, {Cost: 5, Value: 3.5}, {Cost: 7, Value: 5.5}}
	f := func(capRaw, bumpRaw uint8) bool {
		capacity := int(capRaw) % 64
		bump := int(bumpRaw) % 16
		a, err := Solve(Problem{Items: items, Capacity: capacity, MaxItems: 6})
		if err != nil {
			return false
		}
		b, err := Solve(Problem{Items: items, Capacity: capacity + bump, MaxItems: 6})
		if err != nil {
			return false
		}
		return b.Value >= a.Value-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
