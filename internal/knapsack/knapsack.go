// Package knapsack solves the bounded knapsack problem with an extra
// cardinality constraint, the formulation behind the paper's best heuristic
// (Improvement 3, §4.2):
//
//	maximize   Σᵢ nᵢ·Value[i]
//	subject to Σᵢ nᵢ·Cost[i] ≤ Capacity   and   Σᵢ nᵢ ≤ MaxItems
//
// In the scheduling instance an item i is "a group of i processors"
// (i ∈ [4,11]), its cost is i, its value 1/T[i] — the fraction of a main task
// computed per second by such a group — capacity is the cluster size R and
// MaxItems is NS, because at most NS scenarios run concurrently.
//
// The solver is an exact dynamic program over (capacity, items) with a
// deterministic tie-break (higher value, then fewer items, then lower cost),
// so equal-value plans always resolve the same way. A brute-force reference
// solver is included for property tests and ablations.
//
//oalint:deterministic
package knapsack

import (
	"errors"
	"fmt"
	"math"
)

// Item is one selectable item with unlimited copies available.
type Item struct {
	Cost  int
	Value float64
}

// Problem is a bounded-cardinality knapsack instance.
type Problem struct {
	Items    []Item
	Capacity int
	MaxItems int
}

// Solution reports the chosen multiset.
type Solution struct {
	// Counts[i] is how many copies of Items[i] were selected.
	Counts []int
	Value  float64
	Cost   int
	Items  int
}

// Validate checks the instance is well formed.
func (p *Problem) Validate() error {
	if len(p.Items) == 0 {
		return errors.New("knapsack: no items")
	}
	if p.Capacity < 0 {
		return fmt.Errorf("knapsack: negative capacity %d", p.Capacity)
	}
	if p.MaxItems < 0 {
		return fmt.Errorf("knapsack: negative item bound %d", p.MaxItems)
	}
	for i, it := range p.Items {
		if it.Cost <= 0 {
			return fmt.Errorf("knapsack: item %d has non-positive cost %d", i, it.Cost)
		}
		if it.Value < 0 || math.IsNaN(it.Value) || math.IsInf(it.Value, 0) {
			return fmt.Errorf("knapsack: item %d (cost %d) has invalid value %g", i, it.Cost, it.Value)
		}
	}
	return nil
}

// relEps is the relative tolerance for comparing accumulated float values;
// sums of reciprocals of task durations differ meaningfully well above it.
const relEps = 1e-12

// better reports whether candidate (v1,i1,c1) strictly improves on champion
// (v0,i0,c0) under the deterministic preference order.
func better(v1 float64, i1, c1 int, v0 float64, i0, c0 int) bool {
	scale := math.Max(math.Abs(v0), math.Abs(v1))
	if v1-v0 > relEps*scale {
		return true
	}
	if v0-v1 > relEps*scale {
		return false
	}
	if i1 != i0 {
		return i1 < i0
	}
	return c1 < c0
}

type cell struct {
	value float64
	items int
	cost  int
	// pick is the item index chosen to reach this cell, -1 when the cell is
	// the empty selection.
	pick int
}

// Table is a solved instance: the optimum for every capacity up to the
// problem's Capacity and every item bound up to its MaxItems. Cell (c, n)
// of the dynamic program depends only on cells of lower capacity or bound,
// never on the problem's own bounds, so Best answers any smaller question
// exactly as Solve would: a caller that asks many of one item set fills one
// table instead of one per question.
type Table struct {
	items []Item
	k     int // MaxItems + 1, the row stride of dp
	dp    []cell
}

// NewTable fills the dynamic program of p.
//
// Complexity is O(Capacity × MaxItems × len(Items)) time and
// O(Capacity × MaxItems) space; the scheduling instances (R ≤ a few hundred,
// NS ≈ 10, 8 items) solve in microseconds.
func NewTable(p Problem) (*Table, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k := p.MaxItems + 1
	t := &Table{items: p.Items, k: k, dp: make([]cell, (p.Capacity+1)*k)}
	for i := range t.dp {
		t.dp[i] = cell{pick: -1}
	}
	for c := 0; c <= p.Capacity; c++ {
		for n := 1; n <= p.MaxItems; n++ {
			// Start from "same capacity, one fewer allowed item".
			*t.at(c, n) = *t.at(c, n-1)
			cur := t.at(c, n)
			for idx, it := range p.Items {
				if it.Cost > c {
					continue
				}
				prev := t.at(c-it.Cost, n-1)
				v := prev.value + it.Value
				ni := prev.items + 1
				nc := prev.cost + it.Cost
				if better(v, ni, nc, cur.value, cur.items, cur.cost) {
					*cur = cell{value: v, items: ni, cost: nc, pick: idx}
				}
			}
		}
	}
	return t, nil
}

func (t *Table) at(c, n int) *cell { return &t.dp[c*t.k+n] }

// Best returns the optimal selection of at most maxItems items costing at
// most capacity; both must lie within the bounds the table was filled for.
func (t *Table) Best(capacity, maxItems int) Solution {
	best := t.at(capacity, maxItems)
	sol := Solution{
		Counts: make([]int, len(t.items)),
		Value:  best.value,
		Cost:   best.cost,
		Items:  best.items,
	}
	// Walk the picks back to reconstruct counts. A cell identical to its
	// (c, n-1) parent was inherited by the copy step (picks only overwrite a
	// cell when they strictly improve it), so we descend; otherwise the
	// recorded pick belongs to this level and we follow it.
	c, n := capacity, maxItems
	for n > 0 {
		cl := t.at(c, n)
		if cl.pick < 0 || *cl == *t.at(c, n-1) {
			n--
			continue
		}
		sol.Counts[cl.pick]++
		c -= t.items[cl.pick].Cost
		n--
	}
	return sol
}

// Solve returns an optimal solution of the instance.
func Solve(p Problem) (Solution, error) {
	t, err := NewTable(p)
	if err != nil {
		return Solution{}, err
	}
	return t.Best(p.Capacity, p.MaxItems), nil
}

// SolveBrute exhaustively enumerates all selections. It is exponential and
// only intended for cross-checking Solve on small instances in tests and for
// the ablation harness.
func SolveBrute(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	best := Solution{Counts: make([]int, len(p.Items))}
	cur := make([]int, len(p.Items))
	var rec func(idx, cost, items int, value float64)
	rec = func(idx, cost, items int, value float64) {
		if better(value, items, cost, best.Value, best.Items, best.Cost) {
			best = Solution{Counts: append([]int(nil), cur...), Value: value, Cost: cost, Items: items}
		}
		if idx == len(p.Items) || items == p.MaxItems {
			return
		}
		// Skip item idx entirely.
		rec(idx+1, cost, items, value)
		// Take 1..max copies of item idx.
		it := p.Items[idx]
		taken := 0
		for cost+it.Cost <= p.Capacity && items+1 <= p.MaxItems {
			cost += it.Cost
			items++
			value += it.Value
			taken++
			cur[idx] = taken
			rec(idx+1, cost, items, value)
		}
		cur[idx] = 0
	}
	rec(0, 0, 0, 0)
	return best, nil
}
