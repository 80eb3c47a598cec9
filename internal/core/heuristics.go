package core

import (
	"fmt"
	"math"
	"sort"

	"oagrid/internal/knapsack"
	"oagrid/internal/platform"
)

// Heuristic plans an Allocation for an application on a homogeneous cluster.
type Heuristic interface {
	// Name identifies the heuristic in traces and figures.
	Name() string
	// Plan divides procs processors into main-task groups and a post pool.
	Plan(app Application, t platform.Timing, procs int) (Allocation, error)
}

// Heuristic names, used as labels throughout the figures.
const (
	NameBasic        = "basic"
	NameRedistribute = "redistribute" // paper's Improvement 1
	NameAllToMain    = "all-to-main"  // paper's Improvement 2
	NameKnapsack     = "knapsack"     // paper's Improvement 3
)

// All returns the four heuristics of the paper in presentation order.
func All() []Heuristic {
	return []Heuristic{Basic{}, Redistribute{}, AllToMain{}, Knapsack{}}
}

// Improvements returns the three improved heuristics compared against the
// basic one in Figures 8 and 10.
func Improvements() []Heuristic {
	return []Heuristic{Redistribute{}, AllToMain{}, Knapsack{}}
}

// ByName returns the heuristic with the given name.
func ByName(name string) (Heuristic, error) {
	for _, h := range All() {
		if h.Name() == name {
			return h, nil
		}
	}
	return nil, fmt.Errorf("core: unknown heuristic %q", name)
}

// bestUniformGroup scans the moldable range and returns the group size G
// minimizing estimate(G), preferring the smaller G on ties.
func bestUniformGroup(app Application, t platform.Timing, procs int,
	estimate func(group int) (float64, error)) (int, float64, error) {
	lo, hi := t.Range()
	bestG, bestMS := 0, 0.0
	for g := lo; g <= hi; g++ {
		if g > procs {
			break
		}
		ms, err := estimate(g)
		if err != nil {
			return 0, 0, err
		}
		if bestG == 0 || ms < bestMS {
			bestG, bestMS = g, ms
		}
	}
	if bestG == 0 {
		return 0, 0, fmt.Errorf("core: %d processors cannot host any group in [%d,%d]", procs, lo, hi)
	}
	return bestG, bestMS, nil
}

// Basic is the first scheduling heuristic of §4.1: all main tasks get the
// same number of processors G, chosen by minimizing the analytical model over
// G ∈ [4,11]; leftover processors serve post-processing.
type Basic struct{}

// Name implements Heuristic.
func (Basic) Name() string { return NameBasic }

// Plan implements Heuristic.
func (Basic) Plan(app Application, t platform.Timing, procs int) (Allocation, error) {
	if err := app.Validate(); err != nil {
		return Allocation{}, err
	}
	g, _, err := bestUniformGroup(app, t, procs, func(g int) (float64, error) {
		return UniformEstimate(app, t, procs, g)
	})
	if err != nil {
		return Allocation{}, err
	}
	nbmax := minInt(procs/g, app.Scenarios)
	groups := make([]int, nbmax)
	for i := range groups {
		groups[i] = g
	}
	return Allocation{
		Groups:    groups,
		PostProcs: procs - nbmax*g,
		Heuristic: NameBasic,
	}, nil
}

// Redistribute is the paper's Improvement 1: start from the basic grouping,
// keep only as many post-processing processors as the posts actually need
// (⌈nbmax/⌊TG/TP⌋⌉), and spread the processors left over across the main-task
// groups, making some groups one processor larger. For the paper's worked
// example (R = 53, NS = 10 → basic G = 7) this produces 3 groups of 8, 4
// groups of 7 and 1 post processor.
type Redistribute struct{}

// Name implements Heuristic.
func (Redistribute) Name() string { return NameRedistribute }

// Plan implements Heuristic.
func (Redistribute) Plan(app Application, t platform.Timing, procs int) (Allocation, error) {
	base, err := (Basic{}).Plan(app, t, procs)
	if err != nil {
		return Allocation{}, err
	}
	nbmax := len(base.Groups)
	g := base.Groups[0]
	tg, err := t.MainSeconds(g)
	if err != nil {
		return Allocation{}, err
	}
	tp := t.PostSeconds()
	needed := 0
	if tp > 0 {
		ratio := int(tg / tp)
		if ratio < 1 {
			// Posts are longer than mains; keep the whole leftover pool.
			needed = base.PostProcs
		} else {
			needed = minInt(base.PostProcs, ceilDiv(nbmax, ratio))
		}
	}
	extra := base.PostProcs - needed
	groups := append([]int(nil), base.Groups...)
	_, hi := t.Range()
	// Round-robin the spare processors over the groups, capped at the top of
	// the moldable range; whatever cannot be absorbed returns to the post pool.
	for extra > 0 {
		grew := false
		for i := range groups {
			if extra == 0 {
				break
			}
			if groups[i] < hi {
				groups[i]++
				extra--
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(groups)))
	return Allocation{
		Groups:    groups,
		PostProcs: needed + extra,
		Heuristic: NameRedistribute,
	}, nil
}

// AllToMain is the paper's Improvement 2: no processor is reserved for
// post-processing — every processor joins a main-task group (the group size
// is re-optimized under the post-at-the-end model) and post tasks run on
// transiently idle processors or after the mains. This "permits to avoid that
// the resource used to compute the post-processing become idle waiting for
// new tasks".
type AllToMain struct{}

// Name implements Heuristic.
func (AllToMain) Name() string { return NameAllToMain }

// Plan implements Heuristic.
func (AllToMain) Plan(app Application, t platform.Timing, procs int) (Allocation, error) {
	if err := app.Validate(); err != nil {
		return Allocation{}, err
	}
	g, _, err := bestUniformGroup(app, t, procs, func(g int) (float64, error) {
		return PostAtEndEstimate(app, t, procs, g)
	})
	if err != nil {
		return Allocation{}, err
	}
	nbmax := minInt(procs/g, app.Scenarios)
	groups := make([]int, nbmax)
	for i := range groups {
		groups[i] = g
	}
	extra := procs - nbmax*g
	_, hi := t.Range()
	for extra > 0 {
		grew := false
		for i := range groups {
			if extra == 0 {
				break
			}
			if groups[i] < hi {
				groups[i]++
				extra--
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(groups)))
	// extra > 0 only when every group is saturated at the top of the range;
	// those processors can only ever serve post tasks.
	return Allocation{
		Groups:    groups,
		PostProcs: extra,
		Heuristic: NameAllToMain,
	}, nil
}

// Knapsack is the paper's Improvement 3 and best heuristic: the division of R
// processors into groups is an instance of the bounded knapsack problem with
// a cardinality constraint. Item i is "a group of i processors" (i in the
// moldable range), with cost i and value 1/T[i] — "the fraction of a
// multiprocessor task that gets executed during a time unit for that specific
// group of processors" — under Σ i·nᵢ ≤ R and Σ nᵢ ≤ NS.
//
// On top of the paper's formulation the planner is saturation-aware: when an
// allocation has exactly NS groups, no scenario ever waits, so each scenario
// is effectively pinned to one group and the makespan degenerates to
// NM·max(T[gᵢ]) instead of the throughput bound — a slow leftover group then
// drags the whole experiment (see the scheduling-pathology note in
// EXPERIMENTS.md). Plan therefore solves the knapsack for every group-count
// bound m ≤ NS and keeps the solution whose pinning-aware estimate is
// smallest. Literal disables this and returns the paper's raw formulation.
type Knapsack struct {
	// Value optionally overrides the per-item value function; nil means the
	// paper's 1/T[g]. The ablation harness uses this hook.
	Value func(g int, tg float64) float64
	// Literal selects the paper's raw formulation: one solve with the
	// cardinality bound NS, ignoring the pinning degeneration.
	Literal bool
}

// Name implements Heuristic.
func (k Knapsack) Name() string { return NameKnapsack }

// Plan implements Heuristic.
func (k Knapsack) Plan(app Application, t platform.Timing, procs int) (Allocation, error) {
	if err := app.Validate(); err != nil {
		return Allocation{}, err
	}
	prob, sizes, err := k.problem(app, t, procs)
	if err != nil {
		return Allocation{}, err
	}
	// One table answers every (bound, reserve) candidate below. The loop
	// skips non-positive capacities, so those keep the planner's own error.
	prob.Capacity = max(procs, 0)
	table, err := knapsack.NewTable(prob)
	if err != nil {
		return Allocation{}, err
	}
	bounds := []int{app.Scenarios}
	if !k.Literal {
		bounds = bounds[:0]
		for m := app.Scenarios; m >= 1; m-- {
			bounds = append(bounds, m)
		}
	}
	// Candidate solutions: every cardinality bound m, with and without one
	// processor reserved for post-processing (the reserve lets a max-rate
	// plan that would otherwise consume the whole cluster compete against a
	// basic-shaped plan that absorbs posts concurrently).
	bestGroups := []int(nil)
	bestCost := 0
	bestEst := math.Inf(1)
	maxReserve := 0
	if !k.Literal {
		maxReserve = 1
	}
	for _, m := range bounds {
		for reserve := 0; reserve <= maxReserve; reserve++ {
			if procs-reserve <= 0 {
				continue
			}
			sol := table.Best(procs-reserve, m)
			if sol.Items == 0 || sol.Items > m {
				continue
			}
			var groups []int
			for i, cnt := range sol.Counts {
				for j := 0; j < cnt; j++ {
					groups = append(groups, sizes[i])
				}
			}
			est, err := pinAwareEstimate(app, t, groups, procs-sol.Cost, procs)
			if err != nil {
				return Allocation{}, err
			}
			if est < bestEst {
				bestEst = est
				bestGroups = groups
				bestCost = sol.Cost
			}
		}
	}
	// The max-rate solutions above can all carry a slow straggler group when
	// the benchmark table is irregular; make sure the plain uniform
	// groupings (the shapes the basic heuristic uses) compete too, so the
	// planner never returns an allocation it estimates worse than them.
	if !k.Literal {
		lo, hi := t.Range()
		for g := lo; g <= hi && g <= procs; g++ {
			n := minInt(procs/g, app.Scenarios)
			if n == 0 {
				continue
			}
			groups := make([]int, n)
			for i := range groups {
				groups[i] = g
			}
			est, err := pinAwareEstimate(app, t, groups, procs-n*g, procs)
			if err != nil {
				return Allocation{}, err
			}
			if est < bestEst {
				bestEst = est
				bestGroups = groups
				bestCost = n * g
			}
		}
	}
	if len(bestGroups) == 0 {
		lo, _ := t.Range()
		return Allocation{}, fmt.Errorf("core: %d processors cannot host any group of at least %d", procs, lo)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(bestGroups)))
	return Allocation{
		Groups:    bestGroups,
		PostProcs: procs - bestCost,
		Heuristic: NameKnapsack,
	}, nil
}

// pinAwareEstimate models the makespan of a group multiset. Main phase: with
// fewer groups than scenarios the executor rotates scenarios and achieves
// the aggregate-throughput bound; with exactly NS groups every scenario is
// pinned to one group and the slowest group sets the pace. Post phase: with
// no processor left over, every group is busy until the mains end and the
// full post-processing volume drains afterwards on the whole cluster; with a
// leftover pool the posts are absorbed concurrently and only the final
// handful remains.
func pinAwareEstimate(app Application, t platform.Timing, groups []int, leftover, procs int) (float64, error) {
	rate, maxT := 0.0, 0.0
	for _, g := range groups {
		tg, err := t.MainSeconds(g)
		if err != nil {
			return 0, err
		}
		rate += 1 / tg
		if tg > maxT {
			maxT = tg
		}
	}
	var mains float64
	if len(groups) >= app.Scenarios {
		mains = float64(app.Months) * maxT
	} else {
		mains = float64(app.Tasks()) / rate
	}
	if tp := t.PostSeconds(); tp > 0 {
		if leftover == 0 {
			mains += float64(app.Tasks()) * tp / float64(procs)
		} else {
			mains += tp
		}
	}
	return mains, nil
}

// problem builds the knapsack instance for the given cluster size.
func (k Knapsack) problem(app Application, t platform.Timing, procs int) (knapsack.Problem, []int, error) {
	lo, hi := t.Range()
	var items []knapsack.Item
	var sizes []int
	for g := lo; g <= hi; g++ {
		tg, err := t.MainSeconds(g)
		if err != nil {
			return knapsack.Problem{}, nil, err
		}
		v := 1 / tg
		if k.Value != nil {
			v = k.Value(g, tg)
		}
		items = append(items, knapsack.Item{Cost: g, Value: v})
		sizes = append(sizes, g)
	}
	return knapsack.Problem{
		Items:    items,
		Capacity: procs,
		MaxItems: app.Scenarios,
	}, sizes, nil
}
