// Package baseline implements a CPA-style mixed-parallelism scheduler
// (Radulescu & van Gemund, "Critical Path and Area based Scheduling", ICPP
// 2001 — reference [9] of the paper) adapted to the multi-DAG workload, as
// the related-work comparison the paper's §3.2 argues against: "These
// heuristics are not applicable here because our application does not
// contain a single critical path since all scenario simulations are
// independent."
//
// CPA's two steps are kept: (1) a processor-allotment loop that grows the
// allotment of the critical path's moldable tasks while the max(critical
// path, average area) estimate improves; (2) list scheduling. Because every
// chain is identical, step (1) degenerates to choosing one allotment G for
// all main tasks — but, crucially, CPA has no notion of the NS concurrency
// cap (at most NS main tasks can ever run at once), so its allotment tends
// to be too small on large clusters and the paper's heuristics win. The
// benchmark AblationCPA quantifies that.
package baseline

import (
	"fmt"
	"math"

	"oagrid/internal/core"
	"oagrid/internal/platform"
)

// CPA is the adapted Critical Path and Area based allotment heuristic.
type CPA struct{}

// Name implements core.Heuristic.
func (CPA) Name() string { return "cpa" }

// Plan implements core.Heuristic. The allotment loop mirrors CPA: start
// every moldable task at its minimum allotment and repeatedly grow the
// allotment of critical-path tasks — here, all main tasks at once, since
// every chain is the critical path — while the makespan lower bound
// max(critical-path length, total area / R) improves.
func (CPA) Plan(app core.Application, t platform.Timing, procs int) (core.Allocation, error) {
	if err := app.Validate(); err != nil {
		return core.Allocation{}, err
	}
	lo, hi := t.Range()
	if procs < lo {
		return core.Allocation{}, fmt.Errorf("baseline: %d processors cannot host a group of %d", procs, lo)
	}
	estimate := func(g int) (float64, error) {
		tg, err := t.MainSeconds(g)
		if err != nil {
			return 0, err
		}
		tp := t.PostSeconds()
		// Critical path: one chain of NM mains plus a trailing post.
		// Each product is rounded before its sum, so no GOARCH fuses it
		// into a multiply-add.
		cp := float64(float64(app.Months)*tg) + tp
		// Average area: total processor-seconds over the cluster.
		area := (float64(float64(app.Tasks())*(tg*float64(g))) + float64(float64(app.Tasks())*tp)) / float64(procs)
		return math.Max(cp, area), nil
	}
	g := lo
	best, err := estimate(g)
	if err != nil {
		return core.Allocation{}, err
	}
	for g < hi && g < procs {
		next, err := estimate(g + 1)
		if err != nil {
			return core.Allocation{}, err
		}
		if next >= best {
			break // CPA stops at the first non-improving growth
		}
		g++
		best = next
	}
	// Step 2's list scheduler packs as many G-processor tasks side by side
	// as fit; the group construction mirrors that. CPA knows nothing of the
	// NS cap, but more groups than scenarios can never run concurrently, so
	// building them would only idle processors — the cap here is the
	// executor's reality, not CPA's wisdom.
	nb := procs / g
	if nb > app.Scenarios {
		nb = app.Scenarios
	}
	if nb == 0 {
		return core.Allocation{}, fmt.Errorf("baseline: no group of %d fits on %d processors", g, procs)
	}
	groups := make([]int, nb)
	for i := range groups {
		groups[i] = g
	}
	return core.Allocation{
		Groups:    groups,
		PostProcs: procs - nb*g,
		Heuristic: "cpa",
	}, nil
}

var _ core.Heuristic = CPA{}

// SequentialDAGs is the naive multi-DAG strategy of the paper's §3.1 ("a
// first approach is to schedule each DAG on the resources one after the
// other"): all R processors serve one scenario at a time. Its makespan model
// is NS × (NM × T[min(R, maxG)]) plus the post drain — the yardstick that
// shows why concurrent scheduling with groups matters.
type SequentialDAGs struct{}

// Name implements core.Heuristic.
func (SequentialDAGs) Name() string { return "sequential-dags" }

// Plan implements core.Heuristic: one maximal group; scenarios will be
// executed one after the other by the dispatcher because only one can run at
// a time.
func (SequentialDAGs) Plan(app core.Application, t platform.Timing, procs int) (core.Allocation, error) {
	if err := app.Validate(); err != nil {
		return core.Allocation{}, err
	}
	lo, hi := t.Range()
	if procs < lo {
		return core.Allocation{}, fmt.Errorf("baseline: %d processors cannot host a group of %d", procs, lo)
	}
	g := procs
	if g > hi {
		g = hi
	}
	return core.Allocation{
		Groups:    []int{g},
		PostProcs: procs - g,
		Heuristic: "sequential-dags",
	}, nil
}

var _ core.Heuristic = SequentialDAGs{}
