package core

import (
	"fmt"
	"math"

	"oagrid/internal/platform"
)

// UniformEstimate is the analytical makespan model of the paper's §4.1 for a
// homogeneous cluster of R processors where every main task runs on the same
// number G of processors. It implements equations (1) through (5):
//
//   - nbmax = min(NS, ⌊R/G⌋) main tasks run concurrently, in ⌈nbtasks/nbmax⌉
//     "waves" of duration TG (equation 1);
//   - R2 = R − nbmax·G leftover processors absorb post tasks while mains run;
//   - post tasks that do not fit (the "overpass", Figures 4–6) plus those of
//     the final wave(s) run after the mains on all R processors
//     (equations 2–5, split on R2 = 0 and on nbused = nbtasks mod nbmax).
//
// The function returns the modeled makespan in seconds. Every product is
// rounded by an explicit float64 conversion before it is added to, so no
// GOARCH fuses the two into one multiply-add and the estimates, which Basic's
// group choice minimises, are bit-identical everywhere.
func UniformEstimate(app Application, t platform.Timing, procs, group int) (float64, error) {
	if err := app.Validate(); err != nil {
		return 0, err
	}
	tg, err := t.MainSeconds(group)
	if err != nil {
		return 0, err
	}
	tp := t.PostSeconds()
	if procs < group {
		return 0, fmt.Errorf("core: %d processors cannot host one group of %d", procs, group)
	}
	nbmax := procs / group
	if nbmax > app.Scenarios {
		nbmax = app.Scenarios
	}
	nbtasks := app.Tasks()
	r2 := procs - nbmax*group
	n := ceilDiv(nbtasks, nbmax)
	nbused := nbtasks % nbmax
	msMulti := float64(float64(n) * tg) // equation (1)
	if tp <= 0 {
		return msMulti, nil
	}
	// ratio = ⌊TG/TP⌋: post tasks one processor completes during one wave.
	ratio := int(math.Floor(tg / tp))

	if r2 == 0 {
		if nbused == 0 {
			// Equation (2): no processor is free until the mains finish; all
			// posts run at the end on the full cluster.
			return msMulti + float64(float64(ceilDiv(nbtasks, procs))*tp), nil
		}
		// Equation (3): the last, incomplete wave leaves Rleft processors
		// idle; they absorb ⌊TG/TP⌋ posts each, the remainder runs at the end.
		rleft := procs - nbused*group
		remPost := nbused + maxInt(0, nbtasks-nbused-ratio*rleft)
		return msMulti + float64(float64(ceilDiv(remPost, procs))*tp), nil
	}

	// R2 > 0: each complete wave generates nbmax posts while the R2 reserved
	// processors complete Npossible of them.
	npossible := ratio * r2
	if nbused == 0 {
		// Equation (4): overflow from the first n−1 waves plus the final
		// wave's posts run at the end.
		noverpass := maxInt(0, (n-1)*(nbmax-npossible))
		return msMulti + float64(float64(ceilDiv(noverpass+nbmax, procs))*tp), nil
	}
	// Equation (5): overflow from the first n−2 complete waves, plus the last
	// complete wave's nbmax posts, lands on the processors freed during the
	// incomplete wave (Rleft); what still does not fit, plus the incomplete
	// wave's nbused posts, runs at the end.
	noverpass := maxInt(0, (n-2)*(nbmax-npossible))
	novertot := noverpass + nbmax
	rleft := procs - group*nbused
	remPost := nbused + maxInt(0, novertot-ratio*rleft)
	return msMulti + float64(float64(ceilDiv(remPost, procs))*tp), nil
}

// PostAtEndEstimate models the makespan when no processor is reserved for
// post-processing and every post task runs after the mains (Improvement 2's
// selection model): ⌈nbtasks/nbmax⌉·TG + ⌈nbtasks/R⌉·TP.
func PostAtEndEstimate(app Application, t platform.Timing, procs, group int) (float64, error) {
	if err := app.Validate(); err != nil {
		return 0, err
	}
	tg, err := t.MainSeconds(group)
	if err != nil {
		return 0, err
	}
	if procs < group {
		return 0, fmt.Errorf("core: %d processors cannot host one group of %d", procs, group)
	}
	nbmax := procs / group
	if nbmax > app.Scenarios {
		nbmax = app.Scenarios
	}
	nbtasks := app.Tasks()
	ms := float64(float64(ceilDiv(nbtasks, nbmax)) * tg)
	if tp := t.PostSeconds(); tp > 0 {
		ms += float64(float64(ceilDiv(nbtasks, procs)) * tp)
	}
	return ms, nil
}

// ThroughputEstimate lower-bounds the makespan of an arbitrary (possibly
// unequal-sized) set of groups by steady-state throughput: nbtasks divided by
// the aggregate main-task rate Σ 1/T[gᵢ], plus one trailing post phase. The
// knapsack heuristic maximizes exactly this aggregate rate; the executor
// (internal/exec) provides the exact event-driven value.
func ThroughputEstimate(app Application, t platform.Timing, alloc Allocation) (float64, error) {
	if len(alloc.Groups) == 0 {
		return 0, fmt.Errorf("core: empty allocation")
	}
	rate := 0.0
	for _, g := range alloc.Groups {
		tg, err := t.MainSeconds(g)
		if err != nil {
			return 0, err
		}
		rate += 1 / tg
	}
	ms := float64(app.Tasks()) / rate
	if tp := t.PostSeconds(); tp > 0 {
		ms += tp
	}
	return ms, nil
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		panic("core: ceilDiv by non-positive divisor")
	}
	return (a + b - 1) / b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
