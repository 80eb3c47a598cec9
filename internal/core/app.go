// Package core implements the paper's contribution: the analytical makespan
// model for the fused two-task application (equations 1–5), the basic
// resource-grouping heuristic and its three improvements (idle-resource
// redistribution, all-resources-to-main, knapsack grouping), and the
// heterogeneous-grid adaptation (per-cluster performance vectors plus the
// greedy scenario repartition of Algorithm 1).
package core

import (
	"errors"
	"fmt"

	"oagrid/internal/platform"
)

// Application describes one Ocean-Atmosphere experiment in the simplified
// model of the paper's §4.1: NS independent scenarios, each a chain of NM
// monthly simulations, where each month is one moldable main task followed by
// one single-processor post task.
type Application struct {
	Scenarios int // NS: independent simulations run concurrently
	Months    int // NM: months per scenario (1800 for the 150-year study)
}

// Default returns the experiment configuration of the paper's evaluation:
// around 10 scenarios of 150 years (1800 months).
func Default() Application {
	return Application{Scenarios: 10, Months: 1800}
}

// Tasks returns nbtasks = NS × NM, the number of main (and of post) tasks.
func (a Application) Tasks() int { return a.Scenarios * a.Months }

// Validate checks the experiment is non-degenerate.
func (a Application) Validate() error {
	if a.Scenarios <= 0 {
		return fmt.Errorf("core: need at least one scenario, got %d", a.Scenarios)
	}
	if a.Months <= 0 {
		return fmt.Errorf("core: need at least one month per scenario, got %d", a.Months)
	}
	return nil
}

// Allocation is a division of a cluster's R processors into disjoint
// main-task groups plus a pool of post-processing processors. It is the
// output of every heuristic and the input of the executor.
type Allocation struct {
	// Groups holds the processor count of each main-task group, at most one
	// group per scenario. Order is not significant; heuristics emit
	// descending sizes.
	Groups []int
	// PostProcs is the number of processors dedicated to post tasks. Any
	// processor of the cluster also absorbs post tasks once main tasks no
	// longer need it (see internal/exec).
	PostProcs int
	// Heuristic records which planner produced the allocation.
	Heuristic string
}

// UsedProcs returns the total processors claimed by the allocation.
func (al Allocation) UsedProcs() int {
	n := al.PostProcs
	for _, g := range al.Groups {
		n += g
	}
	return n
}

// Validate checks the allocation against the application, the timing model's
// moldable range and the cluster size.
func (al Allocation) Validate(app Application, t platform.Timing, procs int) error {
	if err := app.Validate(); err != nil {
		return err
	}
	if t == nil {
		return errors.New("core: nil timing model")
	}
	if len(al.Groups) == 0 {
		return errors.New("core: allocation has no main-task group")
	}
	if len(al.Groups) > app.Scenarios {
		return fmt.Errorf("core: %d groups exceed the %d concurrently runnable scenarios",
			len(al.Groups), app.Scenarios)
	}
	lo, hi := t.Range()
	for i, g := range al.Groups {
		if g < lo || g > hi {
			return fmt.Errorf("core: group %d has %d processors, outside moldable range [%d,%d]", i, g, lo, hi)
		}
	}
	if al.PostProcs < 0 {
		return fmt.Errorf("core: negative post-processing pool %d", al.PostProcs)
	}
	if used := al.UsedProcs(); used > procs {
		return fmt.Errorf("core: allocation uses %d processors on a %d-processor cluster", used, procs)
	}
	return nil
}

// String renders the allocation compactly, e.g. "knapsack: 3×8 + 4×7, post=1".
func (al Allocation) String() string {
	if len(al.Groups) == 0 {
		return fmt.Sprintf("%s: (empty)", al.Heuristic)
	}
	out := fmt.Sprintf("%s: ", al.Heuristic)
	run, size := 0, al.Groups[0]
	flush := func() {
		if run > 0 {
			if out[len(out)-2:] != ": " {
				out += " + "
			}
			out += fmt.Sprintf("%d×%d", run, size)
		}
	}
	for _, g := range al.Groups {
		if g == size {
			run++
			continue
		}
		flush()
		run, size = 1, g
	}
	flush()
	out += fmt.Sprintf(", post=%d", al.PostProcs)
	return out
}
