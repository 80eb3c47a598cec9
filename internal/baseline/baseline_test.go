package baseline

import (
	"testing"

	"oagrid/internal/core"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
)

// makespan replays al on the event-driven executor.
func makespan(t *testing.T, app core.Application, tm platform.Timing, procs int, al core.Allocation) float64 {
	t.Helper()
	res, err := exec.Run(app, tm, procs, al, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Makespan
}

func TestCPAPlansValidAllocations(t *testing.T) {
	app := core.Application{Scenarios: 10, Months: 24}
	ref := platform.ReferenceTiming()
	for procs := 11; procs <= 130; procs += 9 {
		al, err := (CPA{}).Plan(app, ref, procs)
		if err != nil {
			t.Fatalf("R=%d: %v", procs, err)
		}
		if err := al.Validate(app, ref, procs); err != nil {
			t.Fatalf("R=%d: invalid allocation %v: %v", procs, al, err)
		}
		if al.Heuristic != "cpa" {
			t.Fatalf("R=%d: heuristic label %q", procs, al.Heuristic)
		}
	}
	if _, err := (CPA{}).Plan(app, ref, 3); err == nil {
		t.Fatal("3-processor cluster accepted")
	}
}

// TestCPAIgnoresScenarioCap shows the paper's §3.2 objection concretely:
// CPA picks one allotment from a critical-path/area tradeoff that knows
// nothing about the NS concurrency cap or the leftover processors, so the
// knapsack heuristic never loses to it and wins clearly at awkward resource
// counts (where mixed group sizes exploit what a uniform allotment wastes).
func TestCPAIgnoresScenarioCap(t *testing.T) {
	app := core.Application{Scenarios: 10, Months: 24}
	ref := platform.ReferenceTiming()
	wins := 0
	for procs := 20; procs <= 120; procs += 3 {
		cpa, err := (CPA{}).Plan(app, ref, procs)
		if err != nil {
			t.Fatal(err)
		}
		knap, err := (core.Knapsack{}).Plan(app, ref, procs)
		if err != nil {
			t.Fatal(err)
		}
		msCPA := makespan(t, app, ref, procs, cpa)
		msKnap := makespan(t, app, ref, procs, knap)
		// Tolerate end-of-run post-drain micro effects (a post task or two);
		// anything bigger would be a planning defect.
		if msKnap > msCPA+2*ref.PostSeconds() {
			t.Errorf("R=%d: knapsack (%g) lost to CPA (%g, groups %v)", procs, msKnap, msCPA, cpa.Groups)
		}
		if msKnap < msCPA*(1-0.01) {
			wins++
		}
	}
	if wins < 5 {
		t.Fatalf("knapsack beat CPA by >1%% at only %d sweep points; expected a clear advantage", wins)
	}
}

func TestSequentialDAGsIsWorst(t *testing.T) {
	app := core.Application{Scenarios: 6, Months: 12}
	ref := platform.ReferenceTiming()
	procs := 44
	seq, err := (SequentialDAGs{}).Plan(app, ref, procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Groups) != 1 {
		t.Fatalf("sequential baseline built %d groups", len(seq.Groups))
	}
	msSeq := makespan(t, app, ref, procs, seq)
	for _, h := range core.All() {
		al, err := h.Plan(app, ref, procs)
		if err != nil {
			t.Fatal(err)
		}
		if ms := makespan(t, app, ref, procs, al); ms >= msSeq {
			t.Fatalf("%s (%g) did not beat one-DAG-at-a-time (%g)", h.Name(), ms, msSeq)
		}
	}
	if _, err := (SequentialDAGs{}).Plan(app, ref, 3); err == nil {
		t.Fatal("3-processor cluster accepted")
	}
}

// TestCPAAllotmentGrowsOnSmallClusters: with few processors the critical
// path dominates the estimate, so CPA grows the allotment above the minimum.
func TestCPAAllotmentGrowsOnSmallClusters(t *testing.T) {
	app := core.Application{Scenarios: 2, Months: 36}
	ref := platform.ReferenceTiming()
	al, err := (CPA{}).Plan(app, ref, 22)
	if err != nil {
		t.Fatal(err)
	}
	if al.Groups[0] <= platform.MinGroup {
		t.Fatalf("CPA stayed at the minimal allotment %v on a small cluster", al.Groups)
	}
}
