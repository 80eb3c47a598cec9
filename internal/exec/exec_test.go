package exec

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"oagrid/internal/core"
	"oagrid/internal/platform"
)

func mustPlan(t *testing.T, h core.Heuristic, app core.Application, tm platform.Timing, procs int) core.Allocation {
	t.Helper()
	al, err := h.Plan(app, tm, procs)
	if err != nil {
		t.Fatalf("%s plan: %v", h.Name(), err)
	}
	return al
}

func TestRunSmallTraceValid(t *testing.T) {
	app := core.Application{Scenarios: 3, Months: 4}
	ref := platform.ReferenceTiming()
	for _, h := range core.All() {
		al := mustPlan(t, h, app, ref, 26)
		res, err := Run(app, ref, 26, al, Options{RecordTrace: true})
		if err != nil {
			t.Fatalf("%s: run: %v", h.Name(), err)
		}
		if res.Trace == nil {
			t.Fatalf("%s: no trace recorded", h.Name())
		}
		if err := res.Trace.Validate(app.Scenarios, app.Months); err != nil {
			t.Fatalf("%s: invalid trace: %v", h.Name(), err)
		}
		if got := res.Trace.Makespan(); math.Abs(got-res.Makespan) > 1e-9 {
			t.Fatalf("%s: trace makespan %g != result makespan %g", h.Name(), got, res.Makespan)
		}
		if res.Utilization <= 0 || res.Utilization > 1+1e-9 {
			t.Fatalf("%s: utilization %g out of range", h.Name(), res.Utilization)
		}
	}
}

// TestWaveBound: for a uniform allocation the main phase must last exactly
// ceil(nbtasks/nbmax) waves of TG (the paper's equation 1), because the
// least-advanced policy never strands a runnable month.
func TestWaveBound(t *testing.T) {
	ref := platform.ReferenceTiming()
	cases := []struct {
		ns, nm, procs int
	}{
		{10, 12, 53},
		{10, 7, 53}, // nbused != 0
		{3, 5, 22},
		{7, 3, 44},
		{2, 9, 11},
	}
	for _, tc := range cases {
		app := core.Application{Scenarios: tc.ns, Months: tc.nm}
		al := mustPlan(t, core.Basic{}, app, ref, tc.procs)
		g := al.Groups[0]
		tg, err := ref.MainSeconds(g)
		if err != nil {
			t.Fatal(err)
		}
		nbmax := len(al.Groups)
		waves := (app.Tasks() + nbmax - 1) / nbmax
		want := float64(waves) * tg
		res, err := Run(app, ref, tc.procs, al, Options{})
		if err != nil {
			t.Fatalf("run %+v: %v", tc, err)
		}
		if math.Abs(res.MainsDone-want) > 1e-6 {
			t.Errorf("case %+v: mains finished at %g, want %d waves × %g = %g",
				tc, res.MainsDone, waves, tg, want)
		}
	}
}

// TestModelMatchesSimulation validates the analytical model (equations 1–5)
// against the event-driven executor over a sweep of cluster sizes: the main
// phase is exact and the post accounting agrees within a few post-task
// lengths, i.e. well under one percent of the makespan for realistic
// parameters.
func TestModelMatchesSimulation(t *testing.T) {
	ref := platform.ReferenceTiming()
	app := core.Application{Scenarios: 10, Months: 36}
	for procs := 11; procs <= 130; procs++ {
		al := mustPlan(t, core.Basic{}, app, ref, procs)
		model, err := core.UniformEstimate(app, ref, procs, al.Groups[0])
		if err != nil {
			t.Fatalf("R=%d: estimate: %v", procs, err)
		}
		res, err := Run(app, ref, procs, al, Options{})
		if err != nil {
			t.Fatalf("R=%d: run: %v", procs, err)
		}
		diff := math.Abs(model - res.Makespan)
		// The executor drains posts continuously while the model quantizes
		// them per wave; allow a few post-task lengths of slack.
		if slack := 4 * ref.PostSeconds(); diff > slack {
			t.Errorf("R=%d G=%d: model %.1f vs simulated %.1f (diff %.1f > %.1f)",
				procs, al.Groups[0], model, res.Makespan, diff, slack)
		}
		if rel := diff / res.Makespan; rel > 0.01 {
			t.Errorf("R=%d: relative model error %.4f exceeds 1%%", procs, rel)
		}
	}
}

// TestSimulationNeverBeatsThroughputBound: the executor can never finish the
// mains faster than the aggregate group throughput allows.
func TestSimulationNeverBeatsThroughputBound(t *testing.T) {
	ref := platform.ReferenceTiming()
	f := func(rRaw, nsRaw, nmRaw uint8) bool {
		procs := 11 + int(rRaw)%120
		app := core.Application{Scenarios: 1 + int(nsRaw)%10, Months: 1 + int(nmRaw)%20}
		for _, h := range core.All() {
			al, err := h.Plan(app, ref, procs)
			if err != nil {
				return false
			}
			res, err := Run(app, ref, procs, al, Options{})
			if err != nil {
				return false
			}
			rate := 0.0
			for _, g := range al.Groups {
				tg, err := ref.MainSeconds(g)
				if err != nil {
					return false
				}
				rate += 1 / tg
			}
			if res.MainsDone < float64(app.Tasks())/rate-1e-6 {
				return false
			}
			if res.Makespan < res.MainsDone {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestJitterDeterminism(t *testing.T) {
	app := core.Application{Scenarios: 4, Months: 8}
	ref := platform.ReferenceTiming()
	al := mustPlan(t, core.Knapsack{}, app, ref, 30)
	a, err := Run(app, ref, 30, al, Options{Jitter: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(app, ref, 30, al, Options{Jitter: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("same seed produced different makespans: %g vs %g", a.Makespan, b.Makespan)
	}
	c, err := Run(app, ref, 30, al, Options{Jitter: 0.1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan == c.Makespan {
		t.Fatalf("different seeds produced identical makespans %g", a.Makespan)
	}
	clean, err := Run(app, ref, 30, al, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(a.Makespan-clean.Makespan) / clean.Makespan; rel > 0.15 {
		t.Fatalf("10%% jitter moved makespan by %.1f%%", rel*100)
	}
}

func TestPoliciesAllComplete(t *testing.T) {
	app := core.Application{Scenarios: 5, Months: 6}
	ref := platform.ReferenceTiming()
	al := mustPlan(t, core.Basic{}, app, ref, 33)
	for _, p := range []Policy{LeastAdvanced, RoundRobin, MostAdvanced} {
		res, err := Run(app, ref, 33, al, Options{Policy: p, RecordTrace: true})
		if err != nil {
			t.Fatalf("policy %v: %v", p, err)
		}
		if err := res.Trace.Validate(app.Scenarios, app.Months); err != nil {
			t.Fatalf("policy %v: invalid trace: %v", p, err)
		}
	}
}

// TestNoIdleStealSlower: forbidding idle groups from absorbing post tasks can
// only lengthen (or preserve) the makespan.
func TestNoIdleStealSlower(t *testing.T) {
	app := core.Application{Scenarios: 10, Months: 7} // nbused != 0 exercises Rleft
	ref := platform.ReferenceTiming()
	al := mustPlan(t, core.Basic{}, app, ref, 53)
	def, err := Run(app, ref, 53, al, Options{})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Run(app, ref, 53, al, Options{NoIdleSteal: true})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Makespan < def.Makespan-1e-9 {
		t.Fatalf("NoIdleSteal makespan %g beat default %g", strict.Makespan, def.Makespan)
	}
}

func TestRunRejectsInvalidAllocation(t *testing.T) {
	app := core.Application{Scenarios: 2, Months: 2}
	ref := platform.ReferenceTiming()
	if _, err := Run(app, ref, 10, core.Allocation{Groups: []int{11, 11}}, Options{}); err == nil {
		t.Error("expected error for oversubscribed allocation")
	}
	if _, err := Run(app, ref, 10, core.Allocation{}, Options{}); err == nil {
		t.Error("expected error for empty allocation")
	}
}

// TestFairnessMetric: under the least-advanced policy the spread of scenario
// completion times is no larger than under most-advanced, which finishes
// scenarios sequentially.
func TestFairnessMetric(t *testing.T) {
	app := core.Application{Scenarios: 6, Months: 10}
	ref := platform.ReferenceTiming()
	al := mustPlan(t, core.Basic{}, app, ref, 26)
	spread := func(p Policy) float64 {
		res, err := Run(app, ref, 26, al, Options{Policy: p, RecordTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		last := make([]float64, app.Scenarios)
		for _, s := range res.Trace.Spans {
			if s.End > last[s.Scenario] {
				last[s.Scenario] = s.End
			}
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range last {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return hi - lo
	}
	if fair, unfair := spread(LeastAdvanced), spread(MostAdvanced); fair > unfair+1e-9 {
		t.Fatalf("least-advanced spread %g exceeds most-advanced spread %g", fair, unfair)
	}
}

// TestFailureInjection verifies the outage semantics: an outage before any
// work delays the whole schedule without losing work; an outage cutting a
// running main re-runs it; and the makespan never improves under failures.
func TestFailureInjection(t *testing.T) {
	app := core.Application{Scenarios: 3, Months: 4}
	ref := platform.ReferenceTiming()
	al := mustPlan(t, core.Basic{}, app, ref, 22)
	clean, err := Run(app, ref, 22, al, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Outage opening mid-task: the caught main re-runs.
	midOutage, err := Run(app, ref, 22, al, Options{
		RecordTrace: true,
		Failures:    []Failure{{Group: 0, At: 100, Duration: 500}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if midOutage.RestartedMains == 0 {
		t.Fatal("mid-task outage lost no main")
	}
	if midOutage.Makespan <= clean.Makespan {
		t.Fatalf("failures shortened the makespan: %g vs %g", midOutage.Makespan, clean.Makespan)
	}
	if err := midOutage.Trace.Validate(app.Scenarios, app.Months); err != nil {
		t.Fatalf("trace invalid under failures: %v", err)
	}

	// A zero-duration window is a no-op.
	noop, err := Run(app, ref, 22, al, Options{Failures: []Failure{{Group: 0, At: 100, Duration: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if noop.Makespan != clean.Makespan {
		t.Fatalf("zero-length outage changed the makespan: %g vs %g", noop.Makespan, clean.Makespan)
	}

	// An outage on every group at t=0 shifts the whole schedule without
	// losing work.
	var fs []Failure
	for i := range al.Groups {
		fs = append(fs, Failure{Group: i, At: 0, Duration: 1000})
	}
	shifted, err := Run(app, ref, 22, al, Options{Failures: fs})
	if err != nil {
		t.Fatal(err)
	}
	if shifted.RestartedMains != 0 {
		t.Fatalf("boot-time outage restarted %d mains", shifted.RestartedMains)
	}
	if math.Abs(shifted.Makespan-(clean.Makespan+1000)) > 1e-6 {
		t.Fatalf("boot-time outage shifted makespan to %g, want %g", shifted.Makespan, clean.Makespan+1000)
	}
}

// TestFailureEdgeCases: windows on unknown groups are ignored, overlapping
// windows compose, and chained outages push a task repeatedly.
func TestFailureEdgeCases(t *testing.T) {
	app := core.Application{Scenarios: 2, Months: 2}
	ref := platform.ReferenceTiming()
	al := mustPlan(t, core.Basic{}, app, ref, 11)
	clean, err := Run(app, ref, 11, al, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Failure on a group index that does not exist: no effect.
	ghost, err := Run(app, ref, 11, al, Options{Failures: []Failure{{Group: 99, At: 10, Duration: 1e6}}})
	if err != nil {
		t.Fatal(err)
	}
	if ghost.Makespan != clean.Makespan {
		t.Fatalf("ghost failure changed makespan: %g vs %g", ghost.Makespan, clean.Makespan)
	}
	// Two chained outages both catch re-runs of the first month.
	tg, err := ref.MainSeconds(al.Groups[0])
	if err != nil {
		t.Fatal(err)
	}
	chained, err := Run(app, ref, 11, al, Options{Failures: []Failure{
		{Group: 0, At: tg / 2, Duration: 100},
		{Group: 0, At: tg/2 + 100 + tg/2, Duration: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if chained.RestartedMains < 2 {
		t.Fatalf("chained outages restarted only %d mains", chained.RestartedMains)
	}
	if chained.Makespan <= clean.Makespan {
		t.Fatal("chained outages did not lengthen the run")
	}
}

// TestStickyDispatchPathology pins the finding of EXPERIMENTS.md: under the
// literal dispatch rule a heterogeneous allocation degrades because one
// scenario sticks to the slow group.
func TestStickyDispatchPathology(t *testing.T) {
	app := core.Application{Scenarios: 10, Months: 60}
	ref := platform.ReferenceTiming()
	al := mustPlan(t, core.Knapsack{}, app, ref, 53) // 8×6 + 1×5: one slow group
	def, err := Run(app, ref, 53, al, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sticky, err := Run(app, ref, 53, al, Options{StickyDispatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if rel := (sticky.Makespan - def.Makespan) / def.Makespan; rel < 0.02 {
		t.Fatalf("sticky dispatch only %.2f%% worse; the pathology should be visible", rel*100)
	}
}

// TestRunRejectsInvalidOptions: a jitter amplitude outside [0, 1] would give
// a task a negative (or NaN) duration and schedule its completion before it
// starts, and an endless failure window would end a caught main at +Inf;
// Run refuses both up front instead of panicking mid-run.
func TestRunRejectsInvalidOptions(t *testing.T) {
	app := core.Application{Scenarios: 4, Months: 12}
	ref := platform.ReferenceTiming()
	al := mustPlan(t, core.Knapsack{}, app, ref, 30)
	for _, amp := range []float64{1.5, math.NaN(), -0.1, math.Inf(1)} {
		opt := Options{Jitter: amp, Seed: 7}
		if opt.Validate() == nil {
			t.Errorf("jitter %g validated", amp)
		}
		if _, err := Run(app, ref, 30, al, opt); err == nil {
			t.Errorf("jitter %g: Run returned no error", amp)
		}
	}
	for _, amp := range []float64{0, 0.1, 1} {
		if _, err := Run(app, ref, 30, al, Options{Jitter: amp, Seed: 7}); err != nil {
			t.Errorf("jitter %g: %v", amp, err)
		}
	}
	for _, f := range []Failure{{At: 100, Duration: math.Inf(1)}, {At: math.NaN(), Duration: 10}} {
		if _, err := Run(app, ref, 30, al, Options{Failures: []Failure{f}}); err == nil {
			t.Errorf("failure %+v: Run returned no error", f)
		}
	}
}

// warmCost returns the mean allocations and bytes of one call of f, after a
// first call has warmed the engine pool. It skips the test under the race
// detector, whose sync.Pool drops a random quarter of what is put back.
func warmCost(t *testing.T, runs int, f func()) (allocs, bytes float64) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool drops pooled engines at random under -race")
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestRunAllocsBounded pins a warm run allocation-free: its state comes from
// the engine pool at its high-water mark, so an NS=10, NM=1200 knapsack run
// on 30 reference processors — whose post backlog alone is tens of
// kilobytes — allocates at most the boxing of its Timing argument, in count
// and in bytes.
func TestRunAllocsBounded(t *testing.T) {
	app := core.Application{Scenarios: 10, Months: 1200}
	ref := platform.ReferenceTiming()
	al := mustPlan(t, core.Knapsack{}, app, ref, 30)
	allocs, bytes := warmCost(t, 5, func() {
		if _, err := Run(app, ref, 30, al, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("per warm NM=1200 run: %v allocations, %v bytes", allocs, bytes)
	if allocs > 2 || bytes >= 1024 {
		t.Errorf("warm NM=1200 run allocates %v times, %v bytes: want ≤ 2 and < 1 KB", allocs, bytes)
	}
}

// BenchmarkRun is one SeD performance-vector entry's worth of executor work:
// NS=10, NM=420, knapsack on 30 reference processors.
func BenchmarkRun(b *testing.B) {
	app := core.Application{Scenarios: 10, Months: 420}
	ref := platform.ReferenceTiming()
	al, err := core.Knapsack{}.Plan(app, ref, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(app, ref, 30, al, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
