package grid

import (
	"context"
	"math"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
)

// startSpeedPair starts a scheduler plus two SeDs serving the same base
// profile under distinct names, the second at the given speed factor.
func startSpeedPair(t *testing.T, speed float64) (*Scheduler, map[string]*platform.Cluster) {
	t.Helper()
	sched, err := Start(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	proto := platform.FiveClusters()[0]
	proto.Procs = 30
	clusters := map[string]*platform.Cluster{}
	for i, name := range []string{"alpha", "beta"} {
		cl := *proto
		cl.Name = name
		s := 1.0
		if i == 1 {
			s = speed
		}
		sed, err := diet.StartSeDSpeed("127.0.0.1:0", &cl, exec.Options{}, s)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sed.Close() })
		sed.StartHeartbeats(sched.Addr(), 50*time.Millisecond)
		clusters[name] = &cl
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		alive := 0
		for _, sd := range sched.Stats().SeDs {
			if sd.Alive {
				alive++
			}
		}
		if alive == 2 {
			return sched, clusters
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 2 SeDs alive", alive)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSpeedAwarePlacement pins the heterogeneous-fleet contract: a SeD
// advertising half the reference speed receives proportionally smaller
// chunks (identical hardware otherwise), while every chunk report stays
// bit-identical to its serial replay on the base profile — the speed factor
// shifts placement, never execution.
func TestSpeedAwarePlacement(t *testing.T) {
	sched, clusters := startSpeedPair(t, 0.5)
	app := core.Application{Scenarios: 30, Months: 12}
	client := &Client{Addr: sched.Addr()}
	res, err := client.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	share := map[string]int{}
	for _, rep := range res.Reports {
		share[rep.Cluster] += rep.Scenarios
	}
	if share["alpha"]+share["beta"] != app.Scenarios {
		t.Fatalf("scenario accounting: alpha %d + beta %d != %d", share["alpha"], share["beta"], app.Scenarios)
	}
	// A half-speed daemon on otherwise identical hardware should carry
	// about a third of the work (throughput ratio 2:1). Generous bounds:
	// the repartition is makespan-minimizing over an Amdahl profile, not a
	// linear split.
	frac := float64(share["beta"]) / float64(app.Scenarios)
	if frac < 0.15 || frac > 0.45 {
		t.Fatalf("half-speed SeD got %d of %d scenarios (%.0f%%), want roughly a third", share["beta"], app.Scenarios, 100*frac)
	}
	if share["beta"] >= share["alpha"] {
		t.Fatalf("half-speed SeD out-placed the reference daemon: beta %d >= alpha %d", share["beta"], share["alpha"])
	}

	// The speed factor must not leak into execution: every chunk replays
	// bit-identically on the base profile.
	v, err := NewVerifier(clusters, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(app, res); err != nil {
		t.Fatal(err)
	}

	// Determinism across runs: the same campaign on the same fleet lands on
	// the identical placement and bitwise-equal makespan.
	res2, err := client.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Makespan) != math.Float64bits(res2.Makespan) {
		t.Fatalf("heterogeneous placement is not deterministic: %g vs %g", res.Makespan, res2.Makespan)
	}
}

// TestRegisterInvalidatesVectorCache pins the capability-change fix: a
// cached performance vector must not survive the daemon re-advertising a
// different address, processor count, or speed factor.
func TestRegisterInvalidatesVectorCache(t *testing.T) {
	sched, err := Start(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })

	info := diet.SeDInfo{Cluster: "c", Addr: "127.0.0.1:1111", Procs: 30}
	seed := func() {
		t.Helper()
		sched.register(info, 0, 1.0, false)
		sched.mu.Lock()
		sched.vectors["c"] = map[vecKey][]float64{{months: 12, heuristic: "knapsack"}: {1, 2, 3, 4}}
		sched.mu.Unlock()
	}
	cached := func() int {
		sched.mu.Lock()
		defer sched.mu.Unlock()
		return len(sched.vectors["c"])
	}

	seed()
	sched.register(info, 0, 1.0, false)
	if cached() != 1 {
		t.Fatal("an unchanged heartbeat dropped the vector cache")
	}
	sched.register(info, 0, 0.5, false)
	if cached() != 0 {
		t.Fatal("a speed change kept the stale vector cache")
	}

	seed()
	sched.register(diet.SeDInfo{Cluster: "c", Addr: "127.0.0.1:2222", Procs: 30}, 0, 1.0, false)
	if cached() != 0 {
		t.Fatal("an address change kept the stale vector cache")
	}

	info = diet.SeDInfo{Cluster: "c", Addr: "127.0.0.1:2222", Procs: 30}
	seed()
	sched.register(diet.SeDInfo{Cluster: "c", Addr: "127.0.0.1:2222", Procs: 64}, 0, 1.0, false)
	if cached() != 0 {
		t.Fatal("a processor-count change kept the stale vector cache")
	}
}

// TestDrainExcludesAndDeregisters pins the drain state machine at the
// scheduler: a draining daemon drops out of new snapshots immediately,
// deregistration refuses while a lease is held, and succeeds once released.
func TestDrainExcludesAndDeregisters(t *testing.T) {
	sched, err := Start(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })

	a := diet.SeDInfo{Cluster: "a", Addr: "127.0.0.1:1111", Procs: 30}
	b := diet.SeDInfo{Cluster: "b", Addr: "127.0.0.1:2222", Procs: 30}
	sched.register(a, 0, 1.0, false)
	sched.register(b, 0, 1.0, false)

	refs := sched.aliveSeDs()
	if len(refs) != 2 {
		t.Fatalf("got %d dispatchable SeDs, want 2", len(refs))
	}
	// Drain lands mid-round: the held lease must block deregistration.
	sched.register(b, 0, 1.0, true)
	if sched.DeregisterSeD("b", b.Addr) {
		t.Fatal("deregistered a SeD while a round still held its lease")
	}
	second := sched.aliveSeDs()
	if len(second) != 1 || second[0].info.Cluster != "a" {
		t.Fatalf("draining SeD still dispatchable: snapshot %+v, want just a", second)
	}
	sched.releaseSeDs(second)
	sched.releaseSeDs(refs)
	if !sched.DeregisterSeD("b", b.Addr) {
		t.Fatal("deregistration refused after the last lease was released")
	}
	// A straggling draining beat must not resurrect the entry.
	sched.register(b, 0, 1.0, true)
	for _, sd := range sched.Stats().SeDs {
		if sd.Cluster == "b" {
			t.Fatal("a post-deregister draining beat resurrected the SeD")
		}
	}
	// Deregistering a live, non-draining daemon must refuse.
	if sched.DeregisterSeD("a", a.Addr) {
		t.Fatal("deregistered a daemon that never drained")
	}
}
