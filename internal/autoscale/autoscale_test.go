package autoscale

import (
	"context"
	"sync"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/grid"
)

// TestElasticBurstScalesUpAndDown is the subsystem's end-to-end contract: a
// burst of campaigns against a one-SeD fleet grows it toward Max, every
// campaign's chunks stay bit-identical to their serial replay (spawned
// clones included), no chunk is ever requeued by a scale-down, and once the
// burst drains the fleet shrinks back to Min with the clones deregistered.
func TestElasticBurstScalesUpAndDown(t *testing.T) {
	cfg := grid.Config{
		Addr:           "127.0.0.1:0",
		QueueCap:       256,
		Dispatchers:    2,
		PerSeDInFlight: 2,
		EvictAfter:     2 * time.Second,
	}
	f, err := grid.StartFabric(cfg, 1, 30, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if err := f.WaitAlive(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	ctl, err := Start(f.Sched, f.SeDs, Config{
		Min:            1,
		Max:            3,
		HeartbeatEvery: 10 * time.Millisecond,
		Speeds:         []float64{1.0, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctl.Close)

	// The burst: enough concurrent campaigns that two dispatchers keep a
	// queue of upQueue or more for several 10ms samples.
	const campaigns = 24
	app := core.Application{Scenarios: 30, Months: 600}
	client := &grid.Client{Addr: f.Sched.Addr()}
	results := make([]*diet.CampaignResult, campaigns)
	errs := make([]error, campaigns)
	var wg sync.WaitGroup
	for i := 0; i < campaigns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = client.RunContext(context.Background(), app, core.NameKnapsack, grid.SubmitMeta{}, nil, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
	}

	if ups := ctl.Counters().ScaleUps; ups < 1 {
		t.Fatalf("burst never scaled the fleet up (scale-ups %d)", ups)
	}

	// Scale-down: the idle fleet must fall back to Min, the drained clones
	// deregistered, with zero chunk requeues along the way.
	deadline := time.Now().Add(20 * time.Second)
	for {
		cs := ctl.Counters()
		if cs.FleetSize == 1 && cs.Draining == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never shrank back: %+v", cs)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cs := ctl.Counters()
	if cs.ScaleDowns < 1 {
		t.Fatalf("fleet shrank without a counted scale-down: %+v", cs)
	}
	st := f.Sched.Stats()
	if st.Requeues != 0 {
		t.Fatalf("scale-down requeued %d chunks, want 0", st.Requeues)
	}
	for _, sd := range st.SeDs {
		if sd.Cluster != f.SeDs[0].Cluster().Name {
			t.Fatalf("drained clone %q still registered", sd.Cluster)
		}
	}

	// Bit-identity across the whole elastic run: every chunk — including
	// those served by spawned, half-speed clones — replays exactly on the
	// base profiles.
	v, err := grid.NewVerifier(f.Clusters, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if err := v.Verify(app, res); err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
	}
}

// TestDrainWithChunkInFlightRequeuesNothing: a scale-down that starts while
// the spawned SeD is executing a chunk lets that chunk finish and bank — no
// requeue — and only then deregisters the SeD. The burst test's drains land
// after the burst, on idle SeDs, so this one drives the controller by hand:
// it has no sampler loop, so the policy never acts on its own, and the test
// reaps the drained SeD itself.
func TestDrainWithChunkInFlightRequeuesNothing(t *testing.T) {
	f, err := grid.StartFabric(grid.Config{
		Addr:           "127.0.0.1:0",
		Dispatchers:    2,
		PerSeDInFlight: 2,
		EvictAfter:     2 * time.Second,
	}, 1, 30, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if err := f.WaitAlive(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	ctl, err := attach(f.Sched, f.SeDs, Config{
		Min:            1,
		Max:            2,
		HeartbeatEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctl.Close)
	ctl.spawnOne()
	ctl.mu.Lock()
	clone := ctl.spawned[0].sed
	ctl.mu.Unlock()

	// One campaign first, so both performance vectors are cached and
	// whatever the clone holds in flight afterwards is a chunk.
	app := core.Application{Scenarios: 30, Months: 1200}
	client := &grid.Client{Addr: f.Sched.Addr()}
	if _, err := client.RunContext(context.Background(), app, core.NameKnapsack, grid.SubmitMeta{}, nil, nil); err != nil {
		t.Fatal(err)
	}
	const campaigns = 8
	results := make([]*diet.CampaignResult, campaigns)
	errs := make([]error, campaigns)
	var wg sync.WaitGroup
	for i := 0; i < campaigns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = client.RunContext(context.Background(), app, core.NameKnapsack, grid.SubmitMeta{}, nil, nil)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for clone.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the spawned SeD never received a chunk")
		}
		time.Sleep(100 * time.Microsecond)
	}
	ctl.drainOne()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
	}

	for ctl.Counters().ScaleDowns == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("drained SeD never deregistered: %+v", ctl.Counters())
		}
		time.Sleep(10 * time.Millisecond)
		st := f.Sched.Stats()
		ctl.reapDrained(&st)
	}
	if rq := f.Sched.Stats().Requeues; rq != 0 {
		t.Fatalf("draining with a chunk in flight requeued %d chunks, want 0", rq)
	}
	v, err := grid.NewVerifier(f.Clusters, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if err := v.Verify(app, res); err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
	}
}
