package grid

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/engine"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
)

// testConfig is sized for loopback tests: tight heartbeats so eviction fires
// within test patience, generous campaign timeout so loaded CI boxes pass.
func testConfig() Config {
	return Config{
		Addr:            "127.0.0.1:0",
		QueueCap:        64,
		Dispatchers:     4,
		PerSeDInFlight:  2,
		EvictAfter:      400 * time.Millisecond,
		RetryEvery:      10 * time.Millisecond,
		CampaignTimeout: 90 * time.Second,
	}
}

// startFabric wraps StartFabric with test cleanup and liveness wait; the
// fleet runs the paper's cluster profiles at 30 processors each, as the
// seed tests do.
func startFabric(t *testing.T, cfg Config, n int) *Fabric {
	t.Helper()
	f, err := StartFabric(cfg, n, 30, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if err := f.WaitAlive(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return f
}

// verifyReports checks every chunk report of a campaign against the serial
// evaluation of the same (cluster, count) and the campaign invariants.
func verifyReports(t *testing.T, f *Fabric, app core.Application, heuristic string, res *diet.CampaignResult) {
	t.Helper()
	v, err := NewVerifier(f.Clusters, heuristic)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(app, res); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignMatchesDirectProtocol(t *testing.T) {
	f := startFabric(t, testConfig(), 3)
	app := core.Application{Scenarios: 6, Months: 24}
	client := &Client{Addr: f.Sched.Addr()}
	res, err := client.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	verifyReports(t, f, app, core.NameKnapsack, res)

	// The campaign must land on exactly the repartition and makespan the
	// in-process computation over the same clusters gives (clusters in name
	// order, as the scheduler sorts them).
	names := make([]string, 0, len(f.Clusters))
	for name := range f.Clusters {
		names = append(names, name)
	}
	sort.Strings(names)
	perf := make([][]float64, len(names))
	for i, name := range names {
		cl := f.Clusters[name]
		vec, err := engine.PerformanceVector(engine.DES{}, app, cl, core.Knapsack{}, engine.Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		perf[i] = vec
	}
	want, err := core.Repartition(perf)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(f.Clusters, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	direct := 0.0
	for i, name := range names {
		if want.Counts[i] == 0 {
			continue
		}
		ms, err := v.SerialMakespan(name, want.Counts[i], app.Months)
		if err != nil {
			t.Fatal(err)
		}
		if ms > direct {
			direct = ms
		}
	}
	if math.Float64bits(res.Makespan) != math.Float64bits(direct) {
		t.Fatalf("daemon makespan %g != direct protocol %g", res.Makespan, direct)
	}
}

// TestConcurrentCampaignsWithSeDFailure is the end-to-end gauntlet: 50
// concurrent campaigns against 3 SeDs with one daemon killed mid-run. Every
// campaign must complete and every chunk report must be bit-identical to a
// serial evaluation.
func TestConcurrentCampaignsWithSeDFailure(t *testing.T) {
	f := startFabric(t, testConfig(), 3)
	const campaigns = 50
	app := core.Application{Scenarios: 4, Months: 12}

	var once sync.Once
	kill := func() {
		once.Do(func() {
			// Silent death of the fastest cluster's daemon — the one that
			// always holds the largest scenario share: the listener closes
			// and the heartbeats stop.
			f.SeDs[0].Close()
		})
	}

	type outcome struct {
		res *diet.CampaignResult
		err error
	}
	results := make(chan outcome, campaigns)
	var wg sync.WaitGroup
	for i := 0; i < campaigns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == campaigns/3 {
				kill()
			}
			// Back off and resubmit while the admission queue is full.
			client := &Client{Addr: f.Sched.Addr()}
			deadline := time.Now().Add(60 * time.Second)
			res, err := client.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
			for errors.Is(err, ErrRejected) && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
				res, err = client.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
			}
			results <- outcome{res: res, err: err}
		}(i)
	}
	wg.Wait()
	close(results)

	done := 0
	for o := range results {
		if o.err != nil {
			t.Fatalf("campaign failed: %v", o.err)
		}
		verifyReports(t, f, app, core.NameKnapsack, o.res)
		done++
	}
	if done != campaigns {
		t.Fatalf("%d campaigns completed, want %d", done, campaigns)
	}
	stats := f.Sched.Stats()
	if stats.Completed != campaigns {
		t.Fatalf("scheduler counted %d completions, want %d", stats.Completed, campaigns)
	}
	if stats.Failed != 0 {
		t.Fatalf("scheduler counted %d failures, want 0", stats.Failed)
	}
	// The killed daemon must be out of the pool by now.
	for _, sd := range stats.SeDs {
		if sd.Addr == f.SeDs[0].Addr() && sd.Alive {
			t.Fatalf("killed SeD %s still alive in %+v", sd.Cluster, stats.SeDs)
		}
	}
}

func TestAdmissionControlBoundsQueue(t *testing.T) {
	cfg := testConfig()
	cfg.QueueCap = 3
	cfg.Dispatchers = 1
	// No SeD: the dispatcher spins on its head-of-line campaign, so the
	// queue fills deterministically behind it.
	sched, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	client := &Client{Addr: sched.Addr()}
	app := core.Application{Scenarios: 2, Months: 2}

	if _, err := submit(t, client, app, core.NameBasic); err != nil {
		t.Fatal(err)
	}
	// Let the lone dispatcher take the head campaign off the queue.
	deadline := time.Now().Add(2 * time.Second)
	for sched.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never picked up the first campaign")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < cfg.QueueCap; i++ {
		if _, err := submit(t, client, app, core.NameBasic); err != nil {
			t.Fatalf("submission %d rejected with queue not full: %v", i, err)
		}
	}
	_, err = submit(t, client, app, core.NameBasic)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("submission beyond QueueCap not rejected: %v", err)
	}
	if got := sched.Stats().Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	sched, err := Start(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	client := &Client{Addr: sched.Addr()}
	if _, err := submit(t, client, core.Application{}, core.NameBasic); err == nil {
		t.Fatal("invalid application accepted")
	}
	if _, err := submit(t, client, core.Application{Scenarios: 1, Months: 1}, "nope"); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
	if _, err := client.InfoContext(context.Background(), 999); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("unknown campaign id answered: %v", err)
	}
}

func TestHeartbeatEvictionAndRejoin(t *testing.T) {
	cfg := testConfig()
	cfg.EvictAfter = 150 * time.Millisecond
	f := startFabric(t, cfg, 1)
	sed := f.SeDs[0]

	sed.StopHeartbeats()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sd := f.Sched.Stats().SeDs
		if len(sd) == 1 && !sd[0].Alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("silent SeD never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := f.Sched.Stats().Evicted; got == 0 {
		t.Fatal("eviction counter not incremented")
	}

	// A fresh heartbeat rejoins the daemon; campaigns flow again.
	sed.StartHeartbeats(f.Sched.Addr(), 25*time.Millisecond)
	if err := f.WaitAlive(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	app := core.Application{Scenarios: 2, Months: 6}
	res, err := (&Client{Addr: f.Sched.Addr()}).RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	verifyReports(t, f, app, core.NameKnapsack, res)
}

// TestResultPolling covers the polling path: submit, poll the campaign's
// status by ID until done, then fetch the result by ID.
func TestResultPolling(t *testing.T) {
	f := startFabric(t, testConfig(), 2)
	client := &Client{Addr: f.Sched.Addr()}
	app := core.Application{Scenarios: 3, Months: 6}
	id, err := submit(t, client, app, core.NameRedistribute)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, err := client.InfoContext(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status == diet.CampaignDone {
			break
		}
		if info.Status == diet.CampaignFailed {
			t.Fatalf("campaign failed: %s", info.Err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck in %q", info.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, err := client.AttachContext(context.Background(), id, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	verifyReports(t, f, app, core.NameRedistribute, res)
}

// TestPerfVectorCacheWarms: the second identical campaign must not trigger
// new perf round trips (observable through timing is flaky; instead assert
// through the exported stats that both campaigns complete and the daemon
// still answers — the cache path is exercised by every repeated-shape test
// in this file; here we pin the truncation behaviour).
func TestPerfVectorTruncation(t *testing.T) {
	f := startFabric(t, testConfig(), 1)
	client := &Client{Addr: f.Sched.Addr()}
	// Big campaign first fills the cache with a long vector...
	big := core.Application{Scenarios: 5, Months: 6}
	resBig, err := client.RunContext(context.Background(), big, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	verifyReports(t, f, big, core.NameKnapsack, resBig)
	// ...the smaller one must reuse its prefix and still match serial runs.
	small := core.Application{Scenarios: 2, Months: 6}
	resSmall, err := client.RunContext(context.Background(), small, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	verifyReports(t, f, small, core.NameKnapsack, resSmall)
}

func TestSchedulerShutdownFailsWaiters(t *testing.T) {
	cfg := testConfig()
	cfg.Dispatchers = 1
	sched, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No SeDs: the campaign spins; Close must unblock the waiter.
	client := &Client{Addr: sched.Addr(), Timeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() {
		_, err := client.RunContext(context.Background(), core.Application{Scenarios: 1, Months: 1}, core.NameBasic, SubmitMeta{}, nil, nil)
		errCh <- err
	}()
	// Wait for the campaign to be running, then pull the plug.
	deadline := time.Now().Add(2 * time.Second)
	for sched.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("campaign never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := sched.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("waiter got a result from a dead scheduler")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still blocked after scheduler shutdown")
	}
}

func TestStatsTracksQueueHighWater(t *testing.T) {
	cfg := testConfig()
	cfg.Dispatchers = 1
	cfg.QueueCap = 8
	sched, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	client := &Client{Addr: sched.Addr()}
	for i := 0; i < 5; i++ {
		if _, err := submit(t, client, core.Application{Scenarios: 1, Months: 1}, core.NameBasic); err != nil {
			t.Fatal(err)
		}
	}
	if got := sched.Stats().MaxQueueDepth; got < 4 {
		t.Fatalf("max queue depth %d, want >= 4", got)
	}
}

func ExampleClient_RunContext() {
	sched, _ := Start(Config{Addr: "127.0.0.1:0"})
	defer sched.Close()
	cl := platform.ReferenceCluster(30)
	sed, _ := diet.StartSeD("127.0.0.1:0", cl, exec.Options{})
	defer sed.Close()
	sed.StartHeartbeats(sched.Addr(), 100*time.Millisecond)

	client := &Client{Addr: sched.Addr()}
	res, err := client.RunContext(context.Background(), core.Application{Scenarios: 2, Months: 6}, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.Status, len(res.Reports) > 0, res.Makespan > 0)
	// Output: done true true
}
