package grid

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/exec"
)

// patientConfig is testConfig with an eviction deadline no test outlives:
// a SeD leaves the pool only when an exchange with it fails, so the tests
// below see the transport's verdicts and not the heartbeat's.
func patientConfig() Config {
	cfg := testConfig()
	cfg.EvictAfter = time.Minute
	return cfg
}

// runVerified runs one campaign on a client of its own and verifies it.
func runVerified(t *testing.T, f *Fabric, app core.Application) *diet.CampaignResult {
	t.Helper()
	c := &Client{Addr: f.Sched.Addr()}
	defer c.Close()
	return runVerifiedOn(t, f, c, app)
}

// runVerifiedOn runs one campaign on c and verifies its result.
func runVerifiedOn(t *testing.T, f *Fabric, c *Client, app core.Application) *diet.CampaignResult {
	t.Helper()
	res, err := c.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	verifyReports(t, f, app, core.NameKnapsack, res)
	return res
}

// TestDialsIndependentOfCampaignCount: on a 3-SeD fabric no dial count has a
// term in the number of campaigns. The scheduler's is bounded by the idle
// cap per SeD; a client's campaign streams and control requests ride its
// kept-alive connections, so 200 campaigns and 200 Info calls through one
// client cost the whole process at most the client's idle cap in dials; and
// heartbeats ride one connection per SeD.
func TestDialsIndependentOfCampaignCount(t *testing.T) {
	cfg := patientConfig()
	f := startFabric(t, cfg, 3)
	app := core.Application{Scenarios: 4, Months: 12}
	c := &Client{Addr: f.Sched.Addr()}
	defer c.Close()
	runVerifiedOn(t, f, c, app) // every SeD dialled at least once: vectors
	before, reusedBefore := f.Sched.transport.Dials(), f.Sched.transport.Reused()
	wireBefore := diet.WireStats()
	const campaigns = 200
	for i := 0; i < campaigns; i++ {
		res := runVerifiedOn(t, f, c, app)
		if _, err := c.InfoContext(context.Background(), res.ID); err != nil {
			t.Fatal(err)
		}
	}
	dials, reused := f.Sched.transport.Dials()-before, f.Sched.transport.Reused()-reusedBefore
	if limit := uint64(3 * cfg.PerSeDInFlight); dials > limit {
		t.Fatalf("%d campaigns cost the scheduler %d dials, want at most %d", campaigns, dials, limit)
	}
	if reused < campaigns {
		t.Fatalf("%d campaigns reused a connection %d times, want at least one exec each", campaigns, reused)
	}
	if d := diet.WireStats().Dials - wireBefore.Dials; d > clientIdlePerPeer {
		t.Fatalf("%d campaigns and %d Info calls through one client cost the process %d dials, want at most %d",
			campaigns, campaigns, d, clientIdlePerPeer)
	}

	// With no campaign running only heartbeats touch the wire: over five
	// intervals and more, at most one new connection per SeD.
	wire := diet.WireStats()
	time.Sleep(6 * 50 * time.Millisecond)
	after := diet.WireStats()
	if d := after.Dials - wire.Dials; d > 3 {
		t.Fatalf("heartbeats alone dialled %d times over six intervals, want at most 3", d)
	}
	if after.Reused == wire.Reused {
		t.Fatal("no heartbeat reused its connection")
	}
}

// TestClosedSeDAnswersNothing: the scheduler holds kept-alive connections to
// a SeD; the SeD is closed. The scheduler's next exchange with it fails at
// once — on the pooled connection, then on the redial — the chunk is requeued
// onto the survivors, the result verifies, and the closed daemon's handler is
// never entered again.
func TestClosedSeDAnswersNothing(t *testing.T) {
	f := startFabric(t, patientConfig(), 3)
	app := core.Application{Scenarios: 6, Months: 24}
	runVerified(t, f, app)
	runVerified(t, f, app)
	victim := f.SeDs[0]
	served := victim.Served()
	if served == 0 || f.Sched.transport.Reused() == 0 {
		t.Fatalf("warm-up: victim served %d requests, scheduler reused %d connections", served, f.Sched.transport.Reused())
	}
	victim.Close()

	start := time.Now()
	res := runVerified(t, f, app)
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("campaign over a closed SeD took %v: the dead connection was waited out, not failed", took)
	}
	if res.Requeues != 1 {
		t.Fatalf("campaign requeued %d chunks, want the victim's one", res.Requeues)
	}
	for _, rep := range res.Reports {
		if rep.Cluster == victim.Cluster().Name {
			t.Fatalf("closed SeD %s reported a chunk", rep.Cluster)
		}
	}
	if victim.Served() != served || victim.InFlight() != 0 {
		t.Fatalf("closed SeD served %d more requests (%d in flight)", victim.Served()-served, victim.InFlight())
	}
}

// TestClosedSchedulerAnswersNothing: a SeD's heartbeats ride one kept-alive
// connection; once the scheduler is closed, no beat on it is served.
func TestClosedSchedulerAnswersNothing(t *testing.T) {
	f := startFabric(t, patientConfig(), 1)
	name := f.SeDs[0].Cluster().Name
	lastBeat := func() time.Time {
		f.Sched.mu.Lock()
		defer f.Sched.mu.Unlock()
		return f.Sched.seds[name].lastBeat
	}
	first := lastBeat()
	deadline := time.Now().Add(5 * time.Second)
	for !lastBeat().After(first) { // beats are landing
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat after registration")
		}
		time.Sleep(10 * time.Millisecond)
	}
	f.Sched.Close()
	closedAt := lastBeat()
	time.Sleep(6 * 50 * time.Millisecond)
	if got := lastBeat(); !got.Equal(closedAt) {
		t.Fatalf("closed scheduler registered a heartbeat %v after Close", got.Sub(closedAt))
	}
}

// TestStalePooledConnRedials: a SeD restarts on its address between two
// campaigns, which kills the connections the scheduler kept to the old
// process. The next campaign costs exactly one redial — no eviction, no
// requeue.
func TestStalePooledConnRedials(t *testing.T) {
	f := startFabric(t, patientConfig(), 3)
	app := core.Application{Scenarios: 6, Months: 24}
	runVerified(t, f, app)
	runVerified(t, f, app)

	old := f.SeDs[0]
	addr := old.Addr()
	old.Close()
	var restarted *diet.SeD
	var err error
	for i := 0; i < 50; i++ {
		if restarted, err = diet.StartSeD(addr, old.Cluster(), exec.Options{}); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	f.SeDs[0] = restarted // closed with the fabric
	restarted.StartHeartbeats(f.Sched.Addr(), 50*time.Millisecond)

	stats := f.Sched.Stats()
	dials := f.Sched.transport.Dials()
	res := runVerified(t, f, app)
	if res.Requeues != 0 {
		t.Fatalf("campaign after the restart requeued %d chunks", res.Requeues)
	}
	after := f.Sched.Stats()
	if after.Evicted != stats.Evicted || after.Requeues != stats.Requeues {
		t.Fatalf("restart read as a death: evicted %d→%d, requeues %d→%d", stats.Evicted, after.Evicted, stats.Requeues, after.Requeues)
	}
	// Same shape, cached vectors: the campaign's one exchange with the
	// restarted SeD is its exec, on a stale connection, redialled once.
	if d := f.Sched.transport.Dials() - dials; d != 1 {
		t.Fatalf("campaign after the restart cost %d dials, want exactly the one redial", d)
	}
	if restarted.Served() != 1 {
		t.Fatalf("restarted SeD served %d requests, want the one exec", restarted.Served())
	}
}

// TestCancelledExchangeNotPooled: a campaign is cancelled while its exec is
// in flight, which aborts the exchange by forcing the connection's deadline
// into the past. That connection must be closed, not pooled: the 50
// campaigns that follow all succeed, on one fresh connection.
func TestCancelledExchangeNotPooled(t *testing.T) {
	cfg := patientConfig()
	cfg.Dispatchers = 1
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	g := startGateSeD(t, s.Addr())
	waitAliveAddr(t, s.Addr(), 1, 10*time.Second)
	c := &Client{Addr: s.Addr(), Timeout: time.Minute}
	app := core.Application{Scenarios: 2, Months: 6}

	run := func() error {
		errc := make(chan error, 1)
		go func() {
			_, err := c.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
			errc <- err
		}()
		g.nextExec(t)
		g.release <- struct{}{}
		return <-errc
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	if d := s.transport.Dials(); d != 1 {
		t.Fatalf("warm-up campaign cost %d dials, want 1 (perf dials, exec reuses)", d)
	}

	idc := make(chan uint64, 1)
	errc := make(chan error, 1)
	go func() {
		_, err := c.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, func(id uint64) { idc <- id }, nil)
		errc <- err
	}()
	id := <-idc
	g.nextExec(t) // the exec is parked at the gate, on the pooled connection
	if status, err := c.CancelContext(context.Background(), id); err != nil || status != diet.CampaignCancelled {
		t.Fatalf("cancel: %q, %v", status, err)
	}
	if err := <-errc; !errors.Is(err, ErrCampaignCancelled) {
		t.Fatalf("cancelled campaign resolved with %v", err)
	}
	g.release <- struct{}{} // the abandoned handler answers into a closed connection

	for i := 0; i < 50; i++ {
		if err := run(); err != nil {
			t.Fatalf("campaign %d after the cancel: %v", i, err)
		}
	}
	if d := s.transport.Dials(); d != 2 {
		t.Fatalf("%d dials in all, want 2: the aborted connection is replaced once and never reused", d)
	}
}

// TestFabricCloseLeavesNoGoroutines: closing a fabric that served campaigns
// over kept-alive connections winds down every serve loop on both sides —
// the scheduler's and the SeDs' — and leaves no pool timer behind.
func TestFabricCloseLeavesNoGoroutines(t *testing.T) {
	settled := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			time.Sleep(20 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				break
			}
			n = m
		}
		return n
	}
	before := settled()
	f, err := StartFabric(testConfig(), 3, 30, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WaitAlive(3, 5*time.Second); err != nil {
		f.Close()
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		runVerified(t, f, core.Application{Scenarios: 4, Months: 12})
	}
	if runtime.NumGoroutine() <= before {
		t.Fatal("a running fabric holds no goroutines: the check below checks nothing")
	}
	f.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before the fabric, %d after Close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
