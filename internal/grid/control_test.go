package grid

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
)

// queueScheduler builds a bare scheduler — queue structures only, no
// listener or dispatchers — for exercising enqueue/dequeue directly.
func queueScheduler(cfg Config) *Scheduler {
	return &Scheduler{
		cfg:       cfg.withDefaults(),
		tokens:    make(chan struct{}, 1024),
		done:      make(chan struct{}),
		tenants:   make(map[string]*tenantState),
		lifecycle: lifecycle{campaigns: make(map[uint64]*campaign)},
	}
}

// push reserves the queue slots and enqueues like admit does, minus the
// admission control.
func (s *Scheduler) push(c *campaign) {
	if c.tenant == "" {
		c.tenant = tenantOf(c.labels)
	}
	if c.enqueuedAt.IsZero() {
		c.enqueuedAt = time.Now()
	}
	s.mu.Lock()
	s.queueLen++
	s.tenant(c.tenant).queued++
	s.tenant(c.tenant).admitted++
	s.enqueue(c)
	s.mu.Unlock()
}

// TestCampaignQueueOrder: within one tenant the queue pops by (priority
// desc, id asc) — higher priorities first, strict admission order within a
// priority.
func TestCampaignQueueOrder(t *testing.T) {
	app := core.Application{Scenarios: 1, Months: 1}
	s := queueScheduler(Config{})
	type in struct {
		id  uint64
		pri int
	}
	pushes := []in{{1, 0}, {2, 5}, {3, 0}, {4, 5}, {5, -3}, {6, 9}, {7, 0}}
	for _, p := range pushes {
		s.push(newCampaign(p.id, app, core.NameKnapsack, submitMeta{priority: p.pri}))
	}
	want := []uint64{6, 2, 4, 1, 3, 7, 5}
	for i, id := range want {
		c := s.dequeue()
		if c.id != id {
			t.Fatalf("pop %d returned campaign %d (priority %d), want %d", i, c.id, c.priority, id)
		}
	}
	if s.queueLen != 0 {
		t.Fatalf("queue still holds %d campaigns after draining", s.queueLen)
	}
}

// TestSchedulerCancelQueuedCampaign: a campaign cancelled while still
// queued never dispatches — the dispatcher pops the corpse and skips it —
// and later traffic keeps flowing.
func TestSchedulerCancelQueuedCampaign(t *testing.T) {
	// One dispatcher, held by an occupant whose chunk is parked at the gate
	// SeD, keeps the victim queued while the cancel lands.
	s, err := Start(Config{Addr: "127.0.0.1:0", Dispatchers: 1, EvictAfter: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	g := startGateSeD(t, s.Addr())
	waitAliveAddr(t, s.Addr(), 1, 10*time.Second)

	c := &Client{Addr: s.Addr(), Timeout: time.Minute}
	defer c.Close()
	occupant, err := submit(t, c, core.Application{Scenarios: 6, Months: 120}, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	g.nextExec(t) // the occupant holds the only dispatcher until released
	victim, err := submit(t, c, core.Application{Scenarios: 6, Months: 120}, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}

	status, err := c.CancelContext(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if status != diet.CampaignCancelled {
		t.Fatalf("cancel verdict %q, want cancelled", status)
	}
	info, err := c.InfoContext(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != diet.CampaignCancelled || info.Done != 0 {
		t.Fatalf("queued victim info %+v, want cancelled with no work done", info)
	}

	// The occupant and fresh traffic still complete.
	g.release <- struct{}{} // the occupant's chunk
	g.release <- struct{}{} // the fresh campaign's
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := c.AttachContext(ctx, occupant, nil, nil)
	if ctx.Err() != nil {
		t.Fatalf("occupant stuck: %v", err)
	}
	if err != nil || res.Status != diet.CampaignDone {
		t.Fatalf("occupant ended %+v: %v", res, err)
	}
	if _, err := c.RunContext(context.Background(), core.Application{Scenarios: 2, Months: 6}, core.NameKnapsack, SubmitMeta{}, nil, nil); err != nil {
		t.Fatalf("daemon unhealthy after queued cancel: %v", err)
	}
	stats := s.Stats()
	if stats.Cancelled != 1 {
		t.Fatalf("stats report %d cancelled campaigns, want 1", stats.Cancelled)
	}
}

// gateSeD is a scripted server daemon: performance vectors answer
// instantly with a synthetic monotone vector, but every exec request parks
// on a gate until the test releases it — so the test controls exactly when
// chunks are in flight and in what order the dispatcher serves campaigns.
type gateSeD struct {
	ln net.Listener
	// execArrived carries the scenario count of each exec request in
	// arrival order; campaigns are told apart by their distinct NS.
	execArrived chan int
	// release lets one parked exec answer per token.
	release chan struct{}
	stop    chan struct{}
}

func startGateSeD(t *testing.T, schedAddr string) *gateSeD {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	g := &gateSeD{
		ln:          ln,
		execArrived: make(chan int, 16),
		release:     make(chan struct{}, 16),
		stop:        make(chan struct{}),
	}
	go diet.Serve(ln, g.handle)
	go func() {
		for {
			_, _ = diet.RoundTrip(schedAddr, &diet.Request{Kind: diet.KindHeartbeat, Heartbeat: &diet.HeartbeatRequest{
				Cluster: "gate", Addr: ln.Addr().String(), Procs: 8,
			}})
			select {
			case <-g.stop:
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
	}()
	t.Cleanup(func() {
		close(g.stop)
		ln.Close()
	})
	return g
}

func (g *gateSeD) handle(req *diet.Request) *diet.Response {
	switch req.Kind {
	case diet.KindPerf:
		vec := make([]float64, req.Perf.Scenarios)
		for i := range vec {
			vec[i] = float64(i + 1)
		}
		return &diet.Response{Perf: &diet.PerfResponse{Cluster: "gate", Procs: 8, Vector: vec}}
	case diet.KindExec:
		g.execArrived <- len(req.Exec.ScenarioIDs)
		select {
		case <-g.release:
		case <-g.stop:
		}
		return &diet.Response{Exec: &diet.ExecResponse{
			Cluster:   "gate",
			Makespan:  float64(len(req.Exec.ScenarioIDs)),
			Scenarios: len(req.Exec.ScenarioIDs),
		}}
	default:
		return &diet.Response{Err: "gate SeD: unsupported " + req.Kind}
	}
}

// nextExec waits for the next exec arrival at the gate.
func (g *gateSeD) nextExec(t *testing.T) int {
	t.Helper()
	select {
	case n := <-g.execArrived:
		return n
	case <-time.After(20 * time.Second):
		t.Fatal("no exec request reached the gate SeD")
		return 0
	}
}

// waitStatus polls a campaign until it reaches the wanted status.
func waitStatus(t *testing.T, c *Client, id uint64, want string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		info, err := c.InfoContext(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %d stuck in %q, want %q", id, info.Status, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPriorityOrdersAdmission: with the single dispatcher pinned by an
// in-flight campaign, a higher-priority later submission is dispatched
// ahead of an earlier lower-priority one — observed deterministically as
// the order in which exec requests reach the gate SeD.
func TestPriorityOrdersAdmission(t *testing.T) {
	s, err := Start(Config{Addr: "127.0.0.1:0", Dispatchers: 1, EvictAfter: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	g := startGateSeD(t, s.Addr())
	waitAliveAddr(t, s.Addr(), 1, 10*time.Second)

	c := &Client{Addr: s.Addr(), Timeout: time.Minute}
	// Campaigns are told apart by NS: occupant 3, low 4, high 5.
	occupant, err := submit(t, c, core.Application{Scenarios: 3, Months: 6}, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	if n := g.nextExec(t); n != 3 {
		t.Fatalf("occupant dispatched %d scenarios, want 3", n)
	}
	// The dispatcher is now parked on the occupant's chunk; these two queue.
	low, err := submit(t, c, core.Application{Scenarios: 4, Months: 6}, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	highReq := &diet.Request{Version: diet.ProtocolVersion, Kind: diet.KindSubmit, Submit: &diet.SubmitRequest{
		Scenarios: 5, Months: 6, Heuristic: core.NameKnapsack, Priority: 9,
		Labels: map[string]string{"tier": "gold"}, Key: newKey(),
	}}
	resp, err := diet.RoundTrip(s.Addr(), highReq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Submit == nil || !resp.Submit.Accepted {
		t.Fatalf("high-priority submit not accepted: %+v", resp)
	}
	high := resp.Submit

	g.release <- struct{}{} // finish the occupant
	if n := g.nextExec(t); n != 5 {
		t.Fatalf("after the occupant, the dispatcher served %d scenarios, want the high-priority 5", n)
	}
	g.release <- struct{}{}
	if n := g.nextExec(t); n != 4 {
		t.Fatalf("after the high-priority campaign, the dispatcher served %d scenarios, want 4", n)
	}
	g.release <- struct{}{}

	for _, id := range []uint64{occupant, low, high.ID} {
		waitStatus(t, c, id, diet.CampaignDone)
	}
	// The submit options round-tripped into the control-plane view.
	info, err := c.InfoContext(context.Background(), high.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Priority != 9 || info.Labels["tier"] != "gold" {
		t.Fatalf("high-priority info %+v, want priority 9 and its labels", info)
	}
}

// TestCancelDiscardsInFlightChunk is the chunk-boundary guarantee,
// deterministically: a campaign whose only chunk is parked at the gate SeD
// is cancelled; the verdict returns, the chunk is then released — and its
// report must be discarded: no chunk frame on the stream, progress gauges
// frozen at zero, the connection closed with the cancelled verdict.
func TestCancelDiscardsInFlightChunk(t *testing.T) {
	s, err := Start(Config{Addr: "127.0.0.1:0", Dispatchers: 1, EvictAfter: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	g := startGateSeD(t, s.Addr())
	waitAliveAddr(t, s.Addr(), 1, 10*time.Second)

	c := &Client{Addr: s.Addr(), Timeout: time.Minute}
	idCh := make(chan uint64, 1)
	var mu sync.Mutex
	var stages []string
	errCh := make(chan error, 1)
	go func() {
		_, err := c.RunContext(context.Background(), core.Application{Scenarios: 4, Months: 6}, core.NameKnapsack, SubmitMeta{},
			func(id uint64) { idCh <- id },
			func(u *diet.ProgressUpdate) {
				mu.Lock()
				stages = append(stages, u.Stage)
				mu.Unlock()
			})
		errCh <- err
	}()
	id := <-idCh
	if n := g.nextExec(t); n != 4 {
		t.Fatalf("gate saw %d scenarios, want 4", n)
	}
	// The chunk is in flight. Cancel, then let it answer.
	status, err := c.CancelContext(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if status != diet.CampaignCancelled {
		t.Fatalf("cancel verdict %q", status)
	}
	g.release <- struct{}{}

	if err := <-errCh; !errors.Is(err, ErrCampaignCancelled) {
		t.Fatalf("stream resolved with %v, want ErrCampaignCancelled", err)
	}
	mu.Lock()
	for _, stage := range stages {
		if stage == diet.StageChunk {
			t.Fatal("a chunk frame followed the cancel verdict")
		}
	}
	mu.Unlock()
	// Gauges frozen at the claim: the released chunk was discarded.
	time.Sleep(200 * time.Millisecond)
	info, err := c.InfoContext(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != diet.CampaignCancelled || info.Done != 0 {
		t.Fatalf("cancelled campaign info %+v, want cancelled with nothing done", info)
	}
	// The daemon still serves new work through the same gate.
	fresh, err := submit(t, c, core.Application{Scenarios: 2, Months: 6}, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	if n := g.nextExec(t); n != 2 {
		t.Fatalf("post-cancel campaign dispatched %d scenarios, want 2", n)
	}
	g.release <- struct{}{}
	waitStatus(t, c, fresh, diet.CampaignDone)
}

// TestCancelSurvivesKillDashNine is the control plane's acceptance
// gauntlet: a campaign is cancelled on a durable daemon, the daemon is
// SIGKILLed, and the restarted daemon must still know the campaign as
// cancelled — never re-admitting it — because the cancelled record was
// fsynced before the cancel verdict went out.
func TestCancelSurvivesKillDashNine(t *testing.T) {
	dir := t.TempDir()
	cmd1, addr := startDaemonChild(t, "127.0.0.1:0", dir)

	// The SeD fleet lives in the test process and rejoins the restarted
	// daemon by heartbeat.
	for _, cl := range platform.FiveClusters()[:3] {
		cl.Procs = 30
		sed, err := diet.StartSeD("127.0.0.1:0", cl, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sed.Close() })
		sed.StartHeartbeats(addr, 50*time.Millisecond)
	}
	waitAliveAddr(t, addr, 3, 10*time.Second)

	c := &Client{Addr: addr, Timeout: 30 * time.Second}
	// Big enough that the cancel lands mid-evaluation, not after the fact.
	id, err := submit(t, c, core.Application{Scenarios: 10, Months: 1800}, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the campaign is actually running — cancel mid-round, with
	// chunks in flight.
	deadline := time.Now().Add(20 * time.Second)
	for {
		info, err := c.InfoContext(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status == diet.CampaignRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never started running (status %q)", info.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	status, err := c.CancelContext(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if status != diet.CampaignCancelled {
		t.Fatalf("cancel verdict %q, want cancelled", status)
	}

	// kill -9 and restart on the same state dir.
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait()
	_, addr2 := startDaemonChild(t, addr, dir)
	if addr2 != addr {
		t.Fatalf("restarted daemon on %s, want %s", addr2, addr)
	}
	waitAliveAddr(t, addr, 3, 10*time.Second)

	// The replayed campaign is still cancelled: not re-admitted, and an
	// attach resolves with the typed error.
	info, err := c.InfoContext(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != diet.CampaignCancelled {
		t.Fatalf("replayed campaign status %q, want cancelled", info.Status)
	}
	if _, err := c.AttachContext(context.Background(), id, nil, nil); !errors.Is(err, ErrCampaignCancelled) {
		t.Fatalf("attach to replayed cancelled campaign returned %v, want ErrCampaignCancelled", err)
	}
	queued, err := c.ListCampaignsContext(context.Background(), &diet.ListCampaignsRequest{Status: diet.CampaignQueued})
	if err != nil {
		t.Fatal(err)
	}
	for _, ci := range queued {
		if ci.ID == id {
			t.Fatal("cancelled campaign was re-admitted by journal replay")
		}
	}

	// And the daemon still serves new work bit-identically.
	res, err := c.RunContext(context.Background(), core.Application{Scenarios: 4, Months: 12}, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != diet.CampaignDone {
		t.Fatalf("post-restart campaign status %q", res.Status)
	}
}
