package grid

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	osexec "os/exec"
	"reflect"
	"sync"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/engine"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
)

// ---------------------------------------------------------------------------
// Subprocess daemon: TestMain doubles as a re-exec hook so the crash test
// can kill -9 a real scheduler process and restart it on the same state dir.

const (
	daemonChildEnv  = "OAGRID_GRID_DAEMON_CHILD"
	daemonAddrEnv   = "OAGRID_GRID_DAEMON_ADDR"
	daemonStateEnv  = "OAGRID_GRID_DAEMON_STATE"
	daemonReadyLine = "LISTENING"
)

func TestMain(m *testing.M) {
	if os.Getenv(daemonChildEnv) == "1" {
		runDaemonChild()
	}
	os.Exit(m.Run())
}

// runDaemonChild is the whole child process: a durable scheduler daemon that
// prints its address and serves until killed. It never returns.
func runDaemonChild() {
	s, err := Start(Config{
		Addr:            os.Getenv(daemonAddrEnv),
		StateDir:        os.Getenv(daemonStateEnv),
		Dispatchers:     2,
		PerSeDInFlight:  2,
		EvictAfter:      2 * time.Second,
		RetryEvery:      10 * time.Millisecond,
		CampaignTimeout: 90 * time.Second,
	})
	if err != nil {
		fmt.Println("CHILD_ERR", err)
		os.Exit(1)
	}
	fmt.Printf("%s %s\n", daemonReadyLine, s.Addr())
	select {}
}

// startDaemonChild re-execs the test binary as a scheduler daemon on addr
// with the given state dir and waits for its ready line.
func startDaemonChild(t *testing.T, addr, stateDir string) (*osexec.Cmd, string) {
	t.Helper()
	cmd := osexec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		daemonChildEnv+"=1",
		daemonAddrEnv+"="+addr,
		daemonStateEnv+"="+stateDir,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("daemon child died before its ready line (%v)", sc.Err())
	}
	line := sc.Text()
	var got string
	if _, err := fmt.Sscanf(line, daemonReadyLine+" %s", &got); err != nil {
		t.Fatalf("daemon child said %q, want %q", line, daemonReadyLine)
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained
	return cmd, got
}

// waitAliveAddr polls a daemon's stats endpoint until n SeDs are alive —
// the address-based cousin of Fabric.WaitAlive for daemons in another
// process.
func waitAliveAddr(t *testing.T, addr string, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if stats, err := (&Client{Addr: addr, Timeout: time.Second}).StatsContext(context.Background()); err == nil {
			alive := 0
			for _, sd := range stats.SeDs {
				if sd.Alive {
					alive++
				}
			}
			if alive >= n {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon at %s never saw %d live SeDs", addr, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCrashRecoveryKillDashNine is the acceptance gauntlet: a real daemon
// process is SIGKILLed mid-campaign and restarted on the same state dir.
// Every admitted campaign must complete with chunk reports bit-identical to
// serial evaluation, and a reattaching client must receive the full
// progress history replayed from the journal — including the frames it saw
// before the crash.
func TestCrashRecoveryKillDashNine(t *testing.T) {
	dir := t.TempDir()
	cmd1, addr := startDaemonChild(t, "127.0.0.1:0", dir)

	// The SeD fleet lives in the test process, so it survives the daemon's
	// death and rejoins the restarted daemon by heartbeat.
	clusters := map[string]*platform.Cluster{}
	for _, cl := range platform.FiveClusters()[:3] {
		cl.Procs = 30
		sed, err := diet.StartSeD("127.0.0.1:0", cl, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sed.Close() })
		sed.StartHeartbeats(addr, 50*time.Millisecond)
		clusters[cl.Name] = cl
	}
	waitAliveAddr(t, addr, 3, 10*time.Second)

	app := core.Application{Scenarios: 6, Months: 12}
	const campaigns = 8

	var mu sync.Mutex
	ids := make([]uint64, campaigns)
	preChunks := map[uint64][]diet.ExecResponse{}
	var admitted sync.WaitGroup
	admitted.Add(campaigns)
	firstChunk := make(chan struct{})
	var chunkOnce sync.Once

	var wg sync.WaitGroup
	for i := 0; i < campaigns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &Client{Addr: addr, Timeout: 5 * time.Second}
			// The stream is expected to die with the daemon; errors are the
			// point, results (for campaigns that beat the kill) a bonus.
			_, _ = c.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{},
				func(id uint64) {
					mu.Lock()
					ids[i] = id
					mu.Unlock()
					admitted.Done()
				},
				func(u *diet.ProgressUpdate) {
					if u.Stage == diet.StageChunk && u.Chunk != nil {
						mu.Lock()
						preChunks[u.ID] = append(preChunks[u.ID], *u.Chunk)
						mu.Unlock()
						chunkOnce.Do(func() { close(firstChunk) })
					}
				})
		}(i)
	}

	// Kill only once every campaign is admitted (journaled) and at least
	// one chunk completed (so the journal holds mid-campaign state).
	admitted.Wait()
	select {
	case <-firstChunk:
	case <-time.After(30 * time.Second):
		t.Fatal("no chunk completed before the planned kill")
	}
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait()
	wg.Wait() // every stream has errored out or finished

	// Restart on the same address and state dir; the SeDs rejoin on their
	// next heartbeat and the journal re-admits the unfinished backlog.
	startDaemonChild(t, addr, dir)
	waitAliveAddr(t, addr, 3, 10*time.Second)

	v, err := NewVerifier(clusters, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{Addr: addr, Timeout: 60 * time.Second}
	mu.Lock()
	pre := make(map[uint64][]diet.ExecResponse, len(preChunks))
	for id, chunks := range preChunks {
		pre[id] = append([]diet.ExecResponse(nil), chunks...)
	}
	heldIDs := append([]uint64(nil), ids...)
	mu.Unlock()

	for i, id := range heldIDs {
		if id == 0 {
			t.Fatalf("campaign %d never got an ID", i)
		}
		var frames []diet.ProgressUpdate
		res, err := client.AttachContext(context.Background(), id, nil, func(u *diet.ProgressUpdate) {
			frames = append(frames, *u)
		})
		if err != nil {
			t.Fatalf("attach to campaign %d after restart: %v", id, err)
		}
		if err := v.Verify(app, res); err != nil {
			t.Fatalf("recovered campaign %d not bit-identical: %v", id, err)
		}
		// The replayed history must contain every chunk the client saw
		// before the crash, bit for bit.
		for _, want := range pre[id] {
			found := false
			for _, u := range frames {
				if u.Stage == diet.StageChunk && u.Chunk != nil &&
					u.Chunk.Cluster == want.Cluster &&
					u.Chunk.Scenarios == want.Scenarios &&
					math.Float64bits(u.Chunk.Makespan) == math.Float64bits(want.Makespan) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("campaign %d: pre-crash chunk %s×%d (%g) missing from replayed history",
					id, want.Cluster, want.Scenarios, want.Makespan)
			}
		}
	}

	// The restarted daemon serves fresh campaigns too.
	res, err := client.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(app, res); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// In-process restart (graceful shutdown is a pause, not a failure).

// TestSchedulerRestartResumesCampaigns: a durable scheduler closed with a
// queued-but-unserveable campaign re-admits and finishes it after a restart
// on the same state dir, and campaigns finished before the restart stay
// pollable and attachable under their original IDs, bit for bit.
func TestSchedulerRestartResumesCampaigns(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.StateDir = dir
	sched1, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := sched1.Addr()

	clusters := map[string]*platform.Cluster{}
	var seds []*diet.SeD
	for _, cl := range platform.FiveClusters()[:2] {
		cl.Procs = 30
		sed, err := diet.StartSeD("127.0.0.1:0", cl, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sed.StartHeartbeats(addr, 25*time.Millisecond)
		seds = append(seds, sed)
		clusters[cl.Name] = cl
	}
	waitAliveAddr(t, addr, 2, 5*time.Second)

	// Campaign A runs to completion before the restart.
	client := &Client{Addr: addr}
	appA := core.Application{Scenarios: 4, Months: 12}
	resA, err := client.RunContext(context.Background(), appA, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the fleet, then submit campaign B: it spins with no live SeD and
	// is guaranteed non-terminal when the scheduler shuts down.
	for _, sed := range seds {
		sed.Close()
	}
	appB := core.Application{Scenarios: 5, Months: 6}
	idB, err := submit(t, client, appB, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sched1.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("campaign B never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := sched1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same state dir (fresh port: clients reattach by ID,
	// not by connection) with a fresh fleet over the same profiles.
	cfg2 := testConfig()
	cfg2.StateDir = dir
	sched2, err := Start(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer sched2.Close()
	for _, cl := range platform.FiveClusters()[:2] {
		cl.Procs = 30
		sed, err := diet.StartSeD("127.0.0.1:0", cl, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sed.Close() })
		sed.StartHeartbeats(sched2.Addr(), 25*time.Millisecond)
	}
	client2 := &Client{Addr: sched2.Addr(), Timeout: 60 * time.Second}

	// Campaign B resumes and completes bit-identically.
	v, err := NewVerifier(clusters, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	var frames []diet.ProgressUpdate
	resB, err := client2.AttachContext(context.Background(), idB, nil, func(u *diet.ProgressUpdate) {
		frames = append(frames, *u)
	})
	if err != nil {
		t.Fatalf("attach to resumed campaign: %v", err)
	}
	if err := v.Verify(appB, resB); err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("resumed campaign streamed no progress history")
	}

	// Campaign A's terminal state survived the restart bit for bit.
	gotA, err := client2.AttachContext(context.Background(), resA.ID, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotA.Status != diet.CampaignDone ||
		math.Float64bits(gotA.Makespan) != math.Float64bits(resA.Makespan) ||
		!reflect.DeepEqual(gotA.Reports, resA.Reports) {
		t.Fatalf("campaign A after restart = %+v, want %+v", gotA, resA)
	}

	// An ID the journal never issued is a typed unknown, not a hang.
	_, err = client2.AttachContext(context.Background(), 99999, nil, nil)
	if !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("attach to unknown campaign returned %v, want ErrUnknownCampaign", err)
	}
}

// ---------------------------------------------------------------------------
// Flaky SeD: a protocol-complete daemon whose exec handler fails a
// configured number of times before behaving — the deterministic way to
// drive requeue rounds without racing real process kills.

type flakySeD struct {
	cluster *platform.Cluster
	ln      net.Listener

	mu       sync.Mutex
	failures int

	hbStop chan struct{}
}

// startFlakySeD serves cluster like a real SeD but fails its first
// `failures` exec requests, heartbeating the scheduler every hbEvery.
func startFlakySeD(t *testing.T, cluster *platform.Cluster, failures int, schedAddr string, hbEvery time.Duration) *flakySeD {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &flakySeD{cluster: cluster, ln: ln, failures: failures, hbStop: make(chan struct{})}
	go diet.Serve(ln, f.handle)
	go func() {
		tick := time.NewTicker(hbEvery)
		defer tick.Stop()
		for {
			f.beat(schedAddr)
			select {
			case <-f.hbStop:
				return
			case <-tick.C:
			}
		}
	}()
	t.Cleanup(func() {
		close(f.hbStop)
		ln.Close()
	})
	return f
}

func (f *flakySeD) beat(schedAddr string) {
	_, _ = diet.RoundTrip(schedAddr, &diet.Request{Kind: diet.KindHeartbeat, Heartbeat: &diet.HeartbeatRequest{
		Cluster: f.cluster.Name,
		Addr:    f.ln.Addr().String(),
		Procs:   f.cluster.Procs,
	}})
}

func (f *flakySeD) handle(req *diet.Request) *diet.Response {
	switch req.Kind {
	case diet.KindPerf:
		h, err := core.ByName(req.Perf.Heuristic)
		if err != nil {
			return &diet.Response{Err: err.Error()}
		}
		app := core.Application{Scenarios: req.Perf.Scenarios, Months: req.Perf.Months}
		vec, err := engine.PerformanceVector(engine.DES{}, app, f.cluster, h, engine.Options{}, 0)
		if err != nil {
			return &diet.Response{Err: err.Error()}
		}
		return &diet.Response{Perf: &diet.PerfResponse{Cluster: f.cluster.Name, Procs: f.cluster.Procs, Vector: vec}}
	case diet.KindExec:
		f.mu.Lock()
		if f.failures > 0 {
			f.failures--
			f.mu.Unlock()
			return &diet.Response{Err: "flaky SeD: injected exec failure"}
		}
		f.mu.Unlock()
		h, err := core.ByName(req.Exec.Heuristic)
		if err != nil {
			return &diet.Response{Err: err.Error()}
		}
		app := core.Application{Scenarios: len(req.Exec.ScenarioIDs), Months: req.Exec.Months}
		alloc, err := h.Plan(app, f.cluster.Timing, f.cluster.Procs)
		if err != nil {
			return &diet.Response{Err: err.Error()}
		}
		res, err := exec.Run(app, f.cluster.Timing, f.cluster.Procs, alloc, exec.Options{})
		if err != nil {
			return &diet.Response{Err: err.Error()}
		}
		return &diet.Response{Exec: &diet.ExecResponse{
			Cluster:    f.cluster.Name,
			Makespan:   res.Makespan,
			Allocation: alloc,
			Scenarios:  len(req.Exec.ScenarioIDs),
		}}
	default:
		return &diet.Response{Err: fmt.Sprintf("flaky SeD: unsupported request %q", req.Kind)}
	}
}

// TestRequeuedRoundMakespanSummed is the regression test for the multi-round
// makespan accounting bug: repartition rounds run sequentially after a
// requeue, so the campaign makespan must be the sum of per-round chunk
// maxima — the old global max silently dropped the requeued round's time.
func TestRequeuedRoundMakespanSummed(t *testing.T) {
	cfg := testConfig()
	cfg.EvictAfter = 5 * time.Second // keep the flaky SeD pool-eligible between rounds
	sched, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	profiles := platform.FiveClusters()[:2]
	for _, cl := range profiles {
		cl.Procs = 30
	}
	steady, err := diet.StartSeD("127.0.0.1:0", profiles[0], exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { steady.Close() })
	steady.StartHeartbeats(sched.Addr(), 20*time.Millisecond)
	startFlakySeD(t, profiles[1], 1, sched.Addr(), 20*time.Millisecond)
	waitAliveAddr(t, sched.Addr(), 2, 5*time.Second)

	app := core.Application{Scenarios: 6, Months: 12}
	res, err := (&Client{Addr: sched.Addr()}).RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requeues == 0 {
		t.Fatalf("flaky SeD cost no requeue: %+v", res)
	}

	// Recompute the expected accounting from the reports themselves.
	maxByRound := map[int]float64{}
	maxRound, maxSingle := 0, 0.0
	for _, rep := range res.Reports {
		if rep.Makespan > maxByRound[rep.Round] {
			maxByRound[rep.Round] = rep.Makespan
		}
		if rep.Round > maxRound {
			maxRound = rep.Round
		}
		if rep.Makespan > maxSingle {
			maxSingle = rep.Makespan
		}
	}
	if maxRound == 0 {
		t.Fatalf("requeued campaign finished in one round: %+v", res.Reports)
	}
	want := 0.0
	for round := 0; round <= maxRound; round++ {
		want += maxByRound[round]
	}
	if math.Float64bits(res.Makespan) != math.Float64bits(want) {
		t.Fatalf("makespan %g, want per-round sum %g", res.Makespan, want)
	}
	// The regression: the old accounting returned the global max, which is
	// strictly less than the sum whenever a requeued round did real work.
	if res.Makespan <= maxSingle {
		t.Fatalf("makespan %g does not count the requeued round (max single chunk %g)", res.Makespan, maxSingle)
	}
	// And the round-aware verifier agrees end to end.
	v, err := NewVerifier(map[string]*platform.Cluster{
		profiles[0].Name: profiles[0],
		profiles[1].Name: profiles[1],
	}, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(app, res); err != nil {
		t.Fatal(err)
	}
}

// TestSortReportsTotalOrder pins the report-ordering fix: (Cluster,
// Scenarios) ties across rounds must be broken by (Round, FirstScenario)
// under a stable sort, so the final report list is a pure function of the
// chunk set, not of arrival interleaving — and matches the Local runner's
// (cluster, scenarios, round) public order.
func TestSortReportsTotalOrder(t *testing.T) {
	// a and b tie on (Cluster, Scenarios) and disagree between Round order
	// and FirstScenario order: Round must win (a requeued round can rerun
	// lower scenario IDs than an earlier round completed).
	a := diet.ExecResponse{Cluster: "c", Scenarios: 2, Makespan: 10, Round: 0, FirstScenario: 4}
	b := diet.ExecResponse{Cluster: "c", Scenarios: 2, Makespan: 11, Round: 1, FirstScenario: 0}
	c := diet.ExecResponse{Cluster: "b", Scenarios: 2, Makespan: 9, Round: 0, FirstScenario: 2}
	want := []diet.ExecResponse{c, a, b}
	for _, perm := range [][]diet.ExecResponse{{a, b, c}, {b, a, c}, {c, b, a}, {b, c, a}} {
		got := append([]diet.ExecResponse(nil), perm...)
		sortReports(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sortReports(%v) = %v, want %v", perm, got, want)
		}
	}
}

// TestCampaignMakespanAccounting pins the per-round fold, including rounds
// with no surviving report (every chunk requeued) contributing zero.
func TestCampaignMakespanAccounting(t *testing.T) {
	reports := []diet.ExecResponse{
		{Cluster: "a", Makespan: 10, Round: 0},
		{Cluster: "b", Makespan: 12, Round: 0},
		{Cluster: "a", Makespan: 5, Round: 2}, // round 1 lost everything
	}
	if got := diet.CampaignMakespan(reports); got != 17 {
		t.Fatalf("diet.CampaignMakespan = %g, want 17", got)
	}
	if got := diet.CampaignMakespan(nil); got != 0 {
		t.Fatalf("diet.CampaignMakespan(nil) = %g, want 0", got)
	}
}

// TestPollSnapshotProgress covers the poll-path progress fix: polling a
// campaign by ID must see Done/Total move before the terminal state
// instead of a bare "running", and the final result must carry them too.
func TestPollSnapshotProgress(t *testing.T) {
	f := startFabric(t, testConfig(), 2)
	client := &Client{Addr: f.Sched.Addr()}
	app := core.Application{Scenarios: 6, Months: 12}
	id, err := submit(t, client, app, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	lastDone := 0
	for {
		info, err := client.InfoContext(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Total != app.Scenarios {
			t.Fatalf("snapshot Total = %d, want %d (status %s)", info.Total, app.Scenarios, info.Status)
		}
		if info.Done < lastDone {
			t.Fatalf("snapshot Done went backwards: %d after %d", info.Done, lastDone)
		}
		lastDone = info.Done
		if info.Status == diet.CampaignDone {
			if info.Done != app.Scenarios {
				t.Fatalf("terminal snapshot Done = %d, want %d", info.Done, app.Scenarios)
			}
			break
		}
		if info.Status == diet.CampaignFailed {
			t.Fatalf("campaign failed: %s", info.Err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck in %q", info.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	res, err := client.AttachContext(context.Background(), id, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != app.Scenarios || res.Total != app.Scenarios {
		t.Fatalf("terminal result Done/Total = %d/%d, want %d", res.Done, res.Total, app.Scenarios)
	}
	verifyReports(t, f, app, core.NameKnapsack, res)
}

// TestAttachReplayAfterManyRequeues drives a campaign far past the
// subscriber buffer's live allowance (len(history) + 4*Scenarios + 16) with
// repeated injected SeD failures, then attaches late — mid-run and again
// after the terminal state. Both subscribers must receive the complete
// replay from the very first planned frame plus a terminal result frame.
func TestAttachReplayAfterManyRequeues(t *testing.T) {
	const failures = 12 // 12 failed rounds ≈ 25 frames, past the 4*1+16 allowance

	cfg := testConfig()
	cfg.EvictAfter = 5 * time.Second
	cfg.RetryEvery = 5 * time.Millisecond
	sched, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()

	cl := platform.FiveClusters()[0]
	cl.Procs = 30
	startFlakySeD(t, cl, failures, sched.Addr(), 10*time.Millisecond)
	waitAliveAddr(t, sched.Addr(), 1, 5*time.Second)

	app := core.Application{Scenarios: 1, Months: 6}
	client := &Client{Addr: sched.Addr(), Timeout: 60 * time.Second}
	id, err := submit(t, client, app, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the requeue churn is well past the live allowance, then
	// attach mid-run (the campaign may race to completion on a loaded box;
	// the replay guarantee is the same either way).
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, err := client.InfoContext(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Requeues >= failures/2 || info.Status == diet.CampaignDone {
			break
		}
		if info.Status == diet.CampaignFailed {
			t.Fatalf("campaign failed: %s", info.Err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never churned: %+v", info)
		}
		time.Sleep(2 * time.Millisecond)
	}

	checkReplay := func(label string) {
		t.Helper()
		var frames []diet.ProgressUpdate
		var verdict *diet.AttachResponse
		res, err := client.AttachContext(context.Background(), id,
			func(v *diet.AttachResponse) { verdict = v },
			func(u *diet.ProgressUpdate) { frames = append(frames, *u) })
		if err != nil {
			t.Fatalf("%s attach: %v", label, err)
		}
		if verdict == nil || !verdict.Found || verdict.Total != app.Scenarios {
			t.Fatalf("%s attach verdict %+v", label, verdict)
		}
		if res.Status != diet.CampaignDone {
			t.Fatalf("%s attach ended %q: %s", label, res.Status, res.Err)
		}
		if res.Requeues != failures {
			t.Fatalf("%s: %d requeues, want %d", label, res.Requeues, failures)
		}
		// Full replay: every failed round contributes a planned + requeue
		// pair from frame zero, far beyond the live buffer allowance.
		var planned, requeued, chunks int
		for _, u := range frames {
			switch u.Stage {
			case diet.StagePlanned:
				planned++
			case diet.StageRequeue:
				requeued++
			case diet.StageChunk:
				chunks++
			}
		}
		if len(frames) <= 4*app.Scenarios+16 {
			t.Fatalf("%s: only %d frames — the test no longer exceeds the live allowance", label, len(frames))
		}
		if frames[0].Stage != diet.StagePlanned {
			t.Fatalf("%s: replay starts at %q, not the first planned frame", label, frames[0].Stage)
		}
		if planned != failures+1 || requeued != failures || chunks != 1 {
			t.Fatalf("%s: replay %d planned / %d requeue / %d chunk frames, want %d/%d/1",
				label, planned, requeued, chunks, failures+1, failures)
		}
	}
	checkReplay("mid-run")
	checkReplay("terminal") // the campaign is done now; replay must be intact
}

// TestRestartPrunesBeyondKeepFinished: the retention cap holds across a
// restart — a terminal campaign pruned by the cap is not resurrected by
// journal replay, and the journal itself is compacted down to the
// retained set.
func TestRestartPrunesBeyondKeepFinished(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.StateDir = dir
	cfg.KeepFinished = 1
	sched1, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := platform.FiveClusters()[0]
	cl.Procs = 30
	sed, err := diet.StartSeD("127.0.0.1:0", cl, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sed.Close() })
	sed.StartHeartbeats(sched1.Addr(), 25*time.Millisecond)
	waitAliveAddr(t, sched1.Addr(), 1, 5*time.Second)

	app := core.Application{Scenarios: 2, Months: 6}
	client := &Client{Addr: sched1.Addr()}
	resA, err := client.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := client.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// KeepFinished=1: campaign A is pruned the moment B finishes.
	if _, err := client.InfoContext(context.Background(), resA.ID); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("campaign %d pollable past the retention cap: %v", resA.ID, err)
	}
	if err := sched1.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2 := testConfig()
	cfg2.StateDir = dir
	cfg2.KeepFinished = 1
	sched2, err := Start(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer sched2.Close()
	client2 := &Client{Addr: sched2.Addr()}
	// The pruned campaign stays unknown after the restart...
	if _, err := client2.AttachContext(context.Background(), resA.ID, nil, nil); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("pruned campaign %d resurrected by replay: %v", resA.ID, err)
	}
	// ...while the retained one is still there, bit for bit.
	gotB, err := client2.AttachContext(context.Background(), resB.ID, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(gotB.Makespan) != math.Float64bits(resB.Makespan) {
		t.Fatalf("retained campaign makespan %g, want %g", gotB.Makespan, resB.Makespan)
	}
}
