package grid

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/engine"
	"oagrid/internal/platform"
	"oagrid/internal/store"
)

// One lifecycle, two executors: these tests put the same campaign through
// the daemon (SeD pool) and through Local (in-process fleet) in one harness
// and compare what each leaves behind — the compare-two-configurations
// shape. The scripted executor is the seam's test-substitution use.

// testClusters returns the n profiles a test fabric's SeDs serve.
func testClusters(n int) []*platform.Cluster {
	clusters := platform.FiveClusters()[:n]
	for _, cl := range clusters {
		cl.Procs = 30
	}
	return clusters
}

// scriptedExec wraps the in-process fleet: it counts vector evaluations
// and, with a gate, parks every chunk until the test releases it.
type scriptedExec struct {
	executor
	perfs   atomic.Int64
	arrived chan int      // scenario count of each parked chunk
	gate    chan struct{} // one token releases one chunk; nil: no parking
}

func (e *scriptedExec) perf(ctx context.Context, t target, n, months int, heuristic string) ([]float64, error) {
	e.perfs.Add(1)
	return e.executor.perf(ctx, t, n, months, heuristic)
}

func (e *scriptedExec) run(ctx context.Context, t target, ids []int, months int, heuristic string) (*diet.ExecResponse, error) {
	if e.gate != nil {
		e.arrived <- len(ids)
		select {
		case <-e.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return e.executor.run(ctx, t, ids, months, heuristic)
}

func newScriptedLocal(t *testing.T, n int, gated bool, stateDir string) (*Local, *scriptedExec) {
	t.Helper()
	f := &fleet{plans: engine.NewPlans()}
	for _, cl := range testClusters(n) {
		f.targets = append(f.targets, clusterTarget{cl})
	}
	e := &scriptedExec{executor: f}
	if gated {
		e.arrived, e.gate = make(chan int, 16), make(chan struct{}, 16)
	}
	l, err := newLocal(e, stateDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, e
}

func journalPath(dir string) string { return filepath.Join(dir, "campaigns.wal") }

// replayed is a journal's only campaign: its records as the store groups
// them, and the round count they fold to.
type replayed struct {
	*store.Campaign
	Rounds int
}

// replayOne replays a journal and returns its only campaign.
func replayOne(t *testing.T, path string) *replayed {
	t.Helper()
	byID, err := store.ReplayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(byID) != 1 {
		t.Fatalf("%s holds %d campaigns, want 1", path, len(byID))
	}
	for _, rc := range byID {
		return &replayed{Campaign: rc, Rounds: recoveredCampaign(rc).info().Rounds}
	}
	return nil
}

// journalShape folds a campaign's records into what must not depend on the
// executor: the record kinds in order (chunks complete in arrival order, so
// they are compared as a set, sorted by FirstScenario) and each record's
// round, scenario and placement stamps.
func journalShape(rc *replayed) (kinds []string, stamps []string) {
	var chunks []store.Record
	for _, rec := range rc.Records() {
		kinds = append(kinds, rec.Kind)
		switch rec.Kind {
		case store.KindPlanned:
			stamps = append(stamps, fmt.Sprintf("planned round=%d %s", rec.Round, plannedString(rec.Planned)))
		case store.KindChunk:
			chunks = append(chunks, rec)
		case store.KindDone:
			stamps = append(stamps, fmt.Sprintf("done %s makespan=%x", rec.Status, math.Float64bits(rec.Makespan)))
		}
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].Chunk.FirstScenario < chunks[j].Chunk.FirstScenario })
	for _, rec := range chunks {
		stamps = append(stamps, fmt.Sprintf("chunk %s first=%d round=%d ids=%v makespan=%x",
			rec.Chunk.Cluster, rec.Chunk.FirstScenario, rec.Chunk.Round, rec.IDs, math.Float64bits(rec.Chunk.Makespan)))
	}
	return kinds, stamps
}

func plannedString(p []diet.PlannedChunk) string {
	parts := make([]string, len(p))
	for i, c := range p {
		parts[i] = fmt.Sprintf("%s×%d", c.Cluster, c.Scenarios)
	}
	return strings.Join(parts, ",")
}

// sameResult compares two campaign results bit for bit.
func sameResult(t *testing.T, tag string, want, got *diet.CampaignResult) {
	t.Helper()
	if got.Status != want.Status || math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) ||
		len(got.Reports) != len(want.Reports) {
		t.Fatalf("%s: result %+v, want %+v", tag, got, want)
	}
	for i := range want.Reports {
		w, g := want.Reports[i], got.Reports[i]
		if w.Cluster != g.Cluster || w.Scenarios != g.Scenarios || w.Round != g.Round || w.FirstScenario != g.FirstScenario ||
			math.Float64bits(w.Makespan) != math.Float64bits(g.Makespan) || w.Allocation.String() != g.Allocation.String() {
			t.Fatalf("%s: report %d = %+v, want %+v", tag, i, g, w)
		}
	}
}

// runBoth runs app once on a durable daemon and once on a durable Local
// over the same cluster profiles and returns both results and state dirs.
func runBoth(t *testing.T, app core.Application, n int) (daemonRes, localRes *diet.CampaignResult, daemonDir, localDir string) {
	t.Helper()
	daemonDir, localDir = t.TempDir(), t.TempDir()
	cfg := testConfig()
	cfg.StateDir = daemonDir
	f, err := StartFabric(cfg, n, 30, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WaitAlive(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	daemonRes, err = (&Client{Addr: f.Sched.Addr()}).RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	l, err := NewLocal(testClusters(n), LocalConfig{StateDir: localDir})
	if err != nil {
		t.Fatal(err)
	}
	localRes, err = l.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if cerr := l.Close(); err != nil || cerr != nil {
		t.Fatal(err, cerr)
	}
	return daemonRes, localRes, daemonDir, localDir
}

// TestJournalsIdenticalLocalAndDaemon: the same campaign leaves the same
// journal whichever executor ran it — same record kinds in the same order,
// same round, first-scenario, placement and makespan stamps.
func TestJournalsIdenticalLocalAndDaemon(t *testing.T) {
	app := core.Application{Scenarios: 10, Months: 24}
	daemonRes, localRes, daemonDir, localDir := runBoth(t, app, 3)
	sameResult(t, "local vs daemon", daemonRes, localRes)

	dk, ds := journalShape(replayOne(t, journalPath(daemonDir)))
	lk, ls := journalShape(replayOne(t, journalPath(localDir)))
	if strings.Join(dk, ",") != strings.Join(lk, ",") {
		t.Fatalf("record kinds differ:\n daemon %v\n local  %v", dk, lk)
	}
	if strings.Join(ds, "\n") != strings.Join(ls, "\n") {
		t.Fatalf("record stamps differ:\n daemon:\n%s\n local:\n%s", strings.Join(ds, "\n"), strings.Join(ls, "\n"))
	}
	if len(dk) < 4 || dk[0] != store.KindAdmitted || dk[1] != store.KindPlanned || dk[len(dk)-1] != store.KindDone {
		t.Fatalf("unexpected journal sequence %v", dk)
	}
}

// cutAfterFirstChunk writes, into a fresh state dir, the journal rc's
// writer would have left had it died right after its first chunk record:
// admission, round-0 plan, and the chunk holding scenario 0 (chunks land in
// arrival order, so "first" is pinned to the one both writers agree on).
func cutAfterFirstChunk(t *testing.T, rc *replayed) string {
	t.Helper()
	dir := t.TempDir()
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	kept := 0
	for _, rec := range rc.Records() {
		switch {
		case rec.Kind == store.KindAdmitted, rec.Kind == store.KindPlanned:
		case rec.Kind == store.KindChunk && rec.Chunk.FirstScenario == 0:
		default:
			continue
		}
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
		kept++
	}
	if kept != 3 {
		t.Fatalf("cut journal holds %d records, want admitted+planned+chunk", kept)
	}
	return dir
}

// finishOnDaemon opens a daemon on dir, lets it finish the recovered
// campaign id, and returns the result.
func finishOnDaemon(t *testing.T, dir string, id uint64, n int) *diet.CampaignResult {
	t.Helper()
	cfg := testConfig()
	cfg.StateDir = dir
	f := startFabric(t, cfg, n)
	res, err := (&Client{Addr: f.Sched.Addr()}).AttachContext(context.Background(), id, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	verifyReports(t, f, core.Application{Scenarios: res.Total, Months: 24}, core.NameKnapsack, res)
	return res
}

// finishOnLocal is finishOnDaemon's in-process twin.
func finishOnLocal(t *testing.T, dir string, id uint64, n int) *diet.CampaignResult {
	t.Helper()
	l, err := NewLocal(testClusters(n), LocalConfig{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	res, err := l.AttachContext(context.Background(), id, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCrossResume: a journal cut after its first chunk resumes to the same
// result whoever wrote it and whoever finishes it. (The resumed campaign has
// two rounds, so its makespan is not the one-round run's; the reference is
// the writer finishing its own journal, and every chunk is verified against
// serial evaluation.)
func TestCrossResume(t *testing.T) {
	const n = 3
	app := core.Application{Scenarios: 10, Months: 24}
	_, _, daemonDir, localDir := runBoth(t, app, n)
	byDaemon := replayOne(t, journalPath(daemonDir))
	byLocal := replayOne(t, journalPath(localDir))

	reference := finishOnDaemon(t, cutAfterFirstChunk(t, byDaemon), byDaemon.ID, n)
	rounds := map[int]bool{}
	for _, rep := range reference.Reports {
		rounds[rep.Round] = true
	}
	if len(rounds) != 2 {
		t.Fatalf("resumed campaign ran %d round(s), want the journaled one plus the resumed one: %+v", len(rounds), reference.Reports)
	}
	sameResult(t, "daemon journal finished by Local", reference,
		finishOnLocal(t, cutAfterFirstChunk(t, byDaemon), byDaemon.ID, n))
	sameResult(t, "Local journal finished by daemon", reference,
		finishOnDaemon(t, cutAfterFirstChunk(t, byLocal), byLocal.ID, n))
	sameResult(t, "Local journal finished by Local", reference,
		finishOnLocal(t, cutAfterFirstChunk(t, byLocal), byLocal.ID, n))
}

// TestLocalVectorCache: the second Local campaign of a shape evaluates no
// vector — it plans from the first one's — and plans identically; a smaller
// campaign of the same months reuses the cached prefix.
func TestLocalVectorCache(t *testing.T) {
	const n = 3
	l, e := newScriptedLocal(t, n, false, "")
	run := func(app core.Application) (*diet.CampaignResult, string) {
		t.Helper()
		var plan string
		res, err := l.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, func(u *diet.ProgressUpdate) {
			if u.Stage == diet.StagePlanned {
				plan += plannedString(u.Planned) + ";"
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, plan
	}
	app := core.Application{Scenarios: 8, Months: 24}
	first, firstPlan := run(app)
	if got := e.perfs.Load(); got != n {
		t.Fatalf("first campaign evaluated %d vectors, want one per cluster (%d)", got, n)
	}
	second, secondPlan := run(app)
	if got := e.perfs.Load(); got != n {
		t.Fatalf("second campaign of the shape evaluated %d more vectors, want 0", got-n)
	}
	if firstPlan == "" || firstPlan != secondPlan {
		t.Fatalf("plans differ: %q then %q", firstPlan, secondPlan)
	}
	first.ID, second.ID = 0, 0
	sameResult(t, "cached vs evaluated vectors", first, second)

	if _, _ = run(core.Application{Scenarios: 3, Months: 24}); e.perfs.Load() != n {
		t.Fatalf("a shorter campaign of the same months re-evaluated vectors (%d total)", e.perfs.Load())
	}
	if _, _ = run(core.Application{Scenarios: 3, Months: 12}); e.perfs.Load() != 2*n {
		t.Fatalf("a new months value evaluated %d vectors, want %d", e.perfs.Load()-n, n)
	}
}

// vectorStub answers every perf request with a vector that names its
// months, and counts the requests per months value.
type vectorStub struct {
	executor
	perfs map[int]int
}

func (v *vectorStub) perf(_ context.Context, _ target, n, months int, _ string) ([]float64, error) {
	v.perfs[months]++
	vec := make([]float64, n)
	for k := range vec {
		vec[k] = float64(months*100 + k)
	}
	return vec, nil
}

// TestVectorCacheBounded: a long-lived core fed 10,000 distinct NMs keeps at
// most maxVectors vectors per target, and an NM asked for all along is
// still served right — and almost always from the cache.
func TestVectorCacheBounded(t *testing.T) {
	const distinct, popular, every = 10000, 12, 5
	stub := &vectorStub{perfs: make(map[int]int)}
	k := &lifecycle{exec: stub, vectors: make(map[string]map[vecKey][]float64)}
	targets := []target{clusterTarget{platform.ReferenceCluster(30)}, clusterTarget{platform.ReferenceCluster(60)}}
	targets[1].(clusterTarget).cl.Name = "other"
	ask := func(tg target, months int) {
		t.Helper()
		vec, err := k.vector(context.Background(), tg, 4, months, core.NameKnapsack)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vec {
			if v != float64(months*100+i) {
				t.Fatalf("NM=%d: vector %v is not its own", months, vec)
			}
		}
	}
	for m := 1; m <= distinct; m++ {
		for _, tg := range targets {
			ask(tg, popular+m)
			if m%every == 0 {
				ask(tg, popular)
			}
		}
	}
	for name, cached := range k.vectors {
		if len(cached) > maxVectors {
			t.Fatalf("target %s holds %d vectors, cap %d", name, len(cached), maxVectors)
		}
	}
	t.Logf("popular NM fetched %d times for %d targets × %d asks", stub.perfs[popular], len(targets), distinct/every)
	// The popular NM misses once per target, then once per reset at most.
	if got, most := stub.perfs[popular], len(targets)*(1+distinct/(maxVectors-1)); got > most {
		t.Fatalf("popular NM fetched %d times, want ≤ %d", got, most)
	}
}

// TestRoundsCountsRoundsStarted: Info.Rounds is "repartition rounds
// started" on every surface — 1 while the first round's chunk is still in
// flight, on the daemon and on Local, and the same in the journal's replay
// and after a restart. (The daemon used to report rounds completed: 0 here.)
func TestRoundsCountsRoundsStarted(t *testing.T) {
	ctx := context.Background()
	app := core.Application{Scenarios: 4, Months: 6}

	t.Run("daemon", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config{Addr: "127.0.0.1:0", Dispatchers: 1, EvictAfter: 2 * time.Second, StateDir: dir}
		s, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := startGateSeD(t, s.Addr())
		waitAliveAddr(t, s.Addr(), 1, 10*time.Second)
		c := &Client{Addr: s.Addr(), Timeout: time.Minute}
		id, err := submit(t, c, app, core.NameKnapsack)
		if err != nil {
			t.Fatal(err)
		}
		g.nextExec(t) // the round's one chunk is parked at the gate
		info, err := c.InfoContext(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != diet.CampaignRunning || info.Rounds != 1 {
			t.Fatalf("mid-round info %+v, want running with Rounds == 1", info)
		}
		if rc := replayOne(t, journalPath(dir)); rc.Rounds != 1 {
			t.Fatalf("journal replays %d rounds mid-round, want 1", rc.Rounds)
		}
		g.release <- struct{}{}
		waitStatus(t, c, id, diet.CampaignDone)
		s.Close()

		s2, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if info := s2.CampaignInfo(id); !info.Found || info.Rounds != 1 {
			t.Fatalf("info after restart %+v, want Rounds == 1", info)
		}
	})

	t.Run("local", func(t *testing.T) {
		dir := t.TempDir()
		l, e := newScriptedLocal(t, 1, true, dir)
		idCh := make(chan uint64, 1)
		done := make(chan error, 1)
		go func() {
			_, err := l.RunContext(ctx, app, core.NameKnapsack, SubmitMeta{}, func(id uint64) { idCh <- id }, nil)
			done <- err
		}()
		id := <-idCh
		<-e.arrived
		info, err := l.InfoContext(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != diet.CampaignRunning || info.Rounds != 1 || info.QueuePos != 0 || info.WaitMs != 0 {
			t.Fatalf("mid-round info %+v, want running with Rounds == 1 and no queue gauges", info)
		}
		if rc := replayOne(t, journalPath(dir)); rc.Rounds != 1 {
			t.Fatalf("journal replays %d rounds mid-round, want 1", rc.Rounds)
		}
		e.gate <- struct{}{}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, _ := newScriptedLocal(t, 1, false, dir)
		info, err = l2.InfoContext(ctx, id)
		if err != nil || info.Rounds != 1 || info.Status != diet.CampaignDone {
			t.Fatalf("info after reopen %+v (%v), want done with Rounds == 1", info, err)
		}
	})
}

// TestCancelAfterPauseIsDurable: a campaign paused by its caller's ctx is
// terminal only in this process — its journal would resume it. A later
// Cancel must still journal the stop, so the next open finds it cancelled.
func TestCancelAfterPauseIsDurable(t *testing.T) {
	dir := t.TempDir()
	l, e := newScriptedLocal(t, 1, true, dir)
	ctx, cancel := context.WithCancel(context.Background())
	idCh := make(chan uint64, 1)
	done := make(chan error, 1)
	go func() {
		_, err := l.RunContext(ctx, core.Application{Scenarios: 4, Months: 6}, core.NameKnapsack, SubmitMeta{}, func(id uint64) { idCh <- id }, nil)
		done <- err
	}()
	id := <-idCh
	<-e.arrived
	cancel() // the parked chunk aborts with the campaign
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("paused run returned %v, want context.Canceled", err)
	}
	if rc := replayOne(t, journalPath(dir)); rc.Terminal() {
		t.Fatalf("a pause was journaled as terminal: %+v", rc)
	}
	if status, err := l.CancelContext(context.Background(), id); err != nil || status != diet.CampaignCancelled {
		t.Fatalf("cancel of a paused campaign: %q, %v", status, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, e2 := newScriptedLocal(t, 1, false, dir)
	if _, err := l2.AttachContext(context.Background(), id, nil, nil); !errors.Is(err, ErrCampaignCancelled) {
		t.Fatalf("attach after reopen resolved with %v, want ErrCampaignCancelled", err)
	}
	if e2.perfs.Load() != 0 {
		t.Fatal("the cancelled campaign was resumed")
	}
}

// TestWALErrorsCounted: a journal that starts failing under a running
// campaign does not fail the campaign — but every swallowed append is
// counted and exported, so the loss is not silent.
func TestWALErrorsCounted(t *testing.T) {
	s, err := Start(Config{Addr: "127.0.0.1:0", Dispatchers: 1, EvictAfter: 2 * time.Second,
		StateDir: t.TempDir(), MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	g := startGateSeD(t, s.Addr())
	waitAliveAddr(t, s.Addr(), 1, 10*time.Second)
	c := &Client{Addr: s.Addr(), Timeout: time.Minute}
	id, err := submit(t, c, core.Application{Scenarios: 4, Months: 6}, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	g.nextExec(t)
	if got := s.walErrors.Load(); got != 0 {
		t.Fatalf("%d journal errors before the fault", got)
	}
	// Pull the journal's file out from under the scheduler: the chunk and
	// terminal records cannot be written any more.
	if err := s.store.Close(); err != nil {
		t.Fatal(err)
	}
	g.release <- struct{}{}
	waitStatus(t, c, id, diet.CampaignDone)
	if got := s.walErrors.Load(); got < 2 {
		t.Fatalf("%d journal errors counted, want the chunk and the terminal record", got)
	}
	resp, err := http.Get("http://" + s.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "\noagrid_wal_errors_total 2\n") {
		t.Fatalf("/metrics does not export the two journal errors:\n%s", body)
	}
	// The admission record is the exception: it keeps returning its error.
	if _, err := submit(t, c, core.Application{Scenarios: 2, Months: 6}, core.NameKnapsack); err == nil {
		t.Fatal("an admission that could not be journaled was acknowledged")
	}
}
