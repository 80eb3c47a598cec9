package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/ring"
	"oagrid/internal/store"
)

// A campaign's state is a fold over its journal records, and there is one
// fold: campaign.apply. These tests hold the live path, startup recovery and
// a journal written before the fold was unified to the same states.

// errTargetLost is the failure foldExec reports for a chunk whose target
// died: the lifecycle requeues its scenarios.
var errTargetLost = errors.New("fold test: target lost")

// foldExec is a fully scripted executor: two targets with fixed vectors,
// the run loop parked at every round boundary and every chunk parked until
// the test decides its outcome, so the test can look at the campaign
// between any two journal records.
type foldExec struct {
	// step lets the run loop past one boundary: the lease that starts a
	// round, the release that ends it. Closed at cleanup.
	step chan struct{}
	// arrived names the cluster of each chunk as it parks; verdict decides a
	// parked chunk of that cluster: nil finishes it, an error fails it.
	arrived chan string
	verdict map[string]chan error

	mu   sync.Mutex
	gone map[string]bool // lost targets stay out of later leases
}

type foldTarget string

func (t foldTarget) cluster() string { return string(t) }

// foldUnit is a target's makespan per scenario — not representable in
// binary, so every makespan has to survive the journal bit for bit.
var foldUnit = map[string]float64{"a": 10.1, "b": 12.3}

func newFoldExec() *foldExec {
	return &foldExec{
		step:    make(chan struct{}),
		arrived: make(chan string, 2), // one slot per target
		verdict: map[string]chan error{"a": make(chan error), "b": make(chan error)},
		gone:    map[string]bool{},
	}
}

func (e *foldExec) lease() ([]target, func()) {
	<-e.step
	e.mu.Lock()
	defer e.mu.Unlock()
	var ts []target
	for _, name := range []string{"a", "b"} {
		if !e.gone[name] {
			ts = append(ts, foldTarget(name))
		}
	}
	return ts, func() { <-e.step }
}

func (e *foldExec) perf(_ context.Context, t target, n, _ int, _ string) ([]float64, error) {
	vec := make([]float64, n)
	for k := range vec {
		vec[k] = float64(k+1) * foldUnit[t.cluster()]
	}
	return vec, nil
}

func (e *foldExec) run(ctx context.Context, t target, ids []int, _ int, heuristic string) (*diet.ExecResponse, error) {
	e.arrived <- t.cluster()
	select {
	case err := <-e.verdict[t.cluster()]:
		if err != nil {
			return nil, err
		}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &diet.ExecResponse{
		Cluster:    t.cluster(),
		Scenarios:  len(ids),
		Makespan:   float64(len(ids)) * foldUnit[t.cluster()],
		Allocation: core.Allocation{Groups: []int{7, 5}, PostProcs: 2, Heuristic: heuristic},
	}, nil
}

func (e *foldExec) lost(t target, err error) bool {
	if !errors.Is(err, errTargetLost) {
		return false
	}
	e.mu.Lock()
	e.gone[t.cluster()] = true
	e.mu.Unlock()
	return true
}

// foldState is everything a campaign shows the outside: its result
// snapshot, its control-plane view and its progress history.
type foldState struct {
	Snapshot *diet.CampaignResult
	Info     diet.CampaignInfo
	History  []diet.ProgressUpdate
}

func stateOf(c *campaign) foldState {
	st := foldState{Snapshot: c.snapshot(), Info: c.info()}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.history {
		st.History = append(st.History, f.u)
	}
	return st
}

// sameState requires two states equal, floats bit for bit.
func sameState(t *testing.T, tag string, want, got foldState) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s:\n got  %+v\n want %+v", tag, got, want)
	}
	if math.Float64bits(want.Snapshot.Makespan) != math.Float64bits(got.Snapshot.Makespan) {
		t.Fatalf("%s: makespan %x, want %x", tag, math.Float64bits(got.Snapshot.Makespan), math.Float64bits(want.Snapshot.Makespan))
	}
	for i, r := range want.Snapshot.Reports {
		if math.Float64bits(r.Makespan) != math.Float64bits(got.Snapshot.Reports[i].Makespan) {
			t.Fatalf("%s: report %d makespan differs in bits", tag, i)
		}
	}
}

// foldRun is one scripted campaign in flight on a Local.
type foldRun struct {
	t      *testing.T
	l      *Local
	e      *foldExec
	c      *campaign
	frames chan diet.ProgressUpdate
	done   chan error
	// states[k-1] is the campaign after its k-th journal record.
	states []foldState
}

// startFoldRun admits a campaign and captures it after its admission
// record: the run loop is parked at its first lease.
func startFoldRun(t *testing.T, l *Local, e *foldExec, meta SubmitMeta) *foldRun {
	t.Helper()
	r := &foldRun{t: t, l: l, e: e, done: make(chan error, 1)}
	// Buffered for every frame the script can publish: follow never blocks
	// on the test.
	r.frames = make(chan diet.ProgressUpdate, 16)
	idCh := make(chan uint64, 1)
	go func() {
		_, err := l.RunContext(context.Background(), core.Application{Scenarios: 5, Months: 6}, core.NameKnapsack, meta,
			func(id uint64) { idCh <- id }, func(u *diet.ProgressUpdate) { r.frames <- *u })
		r.done <- err
	}()
	r.c = l.lookup(<-idCh)
	r.capture()
	return r
}

func (r *foldRun) capture() { r.states = append(r.states, stateOf(r.c)) }

// frame waits for the next progress frame — published by the apply of the
// record the test just provoked — and captures the campaign after it.
func (r *foldRun) frame(stage string) {
	r.t.Helper()
	select {
	case u := <-r.frames:
		if u.Stage != stage {
			r.t.Fatalf("frame %q, want %q", u.Stage, stage)
		}
	case <-time.After(10 * time.Second):
		r.t.Fatalf("no %q frame", stage)
	}
	r.capture()
}

// plan starts a round and waits for n chunks to park.
func (r *foldRun) plan(n int) {
	r.t.Helper()
	r.e.step <- struct{}{}
	r.frame(diet.StagePlanned)
	for i := 0; i < n; i++ {
		<-r.e.arrived
	}
}

// firstRound runs the script's common opening: round 0 plans both targets,
// a's chunk finishes. b's is left parked.
func (r *foldRun) firstRound() {
	r.t.Helper()
	r.plan(2)
	r.e.verdict["a"] <- nil
	r.frame(diet.StageChunk)
}

// finish runs the rest of the two-round script: b dies with its chunk, the
// second round puts the requeued scenarios on a, the campaign completes.
func (r *foldRun) finish() {
	r.t.Helper()
	r.e.verdict["b"] <- errTargetLost
	r.frame(diet.StageRequeue)
	r.e.step <- struct{}{} // round 0 released
	r.plan(1)
	r.e.verdict["a"] <- nil
	r.frame(diet.StageChunk)
	r.e.step <- struct{}{} // round 1 released: nothing remains
	if err := <-r.done; err != nil {
		r.t.Fatal(err)
	}
	r.capture()
}

// cancel ends the campaign with b's chunk still parked.
func (r *foldRun) cancel() {
	r.t.Helper()
	if found, status := r.l.Cancel(r.c.id); !found || status != diet.CampaignCancelled {
		r.t.Fatalf("cancel: found %v, status %q", found, status)
	}
	if err := <-r.done; !errors.Is(err, ErrCampaignCancelled) {
		r.t.Fatalf("cancelled run returned %v", err)
	}
	r.capture()
}

func newFoldLocal(t *testing.T, dir string) (*Local, *foldExec) {
	t.Helper()
	e := newFoldExec()
	l, err := newLocal(e, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(e.step) // un-park whatever run loop is left at a boundary
		l.Close()
	})
	return l, e
}

// recoverStates recovers the journal under dir the way a restarted process
// does and returns every campaign's state, by ID.
func recoverStates(t *testing.T, dir string) map[uint64]foldState {
	t.Helper()
	k := &lifecycle{keepFinished: 16, campaigns: make(map[uint64]*campaign)}
	live, err := k.recover(dir, DefaultTenantKey)
	if err != nil {
		t.Fatal(err)
	}
	defer k.store.Close()
	for _, c := range live {
		c.status = diet.CampaignRunning // as newLocal marks them before it runs them
	}
	out := make(map[uint64]foldState)
	for id, c := range k.campaigns {
		out[id] = stateOf(c)
	}
	return out
}

// TestReplayEqualsLiveAtEveryPrefix: after each of its journal records a
// live campaign shows exactly what a process recovering the journal up to
// that record shows — snapshot, info and history — through two rounds with a
// requeue to completion, and up to a cancel.
func TestReplayEqualsLiveAtEveryPrefix(t *testing.T) {
	meta := SubmitMeta{Priority: 3, Labels: map[string]string{"team": "ocean"}, Deadline: time.Hour}
	for _, variant := range []struct {
		name    string
		script  func(*foldRun)
		records int
		status  string
	}{
		{"two rounds and a requeue", (*foldRun).finish, 7, diet.CampaignDone},
		{"cancel", (*foldRun).cancel, 4, diet.CampaignCancelled},
	} {
		t.Run(variant.name, func(t *testing.T) {
			dir := t.TempDir()
			l, e := newFoldLocal(t, dir)
			r := startFoldRun(t, l, e, meta)
			r.firstRound()
			variant.script(r)
			if got := r.states[len(r.states)-1].Snapshot.Status; got != variant.status {
				t.Fatalf("campaign ended %q, want %q", got, variant.status)
			}
			// The cancelled variant's run loop is still draining its parked
			// chunk; nothing it does may reach the journal.
			journal, err := os.ReadFile(journalPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(journal, []byte("\n"))
			lines = lines[:len(lines)-1] // the empty tail after the last newline
			if len(lines) != variant.records || len(r.states) != variant.records {
				t.Fatalf("journal holds %d records, %d states captured, want %d of each", len(lines), len(r.states), variant.records)
			}
			for k := 1; k <= len(lines); k++ {
				prefix := t.TempDir()
				if err := os.WriteFile(journalPath(prefix), bytes.Join(lines[:k], nil), 0o644); err != nil {
					t.Fatal(err)
				}
				sameState(t, "after record "+string(lines[k-1]), r.states[k-1], recoverStates(t, prefix)[r.c.id])
			}
		})
	}
}

// goldenStates renders campaign states the way testdata/journal_pr19.json
// pins them.
func goldenStates(t *testing.T, states map[uint64]foldState) []byte {
	t.Helper()
	ordered := make([]foldState, 0, len(states))
	for id := uint64(1); len(ordered) < len(states); id++ {
		if st, ok := states[id]; ok {
			ordered = append(ordered, st)
		}
	}
	out, err := json.MarshalIndent(ordered, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// linesByCampaign groups a journal's lines by campaign ID, in file order.
func linesByCampaign(t *testing.T, journal []byte) map[uint64][]string {
	t.Helper()
	out := make(map[uint64][]string)
	for _, line := range bytes.SplitAfter(journal, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var head struct{ ID uint64 }
		if err := json.Unmarshal(line, &head); err != nil {
			t.Fatal(err)
		}
		out[head.ID] = append(out[head.ID], string(line))
	}
	return out
}

// TestGoldenJournalReplays: testdata/journal_pr19.wal was written by the
// code of PR 19 — before the fold was unified and before the store kept
// bytes — running this file's script: campaign 1 completes over two rounds
// with a requeue, campaign 2 is cancelled (and a straggling chunk record
// follows its terminal record), campaign 3 is cut short by a shutdown.
// testdata/journal_pr19.json holds what PR 19's own replay made of it. The
// journal must still replay to exactly that, and a rotation must carry every
// record it keeps byte for byte.
func TestGoldenJournalReplays(t *testing.T) {
	journal, err := os.ReadFile(filepath.Join("testdata", "journal_pr19.wal"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "journal_pr19.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	// Recovery rotates the journal once (the startup compaction).
	if got := goldenStates(t, recoverStates(t, dir)); !bytes.Equal(got, want) {
		t.Fatalf("golden journal replays to\n%s\nwant\n%s", got, want)
	}
	rotated, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	before, after := linesByCampaign(t, journal), linesByCampaign(t, rotated)
	before[2] = before[2][:len(before[2])-1] // the straggler is pruned, nothing else
	if !reflect.DeepEqual(before, after) || len(rotated) >= len(journal) {
		t.Fatalf("rotation changed the records it kept:\n before %q\n after  %q", before, after)
	}
	// And the rotated journal replays to the same states again.
	if got := goldenStates(t, recoverStates(t, dir)); !bytes.Equal(got, want) {
		t.Fatalf("rotated golden journal replays to\n%s\nwant\n%s", got, want)
	}
}

// TestNonsenseAdmissionIsCorrupt: an admission record whose shape no
// campaign can have (negative scenarios) is journal corruption, wherever the
// journal is replayed. A daemon opening it refuses to start with
// store.ErrCorrupt, and a ring shard whose dead peer's replica holds it
// adopts nothing from that replica. Neither may build the campaign:
// newCampaign cannot size a negative scenario list.
func TestNonsenseAdmissionIsCorrupt(t *testing.T) {
	var journal []byte
	for _, rec := range append(foldRecords(1), store.Record{Kind: store.KindAdmitted, ID: 2, Scenarios: -3, Months: 12, Heuristic: "knapsack"}) {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		journal = append(append(journal, line...), '\n')
	}

	cfg := testConfig()
	cfg.StateDir = t.TempDir()
	if err := os.WriteFile(journalPath(cfg.StateDir), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Start(cfg); !errors.Is(err, store.ErrCorrupt) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("Start on the journal: got %v, want store.ErrCorrupt", err)
	}

	cfg.StateDir = t.TempDir()
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const peer = "127.0.0.1:1" // never pinged, so dead: its campaigns are ours
	r, err := ring.New(s.Addr(), []string{s.Addr(), peer})
	if err != nil {
		t.Fatal(err)
	}
	replica := filepath.Join(cfg.StateDir, replicaName(peer))
	if err := os.WriteFile(replica, journal, 0o644); err != nil {
		t.Fatal(err)
	}
	sm := &shardManager{s: s, ring: r, members: ring.NewMembers(r, time.Second),
		tails: map[string]*replicaTail{peer: {path: replica}}}
	sm.failover(peer)
	if n := sm.adopted.Load(); n != 0 || s.lookup(1) != nil || s.lookup(2) != nil {
		t.Fatalf("adopted %d campaigns from a corrupt replica", n)
	}
}

// foldRecords is a campaign life with two rounds and a requeue, as records.
func foldRecords(id uint64) []store.Record {
	return []store.Record{
		{Kind: store.KindAdmitted, ID: id, Scenarios: 4, Months: 12, Heuristic: "knapsack"},
		{Kind: store.KindPlanned, ID: id, Round: 0, Planned: []diet.PlannedChunk{{Cluster: "a", Scenarios: 3}, {Cluster: "b", Scenarios: 1}}},
		{Kind: store.KindChunk, ID: id, IDs: []int{0, 1, 2}, Chunk: &diet.ExecResponse{Cluster: "a", Scenarios: 3, Makespan: 30, Round: 0, FirstScenario: 0}},
		{Kind: store.KindRequeue, ID: id, Requeued: 1},
		{Kind: store.KindPlanned, ID: id, Round: 1, Planned: []diet.PlannedChunk{{Cluster: "a", Scenarios: 1}}},
		{Kind: store.KindChunk, ID: id, IDs: []int{3}, Chunk: &diet.ExecResponse{Cluster: "a", Scenarios: 1, Makespan: 11.5, Round: 1, FirstScenario: 3}},
		{Kind: store.KindDone, ID: id, Status: diet.CampaignDone, Makespan: 41.5, Requeues: 1},
	}
}

// replayRecords journals recs, reopens the journal and folds what it holds.
func replayRecords(t *testing.T, recs []store.Record) map[uint64]*campaign {
	t.Helper()
	dir := t.TempDir()
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	byID, err := store.ReplayFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]*campaign)
	for id, rc := range byID {
		out[id] = recoveredCampaign(rc)
	}
	return out
}

// TestApplyFoldsRecords: what each record kind does to a campaign, read
// back from a journal — a finished campaign and one a crash cut short.
func TestApplyFoldsRecords(t *testing.T) {
	recs := append(foldRecords(7),
		store.Record{Kind: store.KindAdmitted, ID: 8, Scenarios: 5, Months: 6, Heuristic: "basic"},
		store.Record{Kind: store.KindPlanned, ID: 8, Round: 0, Planned: []diet.PlannedChunk{{Cluster: "a", Scenarios: 5}}},
		store.Record{Kind: store.KindChunk, ID: 8, IDs: []int{1, 3}, Chunk: &diet.ExecResponse{Cluster: "a", Scenarios: 2, Makespan: 9.25, Round: 0, FirstScenario: 1}})
	campaigns := replayRecords(t, recs)

	done := campaigns[7]
	select {
	case <-done.done:
	default:
		t.Fatal("campaign 7 replayed without its terminal state")
	}
	if done.status != diet.CampaignDone || math.Float64bits(done.makespan) != math.Float64bits(41.5) || done.requeues != 1 {
		t.Fatalf("campaign 7 terminal state: %q %v %d", done.status, done.makespan, done.requeues)
	}
	if len(done.remaining) != 0 || len(done.reports) != 2 || done.scenariosDone != 4 || done.rounds != 2 {
		t.Fatalf("campaign 7 progress: remaining %v, %d reports, %d done, %d rounds", done.remaining, len(done.reports), done.scenariosDone, done.rounds)
	}
	// History replays frame for frame what the live campaign published.
	var stages []string
	for i, f := range done.history {
		stages = append(stages, f.u.Stage)
		if f.u.ID != 7 || f.u.Total != 4 {
			t.Fatalf("frame %d mislabeled: %+v", i, f.u)
		}
	}
	if want := []string{diet.StagePlanned, diet.StageChunk, diet.StageRequeue, diet.StagePlanned, diet.StageChunk}; !reflect.DeepEqual(stages, want) {
		t.Fatalf("history stages %v, want %v", stages, want)
	}
	if done.history[1].u.Done != 3 || done.history[4].u.Done != 4 {
		t.Fatalf("chunk frames carry Done %d, %d; want 3, 4", done.history[1].u.Done, done.history[4].u.Done)
	}

	live := campaigns[8]
	if live.claimed || live.aborted() {
		t.Fatalf("campaign 8 replayed terminal: %q", live.status)
	}
	if !reflect.DeepEqual(live.remaining, []int{0, 2, 4}) || live.scenariosDone != 2 || len(live.reports) != 1 {
		t.Fatalf("campaign 8 progress: remaining %v, %d done, %d reports", live.remaining, live.scenariosDone, len(live.reports))
	}
	if math.Float64bits(live.reports[0].Makespan) != math.Float64bits(9.25) {
		t.Fatalf("chunk makespan did not round-trip bit-exact: %v", live.reports[0].Makespan)
	}
}

// TestApplyCancelledIsTerminal: a cancelled record ends a campaign — never
// re-admitted — with its submit options and its banked chunk intact.
func TestApplyCancelledIsTerminal(t *testing.T) {
	c := replayRecords(t, []store.Record{
		{Kind: store.KindAdmitted, ID: 7, Scenarios: 4, Months: 12, Heuristic: "knapsack",
			Priority: 5, Labels: map[string]string{"team": "ocean"}, Deadline: 90 * time.Second},
		{Kind: store.KindChunk, ID: 7, IDs: []int{0, 1}, Chunk: &diet.ExecResponse{Cluster: "a", Scenarios: 2, Makespan: 20}},
		{Kind: store.KindCancelled, ID: 7},
	})[7]
	if !c.claimed || !c.aborted() || c.status != diet.CampaignCancelled {
		t.Fatalf("replayed cancelled campaign: claimed %v, status %q", c.claimed, c.status)
	}
	if c.priority != 5 || c.labels["team"] != "ocean" || c.deadline != 90*time.Second {
		t.Fatalf("submit options mangled by replay: %d %v %v", c.priority, c.labels, c.deadline)
	}
	if c.scenariosDone != 2 || len(c.reports) != 1 {
		t.Fatalf("cancelled campaign lost its chunk: %d done, %d reports", c.scenariosDone, len(c.reports))
	}
}

// TestApplyIgnoresRecordsAfterTerminal: the store drops stragglers when it
// groups a journal; apply holds the same line on its own, which is what
// keeps a live chunk that raced a cancel claim off every stream.
func TestApplyIgnoresRecordsAfterTerminal(t *testing.T) {
	c := newCampaign(4, core.Application{Scenarios: 4, Months: 12}, "knapsack", submitMeta{})
	if !c.apply(&store.Record{Kind: store.KindCancelled, ID: 4}) {
		t.Fatal("the terminal record had no effect")
	}
	for _, rec := range []store.Record{
		{Kind: store.KindChunk, ID: 4, IDs: []int{0, 1}, Chunk: &diet.ExecResponse{Cluster: "a", Scenarios: 2, Makespan: 20}},
		{Kind: store.KindRequeue, ID: 4, Requeued: 2},
		{Kind: store.KindPlanned, ID: 4, Round: 0},
		{Kind: store.KindDone, ID: 4, Status: diet.CampaignDone, Makespan: 20},
	} {
		if c.apply(&rec) {
			t.Fatalf("%s record took effect after the terminal one", rec.Kind)
		}
	}
	if c.status != diet.CampaignCancelled || c.makespan != 0 {
		t.Fatalf("the cancelled verdict did not stand: %q, makespan %v", c.status, c.makespan)
	}
	if c.scenariosDone != 0 || len(c.reports) != 0 || c.requeues != 0 || c.rounds != 0 || len(c.history) != 0 {
		t.Fatalf("straggler records resurrected: %+v", stateOf(c))
	}
}
