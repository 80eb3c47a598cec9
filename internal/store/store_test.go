package store

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"oagrid/internal/diet"
)

// campaignRecords is a full happy-path campaign life: two rounds, a requeue.
func campaignRecords(id uint64) []Record {
	return []Record{
		{Kind: KindAdmitted, ID: id, Scenarios: 4, Months: 12, Heuristic: "knapsack"},
		{Kind: KindPlanned, ID: id, Round: 0, Planned: []diet.PlannedChunk{{Cluster: "a", Scenarios: 3}, {Cluster: "b", Scenarios: 1}}},
		{Kind: KindChunk, ID: id, IDs: []int{0, 1, 2}, Chunk: &diet.ExecResponse{Cluster: "a", Scenarios: 3, Makespan: 30, Round: 0, FirstScenario: 0}},
		{Kind: KindRequeue, ID: id, Requeued: 1},
		{Kind: KindPlanned, ID: id, Round: 1, Planned: []diet.PlannedChunk{{Cluster: "a", Scenarios: 1}}},
		{Kind: KindChunk, ID: id, IDs: []int{3}, Chunk: &diet.ExecResponse{Cluster: "a", Scenarios: 1, Makespan: 11.5, Round: 1, FirstScenario: 3}},
		{Kind: KindDone, ID: id, Status: diet.CampaignDone, Makespan: 41.5, Requeues: 1},
	}
}

// journalCampaign writes campaignRecords(id) into st.
func journalCampaign(t *testing.T, st *Store, id uint64) {
	t.Helper()
	appendAll(t, st, campaignRecords(id))
}

func appendAll(t *testing.T, st *Store, recs []Record) {
	t.Helper()
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// sameRecords requires c to hold exactly want, in order. (What the records
// fold to is grid's campaign.apply and is tested there.)
func sameRecords(t *testing.T, c *Campaign, want []Record) {
	t.Helper()
	if c == nil {
		t.Fatalf("campaign missing, want records %+v", want)
	}
	if got := c.Records(); !reflect.DeepEqual(got, want) {
		t.Fatalf("campaign %d holds\n %+v\nwant\n %+v", c.ID, got, want)
	}
}

func TestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh journal recovered %d campaigns", len(recovered))
	}
	journalCampaign(t, st, 7)
	// A second, unfinished campaign: admitted, one round planned, one chunk
	// done, then the process dies.
	unfinished := []Record{
		{Kind: KindAdmitted, ID: 8, Scenarios: 5, Months: 6, Heuristic: "basic"},
		{Kind: KindPlanned, ID: 8, Round: 0, Planned: []diet.PlannedChunk{{Cluster: "a", Scenarios: 5}}},
		{Kind: KindChunk, ID: 8, IDs: []int{1, 3}, Chunk: &diet.ExecResponse{Cluster: "a", Scenarios: 2, Makespan: 9.25, Round: 0, FirstScenario: 1}},
	}
	appendAll(t, st, unfinished)
	st.Close()

	st2, recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(recovered) != 2 {
		t.Fatalf("recovered %d campaigns, want 2", len(recovered))
	}
	if got := MaxID(recovered); got != 8 {
		t.Fatalf("MaxID = %d, want 8", got)
	}

	// Records come back grouped per campaign, in order, every field intact.
	if !recovered[7].Terminal() {
		t.Fatalf("campaign 7 not terminal: %+v", recovered[7])
	}
	sameRecords(t, recovered[7], campaignRecords(7))
	if recovered[8].Terminal() {
		t.Fatalf("campaign 8 recovered terminal: %+v", recovered[8])
	}
	sameRecords(t, recovered[8], unfinished)
	if got := recovered[8].Records()[2].Chunk.Makespan; math.Float64bits(got) != math.Float64bits(9.25) {
		t.Fatalf("chunk makespan did not round-trip bit-exact: %v", got)
	}

	// Appends continue cleanly on the reopened journal.
	if err := st2.Append(Record{Kind: KindDone, ID: 8, Status: diet.CampaignFailed, Err: "x"}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialTrailingRecordTruncated: a kill -9 mid-append leaves a torn
// final line; Open must drop exactly that line and keep everything before.
func TestPartialTrailingRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	journalCampaign(t, st, 1)
	st.Close()

	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"chunk","id":1,"chu`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	st2, recovered, err := Open(dir)
	if err != nil {
		t.Fatalf("torn journal rejected: %v", err)
	}
	defer st2.Close()
	if len(recovered) != 1 || !recovered[1].Terminal() {
		t.Fatalf("recovered %+v", recovered)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("journal not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
}

// TestMidFileCorruptionRejected: a malformed record with complete records
// after it is real corruption, not a crash artifact — Open must refuse to
// silently drop journaled state.
func TestMidFileCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	journalCampaign(t, st, 1)
	st.Close()

	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json\n" + `{"kind":"admitted","id":2,"scenarios":1,"months":1}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := Open(dir); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestByIDOrder(t *testing.T) {
	m := map[uint64]*Campaign{3: {ID: 3}, 1: {ID: 1}, 2: {ID: 2}}
	got := ByID(m)
	for i, want := range []uint64{1, 2, 3} {
		if got[i].ID != want {
			t.Fatalf("ByID order %v", got)
		}
	}
}

// TestMissingTrailingNewlineDropped: a torn append can persist every byte
// of a record except its terminating newline. Such a record was never
// acknowledged, so Open must drop it — and must NOT count its bytes into
// the truncation offset (which would extend the file with NUL bytes and
// poison the next replay).
func TestMissingTrailingNewlineDropped(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	journalCampaign(t, st, 1)
	st.Close()

	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Complete JSON, missing only the '\n'.
	if _, err := f.WriteString(`{"kind":"admitted","id":2,"scenarios":1,"months":1}`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d campaigns, want 1 (the unterminated admit dropped)", len(recovered))
	}
	if err := st2.Append(Record{Kind: KindAdmitted, ID: 3, Scenarios: 1, Months: 1}); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	// The journal must still be fully parseable on the next open — no NUL
	// padding, no concatenated records.
	st3, recovered, err := Open(dir)
	if err != nil {
		t.Fatalf("journal poisoned after torn-newline recovery: %v", err)
	}
	defer st3.Close()
	if len(recovered) != 2 || recovered[3] == nil {
		t.Fatalf("recovered %+v, want campaigns 1 and 3", recovered)
	}
}

// TestCompactDropsUnkeptCampaigns: the startup compaction — a rotation right
// after Open — rewrites the journal with exactly the retained campaigns'
// records; dropped campaigns stay gone on the next replay and appends
// continue cleanly afterwards.
func TestCompactDropsUnkeptCampaigns(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	journalCampaign(t, st, 1)
	journalCampaign(t, st, 2)
	st.Close()

	st2, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	st2.AutoRotate(1<<20, func() []uint64 { return []uint64{2} })
	if err := st2.Rotate(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink the journal: %d -> %d bytes", before.Size(), after.Size())
	}
	// Appends after compaction land after the kept records.
	if err := st2.Append(Record{Kind: KindAdmitted, ID: 5, Scenarios: 2, Months: 2}); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	st3, recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if len(recovered) != 2 || recovered[1] != nil || recovered[2] == nil || recovered[5] == nil {
		t.Fatalf("post-compaction replay recovered %+v, want campaigns 2 and 5 only", recovered)
	}
	if !recovered[2].Terminal() {
		t.Fatalf("kept campaign lost its terminal record: %+v", recovered[2])
	}
	sameRecords(t, recovered[2], campaignRecords(2))
}

// TestSecondOpenLockedOut: two processes (here: two opens) on one state dir
// would interleave appends into corruption — the second Open must fail
// fast, and a Close must release the dir for the next owner.
func TestSecondOpenLockedOut(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil {
		t.Fatal("second Open on a held state dir succeeded")
	}
	// A rewrite swaps the journal inode; the lock must move with it.
	journalCampaign(t, st, 1)
	st.AutoRotate(1<<20, func() []uint64 { return nil })
	if err := st.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil {
		t.Fatal("state dir unlocked after compaction")
	}
	st.Close()
	st2, _, err := Open(dir)
	if err != nil {
		t.Fatalf("state dir still locked after Close: %v", err)
	}
	st2.Close()
}

// TestCancelledRecordIsTerminal: a cancelled record closes a campaign for
// replay purposes — Terminal() is true after a reopen, so a restarted owner
// never re-admits it — and the submit options journaled with the admission
// round-trip.
func TestCancelledRecordIsTerminal(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindAdmitted, ID: 7, Scenarios: 4, Months: 12, Heuristic: "knapsack",
			Priority: 5, Labels: map[string]string{"team": "ocean"}, Deadline: 90 * time.Second},
		{Kind: KindChunk, ID: 7, IDs: []int{0, 1}, Chunk: &diet.ExecResponse{Cluster: "a", Scenarios: 2, Makespan: 20}},
		{Kind: KindCancelled, ID: 7},
	}
	appendAll(t, st, recs)
	st.Close()

	st2, recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	c := recovered[7]
	if c == nil || !c.Terminal() {
		t.Fatalf("replayed cancelled campaign = %+v, want terminal", c)
	}
	// The completed chunk is still on file (done work is never lost, even on
	// a cancelled campaign).
	sameRecords(t, c, recs)
}

// TestOnlineRotation: with AutoRotate armed, a journal serving a stream of
// short-lived campaigns stays bounded while open — the live segment is
// checkpointed down to the retained campaigns once it outgrows the
// threshold — and the rotated journal still replays exactly the retained
// set. The advisory lock travels with the live segment.
func TestOnlineRotation(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Retention: only the three most recently admitted campaigns survive.
	var mu sync.Mutex
	var live []uint64
	retain := func() []uint64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint64(nil), live...)
	}
	const threshold = 4 << 10
	st.AutoRotate(threshold, retain)

	for id := uint64(1); id <= 60; id++ {
		mu.Lock()
		live = append(live, id)
		if len(live) > 3 {
			live = live[1:]
		}
		mu.Unlock()
		journalCampaign(t, st, id)
	}

	// Bounded: the live segment holds at most the retained campaigns plus
	// one threshold's worth of growth since the last rotation.
	fi, err := os.Stat(st.path)
	if err != nil {
		t.Fatal(err)
	}
	perCampaign := int64(1 << 10) // generous bound on one campaign's records
	if max := threshold + 3*perCampaign + perCampaign; fi.Size() > max {
		t.Fatalf("journal grew to %d bytes across 60 campaigns (want ≤ %d): rotation never fired", fi.Size(), max)
	}

	// The lock still guards the (rotated) live segment.
	if _, _, err := Open(dir); err == nil {
		t.Fatal("state dir unlocked after online rotation")
	}

	// An explicit checkpoint drops everything the retention no longer
	// reports (campaigns appended since the last threshold crossing linger
	// only until then).
	if err := st.Rotate(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// The rotated journal replays exactly the retained campaigns,
	// bit-complete.
	st2, recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, id := range []uint64{58, 59, 60} {
		if c := recovered[id]; c == nil || !c.Terminal() {
			t.Fatalf("retained campaign %d mangled by rotation: %+v", id, c)
		}
		sameRecords(t, recovered[id], campaignRecords(id))
	}
	for id, c := range recovered {
		if id < 58 {
			t.Fatalf("rotation kept pruned campaign %d: %+v", id, c)
		}
	}
}

// TestReplayIgnoresStragglersAfterTerminal: a chunk journaled around a
// cancel claim was discarded live; replay files nothing after the terminal
// record that won, so the stragglers reach no fold and are pruned from the
// file by the next rotation.
func TestReplayIgnoresStragglersAfterTerminal(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindAdmitted, ID: 4, Scenarios: 4, Months: 12, Heuristic: "knapsack"},
		{Kind: KindCancelled, ID: 4},
		// Stragglers journaled after the terminal record.
		{Kind: KindChunk, ID: 4, IDs: []int{0, 1}, Chunk: &diet.ExecResponse{Cluster: "a", Scenarios: 2, Makespan: 20}},
		{Kind: KindRequeue, ID: 4, Requeued: 2},
		{Kind: KindDone, ID: 4, Status: diet.CampaignDone, Makespan: 20},
		// And a record of a campaign with no admission record.
		{Kind: KindRequeue, ID: 5, Requeued: 1},
	}
	appendAll(t, st, recs)
	withStragglers := st.Size()
	st.Close()

	st2, recovered, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(recovered) != 1 || !recovered[4].Terminal() {
		t.Fatalf("replayed %+v, want campaign 4 alone, terminal", recovered)
	}
	sameRecords(t, recovered[4], recs[:2])
	st2.AutoRotate(1<<20, func() []uint64 { return []uint64{4} })
	if err := st2.Rotate(); err != nil {
		t.Fatal(err)
	}
	if st2.Size() >= withStragglers {
		t.Fatalf("rotation kept the stragglers: %d -> %d bytes", withStragglers, st2.Size())
	}
}
