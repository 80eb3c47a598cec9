package grid

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
	"oagrid/internal/ring"
)

// ringTestMember is one in-process shard of a test ring: a durable scheduler
// plus a close guard (the failover test kills one member mid-run and the
// cleanup must not close it twice).
type ringTestMember struct {
	sched *Scheduler
	once  sync.Once
}

func (m *ringTestMember) close() {
	m.once.Do(func() { m.sched.Close() })
}

// startTestRing starts n durable schedulers on ephemeral ports, joins them
// into one ring with tight heartbeats, and registers cleanup.
func startTestRing(t *testing.T, n int, hb, dead time.Duration) ([]*ringTestMember, []string) {
	t.Helper()
	base := t.TempDir()
	members := make([]*ringTestMember, n)
	addrs := make([]string, n)
	for i := range members {
		cfg := testConfig()
		cfg.StateDir = filepath.Join(base, fmt.Sprintf("shard%d", i))
		sched, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = &ringTestMember{sched: sched}
		addrs[i] = sched.Addr()
		t.Cleanup(members[i].close)
	}
	for i, m := range members {
		if err := m.sched.JoinRing(addrs[i], addrs, hb, dead); err != nil {
			t.Fatal(err)
		}
	}
	return members, addrs
}

// startRingSeDs gives one shard a SeD fleet over the paper's first two
// cluster profiles at 30 processors — the same fleet on every shard, which
// is what makes cross-shard failover bit-identical.
func startRingSeDs(t *testing.T, schedAddr string, clusters map[string]*platform.Cluster) {
	t.Helper()
	for _, cl := range platform.FiveClusters()[:2] {
		cl.Procs = 30
		sed, err := diet.StartSeD("127.0.0.1:0", cl, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sed.Close() })
		sed.StartHeartbeats(schedAddr, 25*time.Millisecond)
		clusters[cl.Name] = cl
	}
}

// waitLocalAlive polls a scheduler's own (in-process, non-fanned-out) stats
// until n SeDs are alive.
func waitLocalAlive(t *testing.T, s *Scheduler, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		alive := 0
		for _, sd := range s.Stats().SeDs {
			if sd.Alive {
				alive++
			}
		}
		if alive >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler %s never saw %d live SeDs", s.Addr(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRingFailoverBitIdentical is the tentpole acceptance test: a 3-shard
// ring takes campaigns on every member, one member dies with admitted but
// unstarted campaigns, the survivors replay its WAL replica, adopt its
// campaigns by failover ownership, and finish every one of them — with
// results bit-identical to a standalone daemon running the same application
// over the same cluster profiles.
func TestRingFailoverBitIdentical(t *testing.T) {
	members, addrs := startTestRing(t, 3, 25*time.Millisecond, 150*time.Millisecond)

	// Shards 1 and 2 get identical SeD fleets; shard 0 — the victim — gets
	// none, so its campaigns are guaranteed non-terminal when it dies.
	clusters := map[string]*platform.Cluster{}
	startRingSeDs(t, addrs[1], clusters)
	startRingSeDs(t, addrs[2], clusters)
	waitLocalAlive(t, members[1].sched, 2, 5*time.Second)
	waitLocalAlive(t, members[2].sched, 2, 5*time.Second)

	// Reference outcome: a standalone (ring-free) daemon over the same two
	// profiles. Deterministic evaluation makes every campaign of the same
	// application bit-identical to this, wherever it runs.
	app := core.Application{Scenarios: 4, Months: 12}
	ref := startFabric(t, testConfig(), 2)
	want, err := (&Client{Addr: ref.Sched.Addr(), Timeout: 60 * time.Second}).RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Two campaigns per shard, admitted at their submission target (submits
	// are always served locally, so admission spreads ownership).
	const campaigns = 6
	ids := make([]uint64, campaigns)
	for i := 0; i < campaigns; i++ {
		c := &Client{Addr: addrs[i%3], Timeout: 30 * time.Second}
		id, err := submit(t, c, app, core.NameKnapsack)
		if err != nil { // a rejection included: it wraps ErrRejected
			t.Fatalf("submit %d via %s: %v", i, addrs[i%3], err)
		}
		ids[i] = id
	}
	// Shard-minted IDs must be home-owned by their minting shard.
	sm0 := members[0].sched.shardManager()
	for i, id := range ids {
		if home := sm0.ring.Home(id); home != addrs[i%3] {
			t.Fatalf("campaign %d (id %d) minted by %s but home is %s", i, id, addrs[i%3], home)
		}
	}

	// Wait until both survivors' replicas cover the victim's whole journal —
	// the durability precondition for failover.
	victim := members[0].sched
	victimSize := victim.store.Size()
	if victimSize == 0 {
		t.Fatal("victim journaled nothing")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, si := range []int{1, 2} {
			if members[si].sched.shardManager().replicaBytes(addrs[0]) < victimSize {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never caught up to the victim's %d journal bytes", victimSize)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill the victim. The survivors declare it dead after the silence
	// deadline and adopt its campaigns from the replica.
	members[0].close()

	// Drive every campaign to completion through the multi-addr client: it
	// follows ownership redirects, learns routes, and rotates off the dead
	// member. Adoption is asynchronous, so unknown-campaign verdicts and
	// dead-owner windows are retried until the deadline.
	mc := &Client{Addr: addrs[1], Addrs: []string{addrs[2]}, Timeout: 60 * time.Second}
	deadline = time.Now().Add(60 * time.Second)
	for i, id := range ids {
		for {
			res, err := mc.AttachContext(context.Background(), id, nil, nil)
			if err == nil {
				sameCampaignOutcome(t, fmt.Sprintf("ring campaign %d (id %d)", i, id), res, want)
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign %d (id %d) never completed after failover: %v", i, id, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// And the serial verifier agrees end to end.
	v, err := NewVerifier(clusters, core.NameKnapsack)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(app, want); err != nil {
		t.Fatal(err)
	}

	// The victim's two campaigns were adopted exactly once across survivors.
	adopted := members[1].sched.shardManager().adopted.Load() +
		members[2].sched.shardManager().adopted.Load()
	if adopted != 2 {
		t.Fatalf("survivors adopted %d campaigns, want 2", adopted)
	}

	// Fan-out views: any surviving member answers for the whole ring, each
	// asking the other survivor for its Local view.
	served := ringServed(t, members[1].sched) + ringServed(t, members[2].sched)
	infos, err := mc.ListCampaignsContext(context.Background(), &diet.ListCampaignsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != campaigns {
		t.Fatalf("ring-wide list holds %d campaigns, want %d", len(infos), campaigns)
	}
	seen := map[uint64]bool{}
	for _, info := range infos {
		if seen[info.ID] {
			t.Fatalf("ring-wide list repeats campaign %d", info.ID)
		}
		seen[info.ID] = true
	}
	stats, err := mc.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != campaigns {
		t.Fatalf("ring-wide stats count %d completed, want %d", stats.Completed, campaigns)
	}
	if got := ringServed(t, members[1].sched) + ringServed(t, members[2].sched) - served; got != 2 {
		t.Fatalf("survivors served %v local views for one list and one stats fan-out, want 2", got)
	}

	// Fresh work still flows through the survivors.
	res, err := mc.RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameCampaignOutcome(t, "post-failover campaign", res, want)
}

// subFloorPeer is a fake ring peer of self from before the protocol floor:
// it answers every request with a well-formed frame stamped one version below
// it — a ping answer, a segment shipping a finished campaign homed on the
// peer — and counts the requests of each kind it saw. It returns its address and
// that campaign's ID.
func subFloorPeer(t *testing.T, self string) (string, uint64, func(kind string) int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	addr := ln.Addr().String()
	r, err := ring.New(self, []string{self, addr})
	if err != nil {
		t.Fatal(err)
	}
	id := uint64(1)
	for r.Home(id) != addr {
		id++
	}
	journal := []byte(fmt.Sprintf(`{"kind":"admitted","id":%d,"scenarios":2,"months":6,"heuristic":"knapsack"}`+"\n"+
		`{"kind":"done","id":%d,"status":"done","makespan":1}`+"\n", id, id))
	var mu sync.Mutex
	seen := map[string]int{}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for dec := (&diet.FrameDecoder{}); ; {
					req, err := dec.ReadRequest(conn)
					if err != nil {
						return
					}
					mu.Lock()
					seen[req.Kind]++
					mu.Unlock()
					resp := &diet.Response{KeepAlive: req.KeepAlive, Err: "unsupported"}
					switch req.Kind {
					case diet.KindRingPing:
						resp.Err, resp.Ring = "", &diet.RingPingResponse{}
					case diet.KindSegment:
						resp.Err, resp.Segment = "", &diet.SegmentResponse{Generation: 1, Offset: int64(len(journal)), Data: journal, Reset: true}
					}
					frame, _ := diet.AppendResponseFrame(nil, resp)
					frame[4] = diet.ProtocolFloor - 1 // the header's version byte
					if _, err := conn.Write(frame); err != nil {
						return
					}
				}
			}()
		}
	}()
	return addr, id, func(kind string) int {
		mu.Lock()
		defer mu.Unlock()
		return seen[kind]
	}
}

// TestRingRefusesIncompatiblePeer: a ring member whose peer answers every
// exchange with frames stamped below the protocol floor never counts that
// peer alive — its pings fail to decode — so the peer is never an owner and
// its journal is never adopted, however well-formed, and the ring keeps
// serving campaigns bit-identically. The member itself still answers a ping,
// at the current version.
func TestRingRefusesIncompatiblePeer(t *testing.T) {
	cfg := testConfig()
	cfg.StateDir = t.TempDir()
	f := startFabric(t, cfg, 2)
	cur := f.Sched
	oldAddr, homed, seen := subFloorPeer(t, cur.Addr())
	if err := cur.JoinRing(cur.Addr(), []string{cur.Addr(), oldAddr}, 25*time.Millisecond, 150*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sm := cur.shardManager()
	for deadline := time.Now().Add(5 * time.Second); seen(diet.KindRingPing) < 8; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("ring pinged the peer only %d times", seen(diet.KindRingPing))
		}
	}
	if sm.members.Alive(oldAddr) {
		t.Fatal("sub-floor peer counted alive")
	}
	if owner := sm.owner(homed); owner != cur.Addr() {
		t.Fatalf("campaign %d, homed on the sub-floor peer, is owned by %s", homed, owner)
	}
	if n := seen(diet.KindSegment); n != 0 {
		t.Fatalf("the ring pulled the sub-floor peer's journal %d times", n)
	}
	if n := sm.adopted.Load(); n != 0 || cur.lookup(homed) != nil {
		t.Fatalf("adopted %d campaigns from the sub-floor peer", n)
	}

	app := core.Application{Scenarios: 4, Months: 12}
	res, err := (&Client{Addr: cur.Addr(), Timeout: 30 * time.Second}).RunContext(context.Background(), app, core.NameKnapsack, SubmitMeta{}, nil, nil)
	if err != nil {
		t.Fatalf("ring member with a sub-floor peer stopped serving: %v", err)
	}
	verifyReports(t, f, app, core.NameKnapsack, res)
	resp, err := diet.RoundTrip(cur.Addr(), &diet.Request{Kind: diet.KindRingPing, Ring: &diet.RingPingRequest{}})
	if err != nil || resp.Ring == nil || resp.Version != diet.ProtocolVersion {
		t.Fatalf("ring ping answered %+v, %v; want a ping answer at v%d", resp, err, diet.ProtocolVersion)
	}
}

// TestOwnedIDAfterMintsOnlyHomeIDs pins the allocation rule that keeps shard
// ID ranges disjoint: a ring member's allocator skips exactly the IDs other
// shards are home for, and a standalone scheduler allocates densely.
func TestOwnedIDAfterMintsOnlyHomeIDs(t *testing.T) {
	members := []string{"a:1", "b:1", "c:1"}
	for _, self := range members {
		r, err := ring.New(self, members)
		if err != nil {
			t.Fatal(err)
		}
		s := &Scheduler{}
		s.shard.Store(&shardManager{ring: r})
		id := uint64(0)
		for i := 0; i < 200; i++ {
			next := s.ownedIDAfter(id)
			if next <= id {
				t.Fatalf("%s: ownedIDAfter(%d) = %d did not advance", self, id, next)
			}
			if home := r.Home(next); home != self {
				t.Fatalf("%s minted id %d homed at %s", self, next, home)
			}
			for j := id + 1; j < next; j++ {
				if r.Home(j) == self {
					t.Fatalf("%s skipped its own id %d on the way to %d", self, j, next)
				}
			}
			id = next
		}
	}
	// Standalone: every ID qualifies.
	s := &Scheduler{}
	if got := s.ownedIDAfter(7); got != 8 {
		t.Fatalf("standalone ownedIDAfter(7) = %d, want 8", got)
	}
}

// TestRingRouteCacheBounded pins the client route cache's bound: learning
// far more routes than the cap never grows the cache past it, and a
// single-daemon deployment (owner == seed) never populates it at all.
func TestRingRouteCacheBounded(t *testing.T) {
	for i := 0; i < maxRingRoutes+512; i++ {
		learnRoute("bound-test-seed:1", uint64(i+1), "bound-test-owner:1")
	}
	if n := ringRouteCacheLen(); n > maxRingRoutes {
		t.Fatalf("route cache holds %d entries, cap is %d", n, maxRingRoutes)
	}
	before := ringRouteCacheLen()
	learnRoute("solo:1", 42, "solo:1") // owner == seed: the single-daemon case
	if got := ringRouteCacheLen(); got != before {
		t.Fatalf("single-daemon route cached (len %d -> %d)", before, got)
	}
	if got := routeFor("solo:1", 42); got != "" {
		t.Fatalf("routeFor learned a self-route %q", got)
	}
	learnRoute("f:1", 7, "g:1")
	if got := routeFor("f:1", 7); got != "g:1" {
		t.Fatalf("routeFor = %q, want g:1", got)
	}
	forgetRoute("f:1", 7)
	if got := routeFor("f:1", 7); got != "" {
		t.Fatalf("forgotten route still resolves to %q", got)
	}
}

// TestQueuePositionNoAllocs is the regression test for the Info hot path:
// one campaign's queue position must not allocate, however deep the queues
// are — the old implementation rebuilt a sorted position map of every queued
// campaign per Info call.
func TestQueuePositionNoAllocs(t *testing.T) {
	for _, depth := range []int{4, 512} {
		s := &Scheduler{tenants: map[string]*tenantState{}}
		ts := &tenantState{name: "default", weight: 1}
		now := time.Now()
		for i := 0; i < depth; i++ {
			ts.queue = append(ts.queue, &campaign{
				id:         uint64(i + 1),
				priority:   i % 7,
				tenant:     "default",
				enqueuedAt: now,
			})
		}
		s.tenants["default"] = ts
		probe := ts.queue[depth/2]
		allocs := testing.AllocsPerRun(100, func() {
			if got := s.queuePosition(probe); got == 0 {
				t.Fatalf("queued campaign ranked 0")
			}
		})
		if allocs != 0 {
			t.Fatalf("queuePosition allocates %.1f objects/op at depth %d, want 0", allocs, depth)
		}
	}
}

// TestDeadRingPeerConnectionsDropped: the tick that first sees a peer dead
// closes the connections kept to it, instead of leaving them to age out
// (maxIdleAge) or to be used up one failing ping at a time.
func TestDeadRingPeerConnectionsDropped(t *testing.T) {
	// A death deadline below the heartbeat: the first ping that fails finds
	// the peer already silent for too long, so exactly one kept connection is
	// spent on noticing the death.
	members, addrs := startTestRing(t, 2, 300*time.Millisecond, 100*time.Millisecond)
	victim, sm := addrs[0], members[1].sched.shardManager()

	// Two exchanges at once make the survivor keep two connections to the
	// victim (testConfig's PerSeDInFlight).
	ping := &diet.Request{Kind: diet.KindRingPing, Ring: &diet.RingPingRequest{}}
	for attempt := 0; sm.transport.Dials() < 2; attempt++ {
		if attempt == 200 {
			t.Fatalf("the survivor opened %d connections to its peer, want 2", sm.transport.Dials())
		}
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := *ping
				if _, err := sm.call(victim, &req); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}

	members[0].close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		sm.mu.Lock()
		seenDead := sm.failedOver[victim]
		sm.mu.Unlock()
		if seenDead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the survivor never saw its peer dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Stop the ring loop (the tick that saw the death finishes first): from
	// here on nothing else touches the transport, so its idle table can be
	// read without its lock.
	close(sm.stop)
	sm.wg.Wait()
	idle := reflect.ValueOf(sm.transport).Elem().FieldByName("idle")
	if conns := idle.MapIndex(reflect.ValueOf(victim)); conns.IsValid() {
		t.Fatalf("%d connection(s) still kept to the dead peer", conns.Len())
	}
}

// ringServed reads oagrid_ring_served_total off s's /metrics page.
func ringServed(t *testing.T, s *Scheduler) float64 {
	t.Helper()
	var page bytes.Buffer
	s.writeMetrics(&page)
	for _, line := range strings.Split(page.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "oagrid_ring_served_total "); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("no oagrid_ring_served_total on /metrics")
	return 0
}

// TestMergeStatsKeepsEveryField: a ring-wide Stats folds in every field a
// member reports. Merging a member whose every field is non-zero into an
// empty snapshot must leave every field non-zero, so a field added to
// StatsResponse without a merge rule fails here.
func TestMergeStatsKeepsEveryField(t *testing.T) {
	var src, dst diet.StatsResponse
	v := reflect.ValueOf(&src).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(3)
		case reflect.Uint64:
			f.SetUint(3)
		case reflect.Float64:
			f.SetFloat(3)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		default:
			t.Fatalf("StatsResponse.%s: no non-zero value for a %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	mergeStats(&dst, &src)
	got := reflect.ValueOf(dst)
	for i := 0; i < got.NumField(); i++ {
		if got.Field(i).IsZero() {
			t.Errorf("StatsResponse.%s is lost by the ring-wide merge", got.Type().Field(i).Name)
		}
	}
}
