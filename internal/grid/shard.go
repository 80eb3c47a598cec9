package grid

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oagrid/internal/diet"
	"oagrid/internal/ring"
	"oagrid/internal/store"
)

// ringCallTimeout bounds one shard-to-shard exchange: a ring ping, a WAL
// segment pull, or a fan-out's local stats or list. Ring peers are other
// daemons on the same deployment, so the transport default is generous
// enough.
const ringCallTimeout = 5 * time.Second

// shardManager is the scheduler's ring runtime: the consistent-hash
// ownership view, the peer liveness tracker, the WAL replica tails, and the
// failover that replays a dead peer's campaigns into this shard. It is
// attached to a running Scheduler by JoinRing and driven by one loop
// goroutine per shard.
type shardManager struct {
	s       *Scheduler
	ring    *ring.Ring
	members *ring.Members
	hbEvery time.Duration
	// transport keeps the connections to ring peers: pings and segment pulls
	// from the loop, fan-outs from serving goroutines.
	transport *diet.Transport

	stop chan struct{}
	wg   sync.WaitGroup

	// Shard gauges, exposed on /metrics.
	redirected atomic.Uint64 // clients pointed at the owner to retry direct
	fanouts    atomic.Uint64 // list/stats fan-outs over the alive peer set
	served     atomic.Uint64 // local stats and lists served on a peer's behalf
	adopted    atomic.Uint64 // campaigns adopted from dead peers' replicas

	mu    sync.Mutex
	tails map[string]*replicaTail
	// failedOver latches peers whose replica was already replayed since
	// they last went dead, so a dead peer is adopted once per death, not
	// once per tick. A peer coming back alive clears its latch; a change in
	// the alive set clears every latch, because ownership under the new
	// view may hand this shard campaigns an earlier replay skipped.
	failedOver map[string]bool
	lastAlive  string
}

// replicaTail is the pull state of one peer's WAL replica: the generation
// and offset acknowledged so far, and the local file the segments append to.
type replicaTail struct {
	path string
	gen  uint64
	off  int64
}

// replicaName maps a peer address onto its replica file name under the
// state dir ("127.0.0.1:7714" → "replica-127.0.0.1_7714.wal").
func replicaName(addr string) string {
	return "replica-" + strings.NewReplacer(":", "_", "/", "_").Replace(addr) + ".wal"
}

// JoinRing makes this scheduler one shard of a static daemon ring: self is
// the address peers know this shard by (it must appear in members), members
// is the full ring list shared by every shard. Campaign IDs are owned by
// consistent hash — this shard only mints IDs it is home for, redirects
// requests for campaigns it does not own, and fans List/Stats out over the
// alive peers. Every hbEvery it pings each peer (a peer whose answer does
// not decode — one below the protocol floor — is never alive) and tails
// each peer's WAL into a local replica; a peer silent past deadAfter is
// declared dead and its campaigns — those whose failover owner is this shard
// — are replayed from the replica, re-admitted, and finished here. Ring
// membership requires a StateDir: the WAL is both the replication source and
// the failover substrate. Call after Start; zero durations pick 1s
// heartbeats and a 4-heartbeat death deadline.
func (s *Scheduler) JoinRing(self string, members []string, hbEvery, deadAfter time.Duration) error {
	if s.store == nil {
		return errors.New("grid: ring membership requires a StateDir (the WAL is the failover substrate)")
	}
	r, err := ring.New(self, members)
	if err != nil {
		return err
	}
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	if deadAfter <= 0 {
		deadAfter = 4 * hbEvery
	}
	sm := &shardManager{
		s:          s,
		ring:       r,
		members:    ring.NewMembers(r, deadAfter),
		hbEvery:    hbEvery,
		transport:  diet.NewTransport(s.cfg.PerSeDInFlight),
		stop:       make(chan struct{}),
		tails:      make(map[string]*replicaTail),
		failedOver: make(map[string]bool),
	}
	for _, p := range r.Peers() {
		sm.tails[p] = &replicaTail{path: filepath.Join(s.cfg.StateDir, replicaName(p))}
	}
	if !s.shard.CompareAndSwap(nil, sm) {
		return errors.New("grid: scheduler already joined a ring")
	}
	// The allocator must never again mint an ID this shard is not home
	// for; advance past any foreign recovered IDs immediately.
	s.mu.Lock()
	s.nextID = s.ownedIDAfter(s.nextID) - 1
	s.mu.Unlock()
	sm.wg.Add(1)
	go sm.loop()
	return nil
}

// shardManager returns the ring runtime, nil when the scheduler is not a
// ring member.
func (s *Scheduler) shardManager() *shardManager {
	return s.shard.Load()
}

// ownedIDAfter returns the smallest ID strictly greater than id that this
// shard is home for under the ring's full member list — the allocation rule
// that keeps ID ranges disjoint across shards however their liveness views
// diverge. Without a ring every ID qualifies. Callers hold s.mu.
func (s *Scheduler) ownedIDAfter(id uint64) uint64 {
	sm := s.shard.Load()
	id++
	if sm == nil {
		return id
	}
	for sm.ring.Home(id) != sm.ring.Self() {
		id++
	}
	return id
}

// owner resolves a campaign ID's current owner under the live member view.
func (sm *shardManager) owner(id uint64) string {
	return sm.ring.Owner(id, sm.members.AliveFn())
}

// close stops the ring loop, waits it out, and closes the connections kept
// to peers.
func (sm *shardManager) close() {
	select {
	case <-sm.stop:
	default:
		close(sm.stop)
	}
	sm.wg.Wait()
	sm.transport.Close()
}

// call makes one exchange with ring peer p on the kept-alive transport.
func (sm *shardManager) call(p string, req *diet.Request) (*diet.Response, error) {
	return sm.transport.RoundTrip(context.Background(), p, req, ringCallTimeout)
}

// loop is the shard heartbeat: every hbEvery it pings each peer, tails the
// alive ones' WALs, and runs failover for the dead ones. The first tick
// fires immediately so a freshly joined ring converges fast.
func (sm *shardManager) loop() {
	defer sm.wg.Done()
	tick := time.NewTicker(sm.hbEvery)
	defer tick.Stop()
	sm.tick()
	for {
		select {
		case <-sm.stop:
			return
		case <-tick.C:
			sm.tick()
		}
	}
}

func (sm *shardManager) tick() {
	for _, p := range sm.ring.Peers() {
		sm.ping(p)
		if sm.members.Alive(p) {
			sm.pull(p)
			sm.mu.Lock()
			delete(sm.failedOver, p)
			sm.mu.Unlock()
		}
	}
	// Failover after the full ping round: adoption decisions use the
	// freshest liveness view the ring can have this tick. When the alive
	// set changed, every dead peer's replica is re-evaluated — ownership
	// under the new view may have moved campaigns to this shard that an
	// earlier replay correctly left to someone else.
	aliveKey := ""
	for _, m := range sm.ring.Members() {
		if sm.members.Alive(m) {
			aliveKey += m + ","
		}
	}
	sm.mu.Lock()
	if aliveKey != sm.lastAlive {
		sm.lastAlive = aliveKey
		clear(sm.failedOver)
	}
	sm.mu.Unlock()
	for _, p := range sm.ring.Peers() {
		if sm.members.Alive(p) {
			continue
		}
		sm.mu.Lock()
		done := sm.failedOver[p]
		if !done {
			sm.failedOver[p] = true
		}
		sm.mu.Unlock()
		if !done {
			// Connections kept to a dead peer serve nobody.
			sm.transport.Drop(p)
			sm.failover(p)
		}
	}
}

// ping beacons one peer and folds the outcome into the liveness view. A
// peer answering below the protocol floor fails to decode, which is a failed
// ping like any other.
func (sm *shardManager) ping(p string) {
	resp, err := sm.call(p, &diet.Request{Kind: diet.KindRingPing, Ring: &diet.RingPingRequest{}})
	sm.members.ObservePing(p, err == nil && resp.Ring != nil)
}

// maxPullsPerTick bounds how many segment chunks one tick pulls from one
// peer, so a peer with a huge backlog cannot stall the heartbeat loop.
const maxPullsPerTick = 16

// pull tails one peer's WAL into the local replica file: segments are
// requested from the acknowledged (generation, offset) and appended; a
// generation mismatch (the peer rotated, compacted, or restarted its
// journal) resets the replica and restarts the tail from offset 0.
func (sm *shardManager) pull(p string) {
	sm.mu.Lock()
	tail := sm.tails[p]
	sm.mu.Unlock()
	if tail == nil {
		return
	}
	for i := 0; i < maxPullsPerTick; i++ {
		resp, err := sm.call(p, &diet.Request{
			Kind:    diet.KindSegment,
			Segment: &diet.SegmentRequest{Generation: tail.gen, Offset: tail.off},
		})
		if err != nil || resp.Segment == nil {
			return
		}
		seg := resp.Segment
		if seg.Reset {
			if err := os.WriteFile(tail.path, seg.Data, 0o644); err != nil {
				return
			}
			tail.gen, tail.off = seg.Generation, seg.Offset
			continue
		}
		if len(seg.Data) == 0 {
			return // caught up
		}
		f, err := os.OpenFile(tail.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return
		}
		_, werr := f.Write(seg.Data)
		if cerr := f.Close(); werr != nil || cerr != nil {
			return
		}
		tail.off = seg.Offset
	}
}

// replicaBytes reports one peer replica's on-disk size, 0 when absent.
func (sm *shardManager) replicaBytes(p string) int64 {
	sm.mu.Lock()
	tail := sm.tails[p]
	sm.mu.Unlock()
	if tail == nil {
		return 0
	}
	fi, err := os.Stat(tail.path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// failover replays a dead peer's WAL replica and adopts every campaign
// whose failover owner is this shard: terminal campaigns come back pollable
// and attachable under their original IDs, non-terminal ones are re-admitted
// with their unfinished scenarios requeued and finish here — bit-identically,
// because every shard runs the same cluster profiles and the evaluation is
// deterministic. Campaigns owned by other survivors are left to them; the
// dead peer's own IDs can never collide with ours because allocation is
// home-based.
func (sm *shardManager) failover(p string) {
	sm.mu.Lock()
	tail := sm.tails[p]
	sm.mu.Unlock()
	if tail == nil {
		return
	}
	byID, err := store.ReplayFile(tail.path)
	if err != nil || len(byID) == 0 {
		return
	}
	alive := sm.members.AliveFn()
	self := sm.ring.Self()
	n := 0
	for _, rc := range store.ByID(byID) {
		if sm.ring.Owner(rc.ID, alive) != self {
			continue
		}
		if sm.s.adoptCampaign(rc) {
			n++
		}
	}
	if n > 0 {
		sm.adopted.Add(uint64(n))
	}
}

// adoptCampaign installs one replayed campaign from a dead peer's replica
// into this scheduler, exactly as startup recovery would: its journal
// records are re-appended to our own WAL first (durable before visible),
// terminal campaigns go straight to the finished table, and non-terminal
// ones are re-admitted. Reports false when the campaign is already known
// here.
func (s *Scheduler) adoptCampaign(rc *store.Campaign) bool {
	if s.lookup(rc.ID) != nil {
		return false
	}
	for _, rec := range rc.Records() {
		if err := s.store.Append(rec); err != nil {
			return false
		}
	}
	c := recoveredCampaign(rc)
	c.tenant = tenantOf(c.labels)
	s.mu.Lock()
	if s.campaigns[c.id] != nil {
		s.mu.Unlock()
		return false
	}
	s.install(c)
	if rc.Terminal() {
		s.retire(c)
	}
	s.mu.Unlock()
	if !rc.Terminal() {
		s.readmit(c)
	}
	return true
}
