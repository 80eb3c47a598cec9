// Package grid is the online scheduling layer of the DIET hierarchy: a
// long-running master-agent daemon that serves simulation campaigns as a
// service instead of answering one-shot registry queries.
//
// The paper submits ocean-atmosphere campaigns through a DIET MA/SeD tree;
// internal/diet carries the messages of the six-step protocol of its
// Figure 9 and the per-cluster SeDs. This package is the master agent as a
// service under load:
//
//	client ──submit──▶ bounded queue ──▶ dispatchers ──▶ SeD pool
//	                  (admission        (per-campaign    (per-SeD in-flight
//	                   control)          protocol run)    limits, heartbeat
//	                                                      eviction, requeue)
//
// A campaign is one full protocol round — performance vectors, Algorithm-1
// repartition, per-cluster execution — run against whatever SeDs are alive
// when the campaign reaches the head of the queue. SeDs beacon liveness;
// daemons that miss the heartbeat deadline are evicted and the scenario
// chunks they held are re-repartitioned across the survivors, so a SeD
// killed mid-campaign costs a requeue, not the campaign. Every evaluation a
// SeD performs goes through internal/engine's batched sweep, which keeps
// results bit-identical to a serial run.
//
// The scheduler speaks the internal/diet binary-frame protocol (v9) over
// TCP; SeDs join by heartbeat.
//
// The life of a campaign around that round — admission record, journal,
// terminal transitions, recovery, round loop, vector cache, retention — is
// one state machine (lifecycle) run against an executor seam. Scheduler is
// the lifecycle behind the daemon drawn above, executing on the SeD pool;
// Local is the same lifecycle executing on the in-process engine, with
// nothing in front of it.
package grid

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
)

// Config tunes the scheduler daemon. The zero value of each field picks the
// default documented on it.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// QueueCap bounds the campaign queue; submissions beyond it are rejected
	// at admission (default 64).
	QueueCap int
	// Dispatchers is the number of campaigns served concurrently
	// (default 4).
	Dispatchers int
	// PerSeDInFlight caps concurrent requests the scheduler keeps open
	// against one SeD (default 4).
	PerSeDInFlight int
	// EvictAfter is the heartbeat deadline: a SeD silent for longer is
	// marked dead and excluded from new dispatches (default 3s).
	EvictAfter time.Duration
	// RetryEvery paces campaign retries while no SeD is alive
	// (default 25ms).
	RetryEvery time.Duration
	// CampaignTimeout bounds one campaign end to end, including requeues
	// (default 2m).
	CampaignTimeout time.Duration
	// KeepFinished caps how many finished campaigns stay pollable before
	// the oldest are forgotten (default 4096).
	KeepFinished int
	// StateDir, when non-empty, makes the scheduler durable: every campaign
	// transition is journaled to an append-only WAL under the directory
	// before it is acknowledged, and a scheduler restarted on the same
	// directory replays the journal — terminal campaigns stay pollable and
	// attachable under their original IDs, non-terminal campaigns are
	// re-admitted with their unfinished scenarios requeued. Empty keeps the
	// scheduler purely in-memory.
	StateDir string
	// TenantKey is the label key that names a campaign's fair-queueing
	// tenant (default "team"). Campaigns without the label share the
	// DefaultTenant. The tenant table is bounded: beyond
	// maxDynamicTenants distinct unconfigured names, new ones fold into
	// the OverflowTenant (see canonicalTenant).
	TenantKey string
	// TenantWeights assigns fair-queueing weights by tenant name. Dispatch
	// is virtual-time weighted-fair: over any contended stretch a tenant
	// receives dispatch slots proportional to its weight. Unlisted tenants
	// (and entries <= 0) weigh 1.
	TenantWeights map[string]float64
	// TenantQuota caps how many campaigns one tenant may hold in the queue
	// at once; a submission beyond it is rejected with the retryable
	// quota-exceeded code while other tenants keep admitting. 0 means no
	// per-tenant cap (the global QueueCap still applies).
	TenantQuota int
	// AgeAfter is the aging interval: a queued campaign's effective
	// priority rises by one for every AgeAfter it has waited, so sustained
	// high-priority traffic cannot starve a low-priority campaign of the
	// same tenant forever. 0 picks the default (10s); negative disables
	// aging. Aging reorders only the admission queue — never a dispatched
	// campaign's results.
	AgeAfter time.Duration
	// MetricsAddr, when non-empty, serves a Prometheus text-format
	// /metrics endpoint on the address ("127.0.0.1:0" for an ephemeral
	// port): queue and per-tenant gauges, SeD utilization, WAL size and
	// wire-level byte counters.
	MetricsAddr string
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Dispatchers <= 0 {
		c.Dispatchers = 4
	}
	if c.PerSeDInFlight <= 0 {
		c.PerSeDInFlight = 4
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = 3 * time.Second
	}
	if c.RetryEvery <= 0 {
		c.RetryEvery = 25 * time.Millisecond
	}
	if c.CampaignTimeout <= 0 {
		c.CampaignTimeout = 2 * time.Minute
	}
	if c.KeepFinished <= 0 {
		c.KeepFinished = 4096
	}
	if c.TenantKey == "" {
		c.TenantKey = DefaultTenantKey
	}
	if c.AgeAfter == 0 {
		c.AgeAfter = 10 * time.Second
	}
	return c
}

// DefaultTenantKey is the label key that names a campaign's tenant unless
// Config.TenantKey overrides it.
const DefaultTenantKey = "team"

// DefaultTenant is the tenant of campaigns that carry no tenant label.
const DefaultTenant = "default"

// OverflowTenant absorbs submissions from tenant names beyond the dynamic
// cap: they share one weight-1 queue, one quota, and one set of /metrics
// series instead of growing the tenant table.
const OverflowTenant = "other"

// maxDynamicTenants bounds how many distinct unconfigured tenant names the
// scheduler tracks individually. Tenant entries persist for the scheduler's
// lifetime (their counters are /metrics series), and the name is a
// client-supplied label value — without a cap, a client cycling unique
// values would grow the table and the metric cardinality without bound.
// Operator-configured tenants (a TenantWeights entry) are
// always tracked and do not count against the cap.
const maxDynamicTenants = 64

// sedState is the scheduler's view of one server daemon.
type sedState struct {
	info     diet.SeDInfo
	alive    bool
	lastBeat time.Time
	inFlight int
	// speed is the daemon's advertised relative speed factor (1.0 when it
	// advertises none). A change invalidates the daemon's cached vectors: the
	// cached advertisements were scaled by the old factor.
	speed float64
	// draining marks a daemon gracefully leaving the fleet: it keeps
	// serving (and banking) the chunks it holds, but aliveSeDs excludes it
	// from every new dispatch pool.
	draining bool
	// leases counts repartition rounds whose dispatch pool snapshot
	// includes this daemon and whose results are not fully processed yet.
	// A draining daemon is deregistrable only at zero leases — the
	// guarantee that a scale-down never strands (and so never requeues) an
	// in-flight chunk.
	leases int
	// sem enforces the per-SeD in-flight limit; it survives re-registration
	// so tokens held across an eviction/rejoin stay accounted.
	sem chan struct{}
}

// tenantState is one tenant's slice of the weighted-fair queue: its queued
// campaigns, its virtual-time tag, and its service counters.
type tenantState struct {
	name   string
	weight float64
	// vfinish is the virtual finish tag of the tenant's last dispatched
	// campaign (start-time fair queueing): the next dispatch would finish at
	// max(global vtime, vfinish) + 1/weight, and the tenant with the
	// earliest such finish wins the slot — so observed service tracks
	// weights over any contended stretch.
	vfinish float64
	// queue holds the tenant's queued campaigns in admission order; the
	// within-tenant pick is by effective priority (priority plus aging
	// boost), resolved by linear scan at pop time because aging makes the
	// order time-dependent. queued counts reserved admission slots, which
	// lead queue membership by the WAL-append window (mirroring queueLen).
	queue  []*campaign
	queued int
	// running counts the tenant's campaigns currently held by a dispatcher.
	running       int
	admitted      uint64
	completed     uint64
	failed        uint64
	cancelled     uint64
	quotaRejected uint64
	// Queue-wait moments of dispatched campaigns (admission → dispatch).
	waitCount uint64
	waitSum   time.Duration
	waitMax   time.Duration
}

// Scheduler is the online master agent: the campaign lifecycle behind a
// listener, a weighted-fair admission queue and a dispatcher pool, with the
// SeD table as its executor (see lease, perf, run and lost).
type Scheduler struct {
	lifecycle
	cfg Config
	ln  net.Listener
	// srv tracks the connections kept open for SeDs and ring peers;
	// transport keeps the scheduler's own to its SeDs, at most PerSeDInFlight
	// idle per daemon — the same bound as exchanges in flight.
	srv       diet.Server
	transport *diet.Transport

	// tokens carries one signal per enqueued campaign; the campaign itself
	// sits in its tenant's queue under mu. A dispatcher first takes a
	// token, then runs the WFQ pick — so admission order only breaks ties,
	// never the fair-queueing order.
	tokens chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup

	metrics *metricsServer // nil without a MetricsAddr

	// shard is the ring runtime once JoinRing ran; nil for a standalone
	// daemon. Atomic because request dispatch reads it lock-free while
	// JoinRing installs it after Start.
	shard atomic.Pointer[shardManager]

	// metricsHook, when set, is invoked at the end of every /metrics render
	// to append subsystem families the scheduler doesn't own (the autoscale
	// controller's fleet gauges). Atomic because scrapes read it lock-free
	// while the subsystem installs it after Start.
	metricsHook atomic.Pointer[func(io.Writer)]

	// The fields below are guarded by the lifecycle's mu.
	//
	// keyed wakes the duplicates byKey parks whenever a keyed admission
	// settles, into the table or out of the key index; its L is &mu.
	keyed   sync.Cond
	tenants map[string]*tenantState
	// dynamicTenants counts the tenant entries created for unconfigured
	// names — the population maxDynamicTenants bounds.
	dynamicTenants int
	// vtime is the global virtual clock of the weighted-fair queue: the
	// start tag of the last dispatched campaign.
	vtime     float64
	seds      map[string]*sedState
	queueLen  int
	maxQueue  int
	running   int
	completed uint64
	failed    uint64
	cancelled uint64
	rejected  uint64
	evicted   uint64
}

// tenantName resolves a campaign's tenant from its labels.
func (s *Scheduler) tenantName(labels map[string]string) string {
	return tenantOf(labels, s.cfg.TenantKey)
}

// tenant returns (creating on first use) a tenant's state. Callers hold
// s.mu and pass canonical names only (see canonicalTenant). Tenant entries
// persist for the scheduler's lifetime: their counters are the /metrics
// series and must not reset when a queue drains.
func (s *Scheduler) tenant(name string) *tenantState {
	t := s.tenants[name]
	if t == nil {
		weight := s.cfg.TenantWeights[name]
		if weight <= 0 {
			weight = 1
		}
		t = &tenantState{name: name, weight: weight}
		s.tenants[name] = t
		if name != DefaultTenant && name != OverflowTenant && !s.configuredTenant(name) {
			s.dynamicTenants++
		}
	}
	return t
}

// configuredTenant reports whether name is operator-declared through a
// weight entry — such tenants always get their own state.
func (s *Scheduler) configuredTenant(name string) bool {
	_, ok := s.cfg.TenantWeights[name]
	return ok
}

// canonicalTenant folds a client-supplied tenant name into the bounded
// tenant table: a name with existing state, an operator-configured name,
// and the two well-known names map to themselves; a brand-new dynamic name
// maps to OverflowTenant once maxDynamicTenants distinct ones exist.
// Callers hold s.mu (or run before the scheduler's goroutines start).
func (s *Scheduler) canonicalTenant(name string) string {
	if name == DefaultTenant || name == OverflowTenant ||
		s.tenants[name] != nil || s.configuredTenant(name) {
		return name
	}
	if s.dynamicTenants >= maxDynamicTenants {
		return OverflowTenant
	}
	return name
}

// Start listens on cfg.Addr and begins serving. With a StateDir, the
// journal found there is replayed first: terminal campaigns come back
// pollable, non-terminal campaigns are re-admitted ahead of new traffic.
func Start(cfg Config) (*Scheduler, error) {
	cfg = cfg.withDefaults()

	s := &Scheduler{
		lifecycle: lifecycle{
			keepFinished: cfg.KeepFinished,
			timeout:      cfg.CampaignTimeout,
			retryEvery:   cfg.RetryEvery,
			campaigns:    make(map[uint64]*campaign),
			vectors:      make(map[string]map[vecKey][]float64),
		},
		cfg:       cfg,
		transport: diet.NewTransport(cfg.PerSeDInFlight),
		done:      make(chan struct{}),
		tenants:   make(map[string]*tenantState),
		seds:      make(map[string]*sedState),
	}
	s.exec = s
	s.onSettle = s.countOutcome
	s.keyed.L = &s.mu
	var recovered []*campaign
	if cfg.StateDir != "" {
		var err error
		if recovered, err = s.recover(cfg.StateDir, cfg.TenantKey); err != nil {
			return nil, err
		}
	}

	// The journal is compacted by now; only then may the listener open —
	// appends racing the compaction would be lost.
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		if s.store != nil {
			s.store.Close()
		}
		return nil, fmt.Errorf("grid: scheduler listen: %w", err)
	}
	s.ln = ln

	// Size the queue to hold the recovered backlog on top of the admission
	// bound: re-admission must never block startup, even after a crash with
	// a full queue.
	s.tokens = make(chan struct{}, cfg.QueueCap+len(recovered))

	// Re-admit the unfinished backlog in original admission order, before
	// the dispatchers start. Recovered campaigns keep their journaled
	// priority and labels — and with them their tenant; among equal
	// priorities their lower IDs put them ahead of any new traffic of the
	// same tenant.
	for _, c := range recovered {
		s.readmit(c)
	}

	if cfg.MetricsAddr != "" {
		m, err := startMetrics(cfg.MetricsAddr, s)
		if err != nil {
			ln.Close()
			if s.store != nil {
				s.store.Close()
			}
			return nil, err
		}
		s.metrics = m
	}

	s.wg.Add(1 + cfg.Dispatchers)
	go s.acceptLoop()
	go s.evictLoop()
	for i := 0; i < cfg.Dispatchers; i++ {
		go s.dispatchLoop()
	}
	return s, nil
}

// Addr returns the daemon's listen address.
func (s *Scheduler) Addr() string { return s.ln.Addr().String() }

// MetricsAddr returns the /metrics endpoint's listen address, empty when
// the endpoint is off.
func (s *Scheduler) MetricsAddr() string {
	if s.metrics == nil {
		return ""
	}
	return s.metrics.addr()
}

// SetMetricsHook installs (or, with nil, removes) a callback appended to
// every /metrics render after the scheduler's own families. The hook must
// write complete exposition-format families and must not block: it runs on
// the scrape path.
func (s *Scheduler) SetMetricsHook(hook func(io.Writer)) {
	if hook == nil {
		s.metricsHook.Store(nil)
		return
	}
	s.metricsHook.Store(&hook)
}

// Close stops the daemon: the listener and the connections kept idle for
// SeDs, ring peers and clients close, no request read afterwards is
// answered, open campaign streams end with a shutdown error, queued and
// running campaigns fail with one, and the worker goroutines drain. With a state dir the
// shutdown failures are not journaled as terminal — a scheduler restarted on
// the same directory re-admits and finishes them.
func (s *Scheduler) Close() error {
	err := s.ln.Close()
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	s.srv.Close()
	if sm := s.shard.Load(); sm != nil {
		sm.close()
	}
	s.wg.Wait()
	s.transport.Close()
	if s.metrics != nil {
		s.metrics.close()
	}
	if s.store != nil {
		s.store.Close()
	}
	return err
}

// evictLoop enforces the heartbeat deadline.
func (s *Scheduler) evictLoop() {
	tick := time.NewTicker(s.cfg.EvictAfter / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		s.mu.Lock()
		for _, st := range s.seds {
			if st.alive && now.Sub(st.lastBeat) > s.cfg.EvictAfter {
				st.alive = false
				s.evicted++
				s.transport.Drop(st.info.Addr)
			}
		}
		s.mu.Unlock()
	}
}

// register adds or refreshes a SeD entry; beat marks whether the update is a
// heartbeat (refreshing the liveness deadline and reviving evicted entries).
// speed <= 0 — a SeD that advertises none — reads as the reference factor
// 1.0.
func (s *Scheduler) register(info diet.SeDInfo, inFlight int, speed float64, draining bool) {
	if speed <= 0 {
		speed = 1.0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.seds[info.Cluster]
	if st == nil {
		if draining {
			// A deregistered daemon's last in-flight beats may straggle in
			// after its entry was removed; resurrecting it as a permanent
			// draining ghost would pollute the table and /metrics. A drain
			// flag only ever updates an existing entry.
			return
		}
		st = &sedState{sem: make(chan struct{}, s.cfg.PerSeDInFlight)}
		s.seds[info.Cluster] = st
	}
	if st.info.Addr != "" && (st.info.Addr != info.Addr || st.info.Procs != info.Procs || st.speed != speed) {
		// The daemon's identity or advertised capability changed — a
		// replacement process, a resized cluster, or a new speed factor.
		// Cached vectors describe the old capability, so serving them would
		// misplace every chunk until the key aged out: invalidate.
		delete(s.vectors, info.Cluster)
	}
	if st.info.Addr != "" && st.info.Addr != info.Addr {
		// A replacement daemon is a fresh process: an old drain flag (or a
		// straggling beat from the drained predecessor) must not shadow it,
		// and connections kept to the old address serve nobody.
		st.draining = false
		s.transport.Drop(st.info.Addr)
	}
	st.info = info
	st.alive = true
	st.lastBeat = time.Now()
	st.inFlight = inFlight
	st.speed = speed
	if draining {
		st.draining = true
	}
}

// DeregisterSeD removes a drained daemon from the scheduler's table. It
// refuses (returning false) unless the entry matches addr, is draining, and
// holds no leases and no outstanding scheduler requests — the autoscaler
// polls Stats until those gauges read zero, so removal can never strand an
// in-flight chunk. The SeD's own heartbeats must stop before or promptly
// after this call; a straggling draining beat cannot re-create the entry
// (see register).
func (s *Scheduler) DeregisterSeD(cluster, addr string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.seds[cluster]
	if st == nil || st.info.Addr != addr || !st.draining || st.leases > 0 || len(st.sem) > 0 {
		return false
	}
	delete(s.seds, cluster)
	delete(s.vectors, cluster)
	s.transport.Drop(addr)
	return true
}

// sedRef pairs a daemon's state with an info snapshot taken under the
// mutex: register() overwrites st.info on every heartbeat, so code off the
// lock must work from the snapshot, never from st.info directly.
type sedRef struct {
	st   *sedState
	info diet.SeDInfo
}

// cluster implements target.
func (r *sedRef) cluster() string { return r.info.Cluster }

// aliveSeDs snapshots the dispatchable daemons in deterministic (cluster
// name) order, so repartition tie-breaks do not depend on map iteration.
// Draining daemons are excluded — they finish what they hold, nothing new
// lands on them. Every returned daemon is leased: the caller owns one lease
// per ref and must hand the same slice to releaseSeDs once the round's
// results are processed. The drain flag and the snapshot are serialized by
// s.mu, so a daemon either drains before a snapshot (excluded) or after
// (lease held until its chunks banked) — never in between.
func (s *Scheduler) aliveSeDs() []sedRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]sedRef, 0, len(s.seds))
	for _, st := range s.seds {
		if st.alive && !st.draining {
			st.leases++
			out = append(out, sedRef{st: st, info: st.info})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].info.Cluster < out[j].info.Cluster })
	return out
}

// releaseSeDs returns the leases aliveSeDs took. Called once per snapshot,
// after the round that used it has fully processed its results.
func (s *Scheduler) releaseSeDs(refs []sedRef) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ref := range refs {
		ref.st.leases--
	}
}

// lease implements executor over the SeD table: the targets are the leased
// snapshot's daemons.
func (s *Scheduler) lease() ([]target, func()) {
	refs := s.aliveSeDs()
	targets := make([]target, len(refs))
	for i := range refs {
		targets[i] = &refs[i]
	}
	return targets, func() { s.releaseSeDs(refs) }
}

// lost implements executor: a SeD that failed an exchange is always taken
// for dead, and its work requeued.
func (s *Scheduler) lost(t target, _ error) bool {
	ref := t.(*sedRef)
	s.markDead(ref.st, ref.info.Addr)
	return true
}

// markDead records a failed exchange with a SeD: it leaves the pool until a
// heartbeat revives it.
func (s *Scheduler) markDead(st *sedState, addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Only kill the entry if it still describes the daemon we talked to; a
	// replacement may have re-registered under the same cluster meanwhile.
	if st.alive && st.info.Addr == addr {
		st.alive = false
		s.evicted++
		s.transport.Drop(addr)
	}
}

// perf implements executor: one KindPerf exchange with the SeD. A cancel
// does not abort it — a vector is short, cacheable work, and an aborted
// exchange would read as a dead daemon.
func (s *Scheduler) perf(_ context.Context, t target, n, months int, heuristic string) ([]float64, error) {
	ref := t.(*sedRef)
	resp, err := s.transport.RoundTrip(context.Background(), ref.info.Addr, &diet.Request{Kind: diet.KindPerf, Perf: &diet.PerfRequest{
		Scenarios: n,
		Months:    months,
		Heuristic: heuristic,
	}}, sedCallTimeout)
	if err != nil || resp.Perf == nil {
		return nil, err // an answer without a vector reads as a short one
	}
	return resp.Perf.Vector, nil
}

// run implements executor: one KindExec exchange behind the SeD's in-flight
// semaphore. ctx aborts the round trip when the campaign is cancelled, so a
// cancel never waits out a slow SeD.
func (s *Scheduler) run(ctx context.Context, t target, ids []int, months int, heuristic string) (*diet.ExecResponse, error) {
	ref := t.(*sedRef)
	select {
	case ref.st.sem <- struct{}{}:
		defer func() { <-ref.st.sem }()
	case <-ctx.Done():
		return nil, fmt.Errorf("grid: chunk dispatch aborted: %w", ctx.Err())
	case <-s.done:
		return nil, errors.New(shutdownMsg)
	}
	resp, err := s.transport.RoundTrip(ctx, ref.info.Addr, &diet.Request{Kind: diet.KindExec, Exec: &diet.ExecRequest{
		ScenarioIDs: ids,
		Months:      months,
		Heuristic:   heuristic,
	}}, sedCallTimeout)
	if err != nil {
		return nil, err
	}
	if resp.Exec == nil {
		return nil, fmt.Errorf("grid: SeD %s returned no execution report", ref.info.Cluster)
	}
	return resp.Exec, nil
}

// sedCallTimeout bounds one scheduler→SeD exchange. A SeD that stays silent
// that long reads as dead (lost); a kept-alive connection the SeD had closed
// does not — the transport redials those itself. Evaluations are virtual
// time and fast, but a loaded box (CI under the race detector) can stall a
// goroutine well past the transport's 5s default.
const sedCallTimeout = 30 * time.Second

// Stats snapshots the scheduler's gauges and the SeD table.
func (s *Scheduler) Stats() diet.StatsResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := diet.StatsResponse{
		QueueDepth:    s.queueLen,
		MaxQueueDepth: s.maxQueue,
		Running:       s.running,
		Completed:     s.completed,
		Failed:        s.failed,
		Cancelled:     s.cancelled,
		Rejected:      s.rejected,
		Requeues:      s.requeues,
		Evicted:       s.evicted,
	}
	now := time.Now()
	for _, st := range s.seds {
		out.SeDs = append(out.SeDs, diet.SeDStatus{
			Cluster:     st.info.Cluster,
			Addr:        st.info.Addr,
			Procs:       st.info.Procs,
			Alive:       st.alive,
			InFlight:    st.inFlight,
			Outstanding: len(st.sem),
			SinceBeat:   now.Sub(st.lastBeat),
			Speed:       st.speed,
			Draining:    st.draining,
			Leases:      st.leases,
		})
	}
	for _, t := range s.tenants {
		for _, c := range t.queue {
			if wait := now.Sub(c.enqueuedAt); wait > 0 {
				if ms := float64(wait) / float64(time.Millisecond); ms > out.OldestWaitMs {
					out.OldestWaitMs = ms
				}
			}
		}
	}
	sort.Slice(out.SeDs, func(i, j int) bool { return out.SeDs[i].Cluster < out.SeDs[j].Cluster })
	for _, t := range s.tenants {
		out.Tenants = append(out.Tenants, diet.TenantStatus{
			Tenant:        t.name,
			Weight:        t.weight,
			Queued:        t.queued,
			Running:       t.running,
			Admitted:      t.admitted,
			Completed:     t.completed,
			Failed:        t.failed,
			Cancelled:     t.cancelled,
			QuotaRejected: t.quotaRejected,
			WaitCount:     t.waitCount,
			WaitSumMs:     float64(t.waitSum) / float64(time.Millisecond),
			WaitMaxMs:     float64(t.waitMax) / float64(time.Millisecond),
		})
	}
	sort.Slice(out.Tenants, func(i, j int) bool { return out.Tenants[i].Tenant < out.Tenants[j].Tenant })
	return out
}

// byKey returns the campaign admitted under key, nil when there is none. An
// admission under key whose record is still being journaled is in the key
// index but not yet in the table; byKey waits it out, so a duplicate never
// admits a second campaign beside it. Callers hold mu.
func (s *Scheduler) byKey(key diet.SubmitKey) *campaign {
	for {
		c := s.keys[key]
		if c == nil || s.campaigns[c.id] == c {
			return c
		}
		s.keyed.Wait()
	}
}

// admit applies admission control and enqueues a campaign. A malformed
// request — the zero key among them — returns an error (a protocol-level
// failure the client must not retry); a full queue or an exhausted tenant
// quota returns a nil campaign with Accepted=false and the matching reject
// code (a transient verdict worth retrying). A key admitted before returns that campaign, accepted,
// whatever the queue holds now: a resent submission is the same one.
func (s *Scheduler) admit(req *diet.SubmitRequest) (*campaign, *diet.SubmitResponse, error) {
	if req.Key.IsZero() {
		return nil, nil, errors.New("grid: submit carries no submission key")
	}
	app := core.Application{Scenarios: req.Scenarios, Months: req.Months}
	if err := app.Validate(); err != nil {
		return nil, nil, err
	}
	if _, err := core.ByName(req.Heuristic); err != nil {
		return nil, nil, err
	}
	tenantName := s.tenantName(req.Labels)
	s.mu.Lock()
	if c := s.byKey(req.Key); c != nil {
		depth := s.queueLen
		s.mu.Unlock()
		return c, &diet.SubmitResponse{ID: c.id, Accepted: true, QueueDepth: depth}, nil
	}
	if s.queueLen >= s.cfg.QueueCap {
		s.rejected++
		depth := s.queueLen
		s.mu.Unlock()
		return nil, &diet.SubmitResponse{Reason: "queue full", Code: diet.RejectQueueFull, QueueDepth: depth}, nil
	}
	tenantName = s.canonicalTenant(tenantName)
	// The quota check reads existing state only: a tenant without state has
	// nothing queued, so it cannot be over quota — and a rejected submission
	// must not leave persistent per-tenant state (and /metrics series)
	// behind.
	if quota := s.cfg.TenantQuota; quota > 0 {
		if t := s.tenants[tenantName]; t != nil && t.queued >= quota {
			s.rejected++
			t.quotaRejected++
			depth := s.queueLen
			s.mu.Unlock()
			return nil, &diet.SubmitResponse{
				Reason:     fmt.Sprintf("tenant %q admission quota (%d queued) exhausted", tenantName, quota),
				Code:       diet.RejectQuota,
				QueueDepth: depth,
			}, nil
		}
	}
	t := s.tenant(tenantName)
	// Ring members mint only IDs they are home for (ownedIDAfter skips the
	// rest), so two shards can never allocate the same campaign ID however
	// their liveness views diverge; standalone daemons allocate densely.
	s.nextID = s.ownedIDAfter(s.nextID)
	c := newCampaign(s.nextID, app, req.Heuristic, submitMeta{
		priority: req.Priority,
		labels:   req.Labels,
		deadline: req.Deadline,
		key:      req.Key,
	})
	c.tenant = tenantName
	c.enqueuedAt = time.Now()
	// Reserve the queue slot (global and tenant) before the journal write:
	// concurrent admissions must never overshoot the admission bound (and
	// with it the token channel's capacity) or the tenant quota.
	s.queueLen++
	if s.queueLen > s.maxQueue {
		s.maxQueue = s.queueLen
	}
	t.queued++
	t.admitted++
	depth := s.queueLen
	s.index(c)
	s.mu.Unlock()
	// The admission record must be durable before the verdict goes out: an
	// ID the client holds has to survive a crash, or Attach after a restart
	// would deny a campaign the daemon accepted. The submit options are part
	// of the record, so re-admission after a restart keeps the campaign's
	// priority and labels. The campaign enters the table only after the
	// record is durable — were it visible earlier, a Cancel racing the
	// admission could journal its terminal record ahead of the admitted one,
	// and replay (which drops records of unknown campaigns) would resurrect
	// the campaign as live.
	if err := s.journalAdmission(c); err != nil {
		s.mu.Lock()
		s.queueLen--
		s.rejected++
		t.queued--
		t.admitted--
		s.unindex(c)
		s.keyed.Broadcast()
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("grid: journaling admission: %w", err)
	}
	s.mu.Lock()
	s.install(c)
	s.enqueue(c)
	s.keyed.Broadcast()
	s.mu.Unlock()
	s.tokens <- struct{}{} // cannot block: queueLen never exceeds cap(tokens) here
	return c, &diet.SubmitResponse{ID: c.id, Accepted: true, QueueDepth: depth}, nil
}

// readmit queues a campaign some journal already admitted — this daemon's
// recovered backlog at startup, a dead ring peer's at adoption. It goes
// through the same tenant fold as a live submission, so a hostile label set
// in a journal cannot blow the tenant table either, but bypasses the
// admission bound and the tenant quotas: a backlog a daemon already accepted
// must never be dropped or block startup.
func (s *Scheduler) readmit(c *campaign) {
	s.mu.Lock()
	c.tenant = s.canonicalTenant(c.tenant)
	c.enqueuedAt = time.Now()
	s.queueLen++
	if s.queueLen > s.maxQueue {
		s.maxQueue = s.queueLen
	}
	s.tenant(c.tenant).queued++
	s.enqueue(c)
	s.mu.Unlock()
	// Off the lock: adoption may overshoot the admission bound (and with it
	// the token channel's capacity), and a blocked send must never hold
	// s.mu. The campaign is already queued, so tokens never outnumber queued
	// campaigns.
	select {
	case s.tokens <- struct{}{}:
	case <-s.done:
	}
}

// enqueue puts a campaign whose queue slots are already reserved (queueLen
// and its tenant's queued counted) on its tenant's queue; the caller then
// signals a dispatcher with a token, off the lock. A tenant going
// idle→backlogged gets its virtual finish tag
// stamped here, start-time-fair style: max(vtime, old tag) + 1/weight. The
// max keeps an idle tenant from banking credit while away (it re-enters at
// the current virtual time, it does not lock out the others), while a
// backlogged tenant's tag is left alone — it must keep the credit it
// accumulated waiting, or a heavier tenant would re-shadow it every pop and
// starve it. Callers hold s.mu.
func (s *Scheduler) enqueue(c *campaign) {
	t := s.tenant(c.tenant)
	if len(t.queue) == 0 {
		t.vfinish = math.Max(s.vtime, t.vfinish) + 1/t.weight
	}
	t.queue = append(t.queue, c)
}

// effPriority is a queued campaign's dispatch priority at now: its submit
// priority plus one aging boost per AgeAfter waited. Aging bounds
// within-tenant starvation — a priority-0 campaign under a sustained
// priority-P stream dispatches after at most P aging intervals.
func (s *Scheduler) effPriority(c *campaign, now time.Time) int {
	if s.cfg.AgeAfter <= 0 {
		return c.priority
	}
	return c.priority + int(now.Sub(c.enqueuedAt)/s.cfg.AgeAfter)
}

// dequeue runs the weighted-fair pick after a token was consumed: among
// tenants with queued campaigns, dispatch the one with the earliest virtual
// finish tag (stamped at enqueue, advanced by 1/weight per dispatch while
// backlogged) — over any contended stretch each tenant's dispatch share
// tracks its weight, so no tenant starves whatever the others' priorities
// or submit rates. Within the winning tenant the pick is by effective
// (aged) priority, then admission order. Ties across tenants break by
// name, keeping the schedule deterministic. Callers hold no lock.
func (s *Scheduler) dequeue() *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	var winner *tenantState
	for _, t := range s.tenants {
		if len(t.queue) == 0 {
			continue
		}
		if winner == nil || t.vfinish < winner.vfinish ||
			(t.vfinish == winner.vfinish && t.name < winner.name) {
			winner = t
		}
	}
	t := winner // a token was consumed, so some tenant has a campaign
	if t.vfinish > s.vtime {
		s.vtime = t.vfinish
	}

	now := time.Now()
	best := 0
	for i := 1; i < len(t.queue); i++ {
		bi, bc := t.queue[i], t.queue[best]
		pi, pb := s.effPriority(bi, now), s.effPriority(bc, now)
		if pi > pb || (pi == pb && bi.id < bc.id) {
			best = i
		}
	}
	c := t.queue[best]
	t.queue = append(t.queue[:best], t.queue[best+1:]...)
	t.queued--
	s.queueLen--
	if len(t.queue) > 0 {
		// Still backlogged: the next campaign's finish tag is one more
		// weighted slot past the one just consumed.
		t.vfinish = math.Max(s.vtime, t.vfinish) + 1/t.weight
	}
	return c
}

// noteDispatched moves a freshly popped campaign into the running gauges
// and records its queue wait — the per-tenant fairness signal. Corpses
// (campaigns cancelled while queued) never get here.
func (s *Scheduler) noteDispatched(c *campaign) {
	wait := time.Since(c.enqueuedAt)
	c.mu.Lock()
	if !c.claimed {
		c.queueWait = wait
		c.dispatched = true
	}
	c.mu.Unlock()
	s.mu.Lock()
	s.running++
	t := s.tenant(c.tenant)
	t.running++
	t.waitCount++
	t.waitSum += wait
	if wait > t.waitMax {
		t.waitMax = wait
	}
	s.mu.Unlock()
}

// releaseRunning takes a campaign out of the running gauges once its run
// loop returned, whichever path drove it terminal.
func (s *Scheduler) releaseRunning(c *campaign) {
	s.mu.Lock()
	s.running--
	s.tenant(c.tenant).running--
	s.mu.Unlock()
}

// countOutcome is the lifecycle's onSettle hook: the outcome counters of the
// daemon and of the campaign's tenant. Called with s.mu held.
func (s *Scheduler) countOutcome(c *campaign, status string) {
	t := s.tenant(c.tenant)
	switch status {
	case diet.CampaignDone:
		s.completed++
		t.completed++
	case diet.CampaignFailed:
		s.failed++
		t.failed++
	case diet.CampaignCancelled:
		s.cancelled++
		t.cancelled++
	}
}

// dispatchLoop pops campaigns off the priority queue and runs them. A
// campaign cancelled while still queued is popped as a corpse: its terminal
// transition already happened on the cancel path, so the dispatcher only
// releases the queue slot.
func (s *Scheduler) dispatchLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			s.drainQueue()
			return
		case <-s.tokens:
			c := s.dequeue()
			if c.aborted() {
				continue
			}
			s.noteDispatched(c)
			c.setStatus(diet.CampaignRunning)
			s.runCampaign(c, s.done)
			s.releaseRunning(c)
		}
	}
}

// drainQueue pauses everything still queued at shutdown. Not a dispatch:
// the campaigns never enter the running gauges and record no queue wait, so
// a shutdown drain cannot inflate the fairness wait moments.
func (s *Scheduler) drainQueue() {
	for {
		select {
		case <-s.tokens:
			s.end(s.dequeue(), diet.CampaignFailed, shutdownMsg, false)
		default:
			return
		}
	}
}

// queuePositions snapshots every queued campaign's 1-based dispatch
// position within its tenant's queue, by effective priority at now then
// admission order — the order dequeue would serve them if nothing else
// aged across a boundary meanwhile.
func (s *Scheduler) queuePositions() map[uint64]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	pos := make(map[uint64]int)
	for _, t := range s.tenants {
		q := append([]*campaign(nil), t.queue...)
		sort.Slice(q, func(i, j int) bool {
			pi, pj := s.effPriority(q[i], now), s.effPriority(q[j], now)
			if pi != pj {
				return pi > pj
			}
			return q[i].id < q[j].id
		})
		for i, c := range q {
			pos[c.id] = i + 1
		}
	}
	return pos
}

// queuePosition computes one campaign's 1-based dispatch position within
// its tenant's queue — the rank queuePositions would assign it — without
// materializing the batch snapshot: a single pass over the one tenant's
// queue counting campaigns that would dispatch at or before it. 0 when the
// campaign is not queued. This is the single-ID Info path: under a deep
// queue it allocates nothing, where the batch snapshot copies and sorts
// every tenant's queue per call.
//
//oalint:hotpath
func (s *Scheduler) queuePosition(c *campaign) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[c.tenant]
	if t == nil {
		return 0
	}
	now := time.Now()
	pc := s.effPriority(c, now)
	rank, found := 0, false
	for _, q := range t.queue {
		if q == c {
			rank++
			found = true
			continue
		}
		pq := s.effPriority(q, now)
		if pq > pc || (pq == pc && q.id < c.id) {
			rank++
		}
	}
	if !found {
		return 0
	}
	return rank
}

// CampaignInfo snapshots one campaign's control-plane view; an unknown ID
// comes back with Found unset.
func (s *Scheduler) CampaignInfo(id uint64) *diet.CampaignInfo {
	c := s.lookup(id)
	if c == nil {
		return &diet.CampaignInfo{ID: id}
	}
	info := c.info()
	info.QueuePos = s.queuePosition(c)
	return &info
}

// ListCampaigns enumerates the campaign table in admission (ID) order,
// filtered by status and label subset when the request carries them.
func (s *Scheduler) ListCampaigns(req *diet.ListCampaignsRequest) []diet.CampaignInfo {
	return s.list(req, s.queuePositions())
}
