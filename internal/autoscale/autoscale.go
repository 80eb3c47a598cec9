package autoscale

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"oagrid/internal/diet"
	"oagrid/internal/exec"
	"oagrid/internal/grid"
	"oagrid/internal/platform"
)

// Config tunes a Controller. Min/Max bound the total fleet (base SeDs
// included); the base fleet is never drained, so Min below the base size
// reads as the base size.
type Config struct {
	// Min and Max bound the fleet. Max <= Min disables scaling up.
	Min, Max int
	// HeartbeatEvery is the spawned SeDs' heartbeat interval (default 1s),
	// and the controller's sampling interval: fleet state changes no faster
	// than heartbeats land.
	HeartbeatEvery time.Duration
	// Speeds are relative speed factors cycled across spawned SeDs (1.0 =
	// reference, 0.5 = twice as slow). Nil spawns reference-speed daemons.
	Speeds []float64
}

// member is one controller-owned SeD.
type member struct {
	sed     *diet.SeD
	cluster string
	addr    string
}

// Counters is a snapshot of the controller's public counters, the source
// for the /metrics families and the load injector's report.
type Counters struct {
	// FleetSize is the current dispatchable fleet (base + spawned,
	// draining excluded).
	FleetSize int
	// Draining is how many SeDs are currently finishing their last chunks.
	Draining int
	// ScaleUps and ScaleDowns count completed actions: a scale-down counts
	// when the drained SeD deregisters, not when the drain starts.
	ScaleUps, ScaleDowns uint64
	// ScaleUpLatencyMaxMs is the slowest observed spawn-to-registered
	// latency in milliseconds.
	ScaleUpLatencyMaxMs float64
}

// Controller owns the elastic part of a scheduler's SeD fleet. It samples
// the scheduler, asks the policy for a verdict, and spawns or drains clone
// SeDs. Spawned daemons serve clones of the base fleet's cluster profiles
// named "<base>#<seq>" — same timing, same processors — so the serial
// verifier replays their chunks through the base profile and bit-identity
// holds across every fleet size.
type Controller struct {
	sched  *grid.Scheduler
	cfg    Config
	policy policy

	// prototypes are the base fleet's profiles, cycled for spawns.
	prototypes []*platform.Cluster

	done   chan struct{}
	closed sync.Once
	wg     sync.WaitGroup

	mu       sync.Mutex
	baseSize int
	spawned  []*member
	draining []*member
	seq      int

	scaleUps     atomic.Uint64
	scaleDowns   atomic.Uint64
	fleetSize    atomic.Int64
	drainingN    atomic.Int64
	latencyMaxMs atomic.Uint64 // math.Float64bits
}

// Start attaches a controller to sched over the given base fleet and runs
// its sampler loop. The base SeDs stay under the caller's ownership and are
// never drained; the controller only ever closes daemons it spawned. The
// controller also installs the scheduler's metrics hook, adding the
// oagrid_autoscale_* families to /metrics.
func Start(sched *grid.Scheduler, base []*diet.SeD, cfg Config) (*Controller, error) {
	c, err := attach(sched, base, cfg)
	if err != nil {
		return nil, err
	}
	c.wg.Add(1)
	go c.run()
	return c, nil
}

// attach is Start without the sampler loop.
func attach(sched *grid.Scheduler, base []*diet.SeD, cfg Config) (*Controller, error) {
	if len(base) == 0 {
		return nil, fmt.Errorf("autoscale: need at least one base SeD to clone profiles from")
	}
	if cfg.Min < len(base) {
		cfg.Min = len(base)
	}
	if cfg.Max < cfg.Min {
		cfg.Max = cfg.Min
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	c := &Controller{
		sched:    sched,
		cfg:      cfg,
		policy:   policy{min: cfg.Min, max: cfg.Max},
		done:     make(chan struct{}),
		baseSize: len(base),
	}
	for _, sed := range base {
		c.prototypes = append(c.prototypes, sed.Cluster())
	}
	c.fleetSize.Store(int64(len(base)))
	sched.SetMetricsHook(c.writeMetrics)
	return c, nil
}

// Close stops the sampler, removes the metrics hook, and closes every
// spawned SeD without draining — shutdown is the whole fabric going away,
// not a scale-down.
func (c *Controller) Close() {
	c.closed.Do(func() { close(c.done) })
	c.wg.Wait()
	c.sched.SetMetricsHook(nil)
	c.mu.Lock()
	members := append(append([]*member(nil), c.spawned...), c.draining...)
	c.spawned, c.draining = nil, nil
	c.mu.Unlock()
	for _, m := range members {
		m.sed.Close()
	}
}

// Counters snapshots the controller's public counters.
func (c *Controller) Counters() Counters {
	return Counters{
		FleetSize:           int(c.fleetSize.Load()),
		Draining:            int(c.drainingN.Load()),
		ScaleUps:            c.scaleUps.Load(),
		ScaleDowns:          c.scaleDowns.Load(),
		ScaleUpLatencyMaxMs: math.Float64frombits(c.latencyMaxMs.Load()),
	}
}

// run is the sampler loop: observe, reap finished drains, decide, act.
func (c *Controller) run() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		st := c.sched.Stats()
		c.reapDrained(&st)
		sig := Signals{
			QueueDepth:   st.QueueDepth,
			OldestWaitMs: st.OldestWaitMs,
			FleetSize:    int(c.fleetSize.Load()),
		}
		for _, sd := range st.SeDs {
			sig.Outstanding += sd.Outstanding
		}
		switch c.policy.decide(sig) {
		case 1:
			c.spawnOne()
		case -1:
			c.drainOne()
		}
	}
}

// spawnOne starts one clone SeD, heartbeats it into the scheduler, and
// waits (bounded) for the registration to land so the scale-up latency is
// the fleet's real reaction time, not just process start.
func (c *Controller) spawnOne() {
	c.mu.Lock()
	idx := c.seq
	c.seq++
	proto := c.prototypes[idx%len(c.prototypes)]
	speed := 1.0
	if len(c.cfg.Speeds) > 0 {
		speed = c.cfg.Speeds[idx%len(c.cfg.Speeds)]
	}
	c.mu.Unlock()

	clone := *proto
	clone.Name = fmt.Sprintf("%s#%d", proto.Name, idx+1)
	start := time.Now()
	sed, err := diet.StartSeDSpeed("127.0.0.1:0", &clone, exec.Options{}, speed)
	if err != nil {
		return
	}
	sed.StartHeartbeats(c.sched.Addr(), c.cfg.HeartbeatEvery)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !c.registered(clone.Name) {
		time.Sleep(5 * time.Millisecond)
	}
	c.observeLatency(time.Since(start))

	c.mu.Lock()
	c.spawned = append(c.spawned, &member{sed: sed, cluster: clone.Name, addr: sed.Addr()})
	c.fleetSize.Store(int64(c.baseSize + len(c.spawned)))
	c.mu.Unlock()
	c.scaleUps.Add(1)
}

// drainOne flips the youngest spawned SeD into drain mode. LIFO choice:
// the longest-lived daemons keep the most warmed perf-vector cache. The
// base fleet is never drained.
func (c *Controller) drainOne() {
	c.mu.Lock()
	n := len(c.spawned)
	if n == 0 {
		c.mu.Unlock()
		return
	}
	m := c.spawned[n-1]
	c.spawned = c.spawned[:n-1]
	c.draining = append(c.draining, m)
	c.fleetSize.Store(int64(c.baseSize + len(c.spawned)))
	c.drainingN.Store(int64(len(c.draining)))
	c.mu.Unlock()
	m.sed.Drain()
}

// reapDrained deregisters and closes every draining SeD that has finished:
// the scheduler shows it drained with no leases and no open requests, and
// the daemon itself holds no in-flight work. DeregisterSeD re-checks the
// same conditions under the scheduler's lock, so a round that sneaks in
// between the stats snapshot and the call just defers the reap one tick.
func (c *Controller) reapDrained(st *diet.StatsResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var still []*member
	for _, m := range c.draining {
		if c.drainDone(m, st) && c.sched.DeregisterSeD(m.cluster, m.addr) {
			m.sed.Close()
			c.scaleDowns.Add(1)
			continue
		}
		still = append(still, m)
	}
	c.draining = still
	c.drainingN.Store(int64(len(c.draining)))
}

// drainDone reports whether the scheduler and the daemon both see m idle.
func (c *Controller) drainDone(m *member, st *diet.StatsResponse) bool {
	if m.sed.InFlight() != 0 {
		return false
	}
	for _, sd := range st.SeDs {
		if sd.Cluster == m.cluster {
			return sd.Draining && sd.Leases == 0 && sd.Outstanding == 0
		}
	}
	// Not in the stats at all: already evicted or deregistered; let
	// DeregisterSeD make the authoritative call.
	return true
}

// registered reports whether the scheduler currently lists cluster alive.
func (c *Controller) registered(cluster string) bool {
	for _, sd := range c.sched.Stats().SeDs {
		if sd.Cluster == cluster && sd.Alive {
			return true
		}
	}
	return false
}

// observeLatency folds one spawn-to-registered duration into the max gauge.
func (c *Controller) observeLatency(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	for {
		old := c.latencyMaxMs.Load()
		if ms <= math.Float64frombits(old) {
			return
		}
		if c.latencyMaxMs.CompareAndSwap(old, math.Float64bits(ms)) {
			return
		}
	}
}

// writeMetrics renders the controller's exposition-format families; it is
// installed as the scheduler's metrics hook and runs on every scrape.
func (c *Controller) writeMetrics(w io.Writer) {
	cs := c.Counters()
	fmt.Fprintf(w, "# HELP oagrid_autoscale_fleet_size Dispatchable SeDs under the autoscaler (base plus spawned, draining excluded).\n# TYPE oagrid_autoscale_fleet_size gauge\n")
	fmt.Fprintf(w, "oagrid_autoscale_fleet_size %v\n", float64(cs.FleetSize))
	fmt.Fprintf(w, "# HELP oagrid_autoscale_draining Spawned SeDs currently finishing their last chunks.\n# TYPE oagrid_autoscale_draining gauge\n")
	fmt.Fprintf(w, "oagrid_autoscale_draining %v\n", float64(cs.Draining))
	fmt.Fprintf(w, "# HELP oagrid_autoscale_scale_ups_total Completed scale-up actions.\n# TYPE oagrid_autoscale_scale_ups_total counter\n")
	fmt.Fprintf(w, "oagrid_autoscale_scale_ups_total %v\n", float64(cs.ScaleUps))
	fmt.Fprintf(w, "# HELP oagrid_autoscale_scale_downs_total Completed scale-down actions (drained and deregistered).\n# TYPE oagrid_autoscale_scale_downs_total counter\n")
	fmt.Fprintf(w, "oagrid_autoscale_scale_downs_total %v\n", float64(cs.ScaleDowns))
	fmt.Fprintf(w, "# HELP oagrid_autoscale_scale_up_latency_ms_max Slowest spawn-to-registered latency observed.\n# TYPE oagrid_autoscale_scale_up_latency_ms_max gauge\n")
	fmt.Fprintf(w, "oagrid_autoscale_scale_up_latency_ms_max %v\n", cs.ScaleUpLatencyMaxMs)
}
