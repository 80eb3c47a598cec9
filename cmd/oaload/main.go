// Command oaload is the load injector for the grid scheduler daemon: it
// fires N concurrent simulation campaigns at a live daemon with Poisson,
// bursty or uniform arrival patterns, optionally kills a SeD mid-run, and
// reports service metrics (throughput, p50/p95/p99 latency, queue depth) as
// BENCH_grid.json — the artifact the CI bench-regression gate compares.
//
// Usage:
//
//	oaload                                  # self-hosted smoke: daemon + 3 SeDs in-process
//	oaload -campaigns 50 -arrival poisson -rate 40
//	oaload -arrival burst -burst 10 -gap 100ms
//	oaload -kill 0.3                        # kill one SeD after 30% of submissions
//	oaload -restart 0.5                     # kill + restart the daemon mid-run
//	oaload -cancel 0.2                      # cancel ~20% of campaigns server-side
//	oaload -tenants gold=1,silver=1,bronze=1  # multi-tenant fairness workload
//	oaload -profile burst -autoscale 1:5 -seds 1  # elastic-fleet burst bench
//	oaload -addr 127.0.0.1:7714             # drive an external daemon (injection off)
//
// Without -addr the injector starts its own scheduler and SeDs on loopback
// ports, which is also the hostile mode: -kill closes one SeD daemon
// mid-run, -restart kills the scheduler itself after a fraction of the
// submissions and restarts it on the same address and state dir (clients
// reattach by campaign ID and resume from the replayed journal), -cancel
// cancels a seeded fraction of the campaigns server-side right after
// admission (reported as cancels / cancel_latency_p95_ms), and -verify
// (default on) checks every completed chunk report bit-for-bit against a
// serial in-process evaluation of the same (cluster, scenario count).
//
// With -tenants the injector exercises the daemon's weighted-fair queueing:
// campaigns are labelled with cycling tenant names (round-robin by index)
// and mixed priorities ((i%3)*5, so priority flooding cannot skew tenant
// shares), the self-hosted daemon gets the matching -tenant-weights, and
// the report gains per-tenant completion/latency breakdowns plus a Jain
// fairness index and a max/min per-tenant p95 ratio — the numbers the CI
// fairness gate floors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"oagrid"
	"oagrid/cmd/internal/cliflag"
	"oagrid/internal/autoscale"
	"oagrid/internal/diet"
	"oagrid/internal/grid"
	"oagrid/internal/platform"
)

// loadReport is the BENCH_grid.json schema.
type loadReport struct {
	Campaigns      int     `json:"campaigns"`
	Arrival        string  `json:"arrival"`
	RatePerSec     float64 `json:"rate_per_sec"`
	Burst          int     `json:"burst,omitempty"`
	Scenarios      int     `json:"scenarios"`
	Months         int     `json:"months"`
	Heuristic      string  `json:"heuristic"`
	SeDs           int     `json:"seds"`
	SeDKilled      bool    `json:"sed_killed"`
	Seed           int64   `json:"seed"`
	GoMaxProcs     int     `json:"gomaxprocs"`
	Completed      int     `json:"completed"`
	Cancels        int     `json:"cancels"`
	CancelP95Ms    float64 `json:"cancel_latency_p95_ms,omitempty"`
	Rejections     int     `json:"rejections"`
	Requeues       uint64  `json:"requeues"`
	Evictions      uint64  `json:"evictions"`
	DaemonRestarts int     `json:"daemon_restarts"`
	Reattaches     int     `json:"reattaches"`
	Resubmits      int     `json:"resubmits"`
	Verified       bool    `json:"verified_bit_identical"`
	WallSeconds    float64 `json:"wall_seconds"`
	ThroughputCPS  float64 `json:"throughput_cps"`
	// Wire gauges over the injection window (the self-hosted run counts
	// client, daemon and SeD traffic in one process).
	BytesTx       uint64  `json:"bytes_tx"`
	BytesRx       uint64  `json:"bytes_rx"`
	FramesPerSec  float64 `json:"frames_per_sec"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxQueueDepth int     `json:"max_queue_depth"`
	// Multi-tenant fairness block, present only with -tenants: per-tenant
	// breakdowns plus the two aggregates the CI fairness gate floors.
	// FairnessJain is the Jain index over weight-normalized completed
	// throughput (1.0 = perfectly fair); TenantP95Ratio is max/min p95
	// latency across tenants that completed work (1.0 = identical tails).
	Tenants         map[string]tenantReport `json:"tenants,omitempty"`
	FairnessJain    float64                 `json:"fairness_jain,omitempty"`
	TenantP95Ratio  float64                 `json:"tenant_p95_ratio,omitempty"`
	QuotaRejections int                     `json:"quota_rejections,omitempty"`
	// Sharded-ring block, present only with -ring: the member list driven
	// and each shard's local (non-fanned-out) accounting after the run.
	Ring   []string               `json:"ring,omitempty"`
	Shards map[string]shardReport `json:"shards,omitempty"`
	// Elastic-fleet block, present only with -profile burst: phase-tagged
	// latency percentiles (warm/peak/cool), periodic fleet-size samples,
	// and — when the self-hosted daemon runs -autoscale — the controller's
	// scale counters. FleetPeak is the largest dispatchable fleet any
	// sample saw; the CI autoscale gate floors it and ceilings PeakP99Ms.
	Profile          string                 `json:"profile,omitempty"`
	PeakMult         float64                `json:"peak_mult,omitempty"`
	Phases           map[string]phaseReport `json:"phases,omitempty"`
	FleetBase        int                    `json:"fleet_base,omitempty"`
	FleetPeak        int                    `json:"fleet_peak,omitempty"`
	FleetSamples     []fleetSample          `json:"fleet_samples,omitempty"`
	ScaleUps         uint64                 `json:"scale_ups,omitempty"`
	ScaleDowns       uint64                 `json:"scale_downs,omitempty"`
	ScaleUpLatencyMs float64                `json:"scale_up_latency_ms,omitempty"`
}

// phaseReport is one burst-profile phase's service numbers.
type phaseReport struct {
	Campaigns int     `json:"campaigns"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// fleetSample is one periodic observation of the dispatchable fleet size
// (alive, non-draining SeDs).
type fleetSample struct {
	TMs  float64 `json:"t_ms"`
	Size int     `json:"size"`
}

// shardReport is one ring member's local accounting, read through the
// forwarded-request envelope so the numbers are the shard's own rather than
// the ring-wide fan-out merge every plain stats call returns.
type shardReport struct {
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled,omitempty"`
	Requeues  uint64 `json:"requeues"`
	MaxQueue  int    `json:"max_queue_depth"`
}

// tenantReport is one tenant's slice of the fairness workload.
type tenantReport struct {
	Weight    float64 `json:"weight"`
	Submitted int     `json:"submitted"`
	Completed int     `json:"completed"`
	Cancels   int     `json:"cancels,omitempty"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	MeanMs    float64 `json:"mean_ms"`
}

func main() {
	var (
		addr      = flag.String("addr", "", "daemon address (empty = self-hosted daemon + SeDs)")
		ringSpec  = flag.String("ring", "", "comma-separated ring member addresses to drive (external sharded ring; submissions spread across members, per-shard accounting in the report; members must run the default cluster profiles for -verify)")
		campaigns = flag.Int("campaigns", 50, "campaigns to inject")
		arrival   = flag.String("arrival", "poisson", "arrival pattern: poisson, burst or uniform")
		rate      = flag.Float64("rate", 50, "mean arrival rate in campaigns/second (poisson, uniform)")
		burst     = flag.Int("burst", 10, "campaigns per burst (burst pattern)")
		gap       = flag.Duration("gap", 100*time.Millisecond, "pause between bursts (burst pattern)")
		ns        = flag.Int("ns", 4, "scenarios per campaign")
		months    = flag.Int("months", 12, "months per scenario")
		heuristic = flag.String("heuristic", oagrid.KnapsackName, "planning heuristic")
		kill      = flag.Float64("kill", 0, "kill one SeD after this fraction of submissions (self-hosted only, 0 = never)")
		cancelFr  = flag.Float64("cancel", 0, "cancel this fraction of campaigns server-side mid-run (0 = never)")
		restart   = flag.Float64("restart", 0, "kill the daemon after this fraction of submissions and restart it on the same state dir (self-hosted only, 0 = never)")
		state     = flag.String("state", "", "daemon state dir (self-hosted; default: a temp dir when -restart > 0)")
		verify    = flag.Bool("verify", true, "check reports bit-for-bit against serial evaluation (self-hosted only)")
		seds      = flag.Int("seds", 3, "in-process SeDs (self-hosted only)")
		cprocs    = flag.Int("cprocs", 30, "processors per in-process SeD cluster")
		queueCap  = flag.Int("queue", 64, "daemon queue bound (self-hosted only)")
		inflight  = flag.Int("inflight", 4, "per-SeD in-flight limit (self-hosted only)")
		dispatch  = flag.Int("dispatchers", 4, "daemon concurrent campaign dispatchers (self-hosted only)")
		seed      = flag.Int64("seed", 1, "arrival-schedule random seed")
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-campaign client deadline")
		out       = flag.String("out", "BENCH_grid.json", "benchmark artifact path (empty = skip writing)")
		tenants   = flag.String("tenants", "", "fairness workload as name=weight[,name=weight...]: campaigns get round-robin tenant labels and cycling priorities; the self-hosted daemon gets the weights")

		profile       = flag.String("profile", "", "arrival profile: burst (warm quarter at -rate, peak half at -rate x -peak-mult, cool quarter back at -rate; overrides -arrival, phase-tagged percentiles and fleet-size samples in the report)")
		peakMult      = flag.Float64("peak-mult", 4, "peak-phase rate multiplier for -profile burst")
		autoscaleSpec = flag.String("autoscale", "", "elastic SeD fleet bounds as min:max (self-hosted only; grows from -seds toward max under pressure, drains back when calm)")
		sedSpeeds     = flag.String("sed-speeds", "", "comma-separated relative SeD speed factors, cycled (self-hosted only; 1 = reference, 0.5 = twice as slow)")
		extVerify     = flag.Bool("verify-external", false, "verify against an external -addr daemon too, assuming it serves the default cluster profiles (-seds/-cprocs must match the daemon's)")
	)
	flag.Parse()

	tenantWeights, err := cliflag.TenantWeights("tenants", *tenants)
	if err != nil {
		fail(err)
	}
	asMin, asMax, err := cliflag.Autoscale(*autoscaleSpec)
	if err != nil {
		fail(err)
	}
	speeds, err := cliflag.Speeds(*sedSpeeds)
	if err != nil {
		fail(err)
	}
	if *profile != "" && *profile != "burst" {
		fail(fmt.Errorf("oaload: unknown -profile %q (want burst)", *profile))
	}
	var tenantNames []string
	for name := range tenantWeights {
		tenantNames = append(tenantNames, name)
	}
	sort.Strings(tenantNames)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	campaign := oagrid.NewCampaign(*ns, *months)
	campaign.Heuristic = *heuristic

	report := loadReport{
		Campaigns:  *campaigns,
		Arrival:    *arrival,
		RatePerSec: *rate,
		Scenarios:  *ns,
		Months:     *months,
		Heuristic:  *heuristic,
		SeDs:       *seds,
		Seed:       *seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	if *arrival == "burst" {
		report.Burst = *burst
	}
	if *profile != "" {
		report.Profile = *profile
		report.PeakMult = *peakMult
	}

	// Self-hosted fabric unless pointed at an external daemon or ring.
	target := *addr
	ringMembers := cliflag.List(*ringSpec)
	if len(ringMembers) > 0 {
		if target != "" {
			fail(errors.New("oaload: -addr and -ring are mutually exclusive"))
		}
		target = strings.Join(ringMembers, ",")
		report.Ring = ringMembers
	}
	stateDir := *state
	var fabric *grid.Fabric
	var verifyClusters map[string]*platform.Cluster
	if len(ringMembers) > 0 {
		if *kill > 0 || *restart > 0 {
			fmt.Fprintln(os.Stderr, "oaload: -kill and -restart need the self-hosted fabric; disabled against a ring (kill a ring daemon externally instead)")
			*kill, *restart = 0, 0
		}
		if *verify {
			// Ring daemons run the paper's default cluster profiles (oarun
			// -daemon), so the serial verifier can be built without a fabric.
			verifyClusters = defaultClusters(*seds, *cprocs)
		}
	} else if target == "" {
		if *restart > 0 && stateDir == "" {
			tmp, err := os.MkdirTemp("", "oaload-state-*")
			if err != nil {
				fail(err)
			}
			defer os.RemoveAll(tmp)
			stateDir = tmp
		}
		var err error
		fabric, err = grid.StartFabricSpeeds(grid.Config{
			Addr:           "127.0.0.1:0",
			QueueCap:       *queueCap,
			Dispatchers:    *dispatch,
			PerSeDInFlight: *inflight,
			EvictAfter:     time.Second,
			StateDir:       stateDir,
			TenantWeights:  tenantWeights,
		}, *seds, *cprocs, 100*time.Millisecond, speeds)
		if err != nil {
			fail(err)
		}
		defer fabric.Close()
		*seds = len(fabric.SeDs)
		report.SeDs = *seds
		target = fabric.Sched.Addr()
		if err := fabric.WaitAlive(*seds, 5*time.Second); err != nil {
			fail(err)
		}
		verifyClusters = fabric.Clusters
	} else if *kill > 0 || *restart > 0 || (*verify && !*extVerify) {
		fmt.Fprintln(os.Stderr, "oaload: -kill, -restart and -verify need the self-hosted fabric; disabled against an external daemon (-verify-external opts verification back in)")
		*kill, *restart = 0, 0
		if !*extVerify {
			*verify = false
		}
	}
	if *extVerify && fabric == nil && len(ringMembers) == 0 && *verify {
		// The external daemon is assumed to serve the default profiles the
		// way oarun -daemon does; autoscale-spawned "<name>#<seq>" clones
		// fall back to their base profile inside the verifier.
		verifyClusters = defaultClusters(*seds, *cprocs)
	}

	var ctl *autoscale.Controller
	if asMax > 0 {
		if fabric == nil {
			fail(errors.New("oaload: -autoscale needs the self-hosted fabric (drop -addr/-ring, or pass -autoscale to the external oarun daemon instead)"))
		}
		if *restart > 0 {
			fail(errors.New("oaload: -autoscale and -restart are mutually exclusive (the controller holds the old scheduler)"))
		}
		ascfg := autoscale.Config{
			Min:            asMin,
			Max:            asMax,
			HeartbeatEvery: 100 * time.Millisecond,
			// The injection window is seconds long; sample well inside it so
			// the burst's queue pressure is seen while it is still building.
			Sample: 50 * time.Millisecond,
			Speeds: speeds,
		}
		if *profile == "burst" {
			// The burst profile is the acceptance workload: its peak phase is
			// only a few hundred milliseconds wide, so the policy must react
			// on the first pressured samples rather than wait for the default
			// half-second thresholds — by then the peak is over.
			ascfg.Policy = autoscale.Policy{
				UpQueue:       2,
				UpWaitMs:      100,
				DownIdleTicks: 4,
				CoolDownTicks: 1,
			}
		}
		ctl, err = autoscale.Start(fabric.Sched, fabric.SeDs, ascfg)
		if err != nil {
			fail(err)
		}
		defer ctl.Close()
	}

	var arrivals []time.Duration
	var phaseTags []string
	if *profile == "burst" {
		arrivals, phaseTags, err = scheduleBurstProfile(*campaigns, *rate, *peakMult)
	} else {
		arrivals, err = schedule(*arrival, *campaigns, *rate, *burst, *gap, *seed)
	}
	if err != nil {
		fail(err)
	}
	// The cancel injector's victim set: chosen up front on its own seeded
	// stream so the arrival schedule stays identical with and without it.
	cancelSet := make(map[int]bool)
	if *cancelFr > 0 {
		crng := rand.New(rand.NewSource(*seed + 1))
		for i := 0; i < *campaigns; i++ {
			if crng.Float64() < *cancelFr {
				cancelSet[i] = true
			}
		}
	}
	killAt := -1
	if *kill > 0 && fabric != nil && len(fabric.SeDs) > 1 {
		killAt = int(*kill * float64(*campaigns))
		if killAt >= *campaigns {
			killAt = *campaigns - 1
		}
	}
	restartAt := -1
	if *restart > 0 && fabric != nil {
		restartAt = int(*restart * float64(*campaigns))
		if restartAt >= *campaigns {
			restartAt = *campaigns - 1
		}
	}

	fmt.Printf("== oaload: %d campaigns (NS=%d, NM=%d, %s), %s arrivals against %s ==\n",
		*campaigns, *ns, *months, *heuristic, *arrival, target)

	// All submissions flow through the public client API: one streamed
	// campaign per goroutine, typed ErrRejected for the admission-retry loop.
	// A plain target shares one Runner; a ring gets one Runner per member —
	// each with the others as fallbacks — and campaigns round-robin across
	// them, so admission (and therefore ownership) spreads over the shards
	// and cross-shard routing actually gets exercised.
	var runners []oagrid.Runner
	if len(ringMembers) > 1 {
		for i := range ringMembers {
			rot := append(append([]string{}, ringMembers[i:]...), ringMembers[:i]...)
			r, err := oagrid.Dial(ctx, strings.Join(rot, ","), oagrid.WithTimeout(*timeout))
			if err != nil {
				fail(err)
			}
			defer r.Close()
			runners = append(runners, r)
		}
	} else {
		r, err := oagrid.Dial(ctx, target, oagrid.WithTimeout(*timeout))
		if err != nil {
			fail(err)
		}
		defer r.Close()
		runners = append(runners, r)
	}

	var killOnce, restartOnce sync.Once
	latencies := make([]time.Duration, *campaigns)
	outcomes := make([]campaignOutcome, *campaigns)

	// Scheduler-level gauges do not survive a restart (they are process
	// state, not journal state), so the pre-restart numbers are banked here
	// and folded into the report — otherwise BENCH_grid.json would report
	// the fresh instance's near-zero requeue/eviction counters.
	var preRequeues, preEvictions uint64
	var preMaxQueue int

	// restartDaemon replaces the scheduler with a fresh one on the same
	// address and state dir — the load-time equivalent of a crashed daemon
	// coming back: SeDs rejoin on their next heartbeat, the journal
	// re-admits unfinished campaigns, and streaming clients reattach by ID.
	restartDaemon := func(i int) {
		addr := fabric.Sched.Addr()
		fmt.Printf("-- restarting daemon at campaign %d --\n", i)
		stats := fabric.Sched.Stats()
		preRequeues, preEvictions, preMaxQueue = stats.Requeues, stats.Evicted, stats.MaxQueueDepth
		fabric.Sched.Close()
		var err error
		for attempt := 0; attempt < 100; attempt++ {
			var sched *grid.Scheduler
			sched, err = grid.Start(grid.Config{
				Addr:           addr,
				QueueCap:       *queueCap,
				PerSeDInFlight: *inflight,
				EvictAfter:     time.Second,
				StateDir:       stateDir,
				TenantWeights:  tenantWeights,
			})
			if err == nil {
				fabric.Sched = sched
				report.DaemonRestarts++
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		fail(fmt.Errorf("oaload: daemon restart on %s: %w", addr, err))
	}

	wireBefore := diet.WireStats()
	start := time.Now()

	// The burst profile samples the dispatchable fleet (alive, non-draining
	// SeDs) over the wire every 100ms — the record of the scale-up and the
	// scale-back the report's fleet_peak/fleet_base summarize.
	var samplerWg sync.WaitGroup
	samplerStop := make(chan struct{})
	if *profile == "burst" {
		report.FleetBase = *seds
		sampleClient := &grid.Client{Addr: target}
		if len(ringMembers) > 0 {
			sampleClient = &grid.Client{Addr: ringMembers[0], Addrs: ringMembers[1:]}
		}
		samplerWg.Add(1)
		go func() {
			defer samplerWg.Done()
			t := time.NewTicker(100 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-samplerStop:
					return
				case <-t.C:
				}
				st, err := sampleClient.Stats()
				if err != nil {
					continue
				}
				size := 0
				for _, sd := range st.SeDs {
					if sd.Alive && !sd.Draining {
						size++
					}
				}
				report.FleetSamples = append(report.FleetSamples, fleetSample{
					TMs:  float64(time.Since(start)) / float64(time.Millisecond),
					Size: size,
				})
				if size > report.FleetPeak {
					report.FleetPeak = size
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for i := 0; i < *campaigns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(arrivals[i])))
			if i == killAt {
				killOnce.Do(func() {
					// The first profile is the fastest cluster: it always
					// holds the largest scenario share, so its death is
					// guaranteed to cost requeues, not just an eviction.
					victim := fabric.SeDs[0]
					fmt.Printf("-- killing SeD %s at campaign %d --\n", victim.Addr(), i)
					victim.Close()
					report.SeDKilled = true
				})
			}
			if i == restartAt {
				restartOnce.Do(func() { restartDaemon(i) })
			}
			var opts []oagrid.SubmitOption
			if len(tenantNames) > 0 {
				// Round-robin tenants with cycling priorities: every tenant
				// submits the same priority mix, so a fair scheduler must give
				// equal-weight tenants equal shares regardless of priority.
				opts = append(opts,
					oagrid.WithLabels(map[string]string{grid.DefaultTenantKey: tenantNames[i%len(tenantNames)]}),
					oagrid.WithPriority((i%3)*5))
			}
			t0 := time.Now()
			// Recovery through Attach is on under restart injection and
			// against a ring: a ring member may be killed externally mid-run,
			// and its admitted campaigns are finished by the failover owner.
			outcomes[i] = runCampaign(ctx, runners[i%len(runners)], campaign, t0.Add(*timeout),
				restartAt >= 0 || len(ringMembers) > 0, cancelSet[i], opts)
			latencies[i] = time.Since(t0)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	// With an elastic fleet the run is not over at the last verdict: the
	// report must also witness the scale-back. Keep the fleet sampler
	// running and wait (bounded) for the controller to drain back to min —
	// the burst acceptance is "up AND back down", not just up.
	if ctl != nil && *profile == "burst" {
		settle := time.Now().Add(30 * time.Second)
		for time.Now().Before(settle) {
			cs := ctl.Counters()
			if cs.FleetSize <= asMin && cs.Draining == 0 {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	close(samplerStop)
	samplerWg.Wait()
	wireAfter := diet.WireStats()
	report.BytesTx = wireAfter.BytesTx - wireBefore.BytesTx
	report.BytesRx = wireAfter.BytesRx - wireBefore.BytesRx
	if frames := wireAfter.FramesTx + wireAfter.FramesRx - wireBefore.FramesTx - wireBefore.FramesRx; wall > 0 {
		report.FramesPerSec = float64(frames) / wall.Seconds()
	}

	completed := 0
	results := make([]*oagrid.CampaignResult, *campaigns)
	var sorted, cancelLatencies []time.Duration
	for i, out := range outcomes {
		if out.err != nil {
			fail(fmt.Errorf("campaign %d: %w", i, out.err))
		}
		// Admission-retry and restart-recovery bookkeeping counts whatever
		// the campaign's fate — a cancelled campaign may still have been
		// rejected, reattached or resubmitted on its way in.
		report.Rejections += out.rejections
		report.QuotaRejections += out.quotaRejections
		report.Reattaches += out.reattaches
		report.Resubmits += out.resubmits
		if out.cancelled {
			// A cancelled campaign is a successful control-plane operation,
			// not a completion: it leaves the latency percentiles and enters
			// the cancel-latency ones.
			report.Cancels++
			cancelLatencies = append(cancelLatencies, out.cancelLatency)
			continue
		}
		completed++
		results[i] = out.res
		sorted = append(sorted, latencies[i])
	}
	report.Completed = completed
	report.WallSeconds = wall.Seconds()
	if wall > 0 {
		report.ThroughputCPS = float64(completed) / wall.Seconds()
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	report.P50Ms = percentileMs(sorted, 50)
	report.P95Ms = percentileMs(sorted, 95)
	report.P99Ms = percentileMs(sorted, 99)
	sort.Slice(cancelLatencies, func(i, j int) bool { return cancelLatencies[i] < cancelLatencies[j] })
	report.CancelP95Ms = percentileMs(cancelLatencies, 95)

	if len(tenantNames) > 0 {
		report.Tenants = tenantBreakdown(tenantNames, tenantWeights, outcomes, latencies)
		report.FairnessJain = jainIndex(tenantNames, tenantWeights, report.Tenants)
		report.TenantP95Ratio = p95Ratio(report.Tenants)
	}
	if *profile == "burst" {
		report.Phases = phaseBreakdown(phaseTags, outcomes, latencies)
		if ctl != nil {
			cs := ctl.Counters()
			report.ScaleUps = cs.ScaleUps
			report.ScaleDowns = cs.ScaleDowns
			report.ScaleUpLatencyMs = cs.ScaleUpLatencyMaxMs
		}
	}

	// Ring-wide gauges: any member answers (stats fan out and merge), and the
	// multi-addr client survives a member killed during the run. A plain
	// target keeps the single-address client.
	statsClient := &grid.Client{Addr: target}
	if len(ringMembers) > 0 {
		statsClient = &grid.Client{Addr: ringMembers[0], Addrs: ringMembers[1:]}
	}
	if stats, err := statsClient.Stats(); err == nil {
		report.MaxQueueDepth = stats.MaxQueueDepth
		if preMaxQueue > report.MaxQueueDepth {
			report.MaxQueueDepth = preMaxQueue
		}
		report.Requeues = stats.Requeues + preRequeues
		report.Evictions = stats.Evicted + preEvictions
	}
	if len(ringMembers) > 0 {
		report.Shards = shardAccounting(ringMembers)
	}

	if *verify {
		if err := verifyAll(verifyClusters, campaign, results); err != nil {
			fail(err)
		}
		report.Verified = true
	}

	fmt.Printf("completed %d/%d in %.3fs  throughput %.1f campaigns/s\n",
		completed, *campaigns, report.WallSeconds, report.ThroughputCPS)
	fmt.Printf("latency p50 %.1fms  p95 %.1fms  p99 %.1fms   max queue depth %d  rejections %d  requeues %d\n",
		report.P50Ms, report.P95Ms, report.P99Ms, report.MaxQueueDepth, report.Rejections, report.Requeues)
	fmt.Printf("wire: %d B tx, %d B rx, %.0f frames/s\n",
		report.BytesTx, report.BytesRx, report.FramesPerSec)
	if len(tenantNames) > 0 {
		for _, name := range tenantNames {
			tr := report.Tenants[name]
			fmt.Printf("tenant %-10s w=%-4g submitted %3d  completed %3d  p50 %.1fms  p95 %.1fms\n",
				name, tr.Weight, tr.Submitted, tr.Completed, tr.P50Ms, tr.P95Ms)
		}
		fmt.Printf("fairness: Jain %.4f  p95 ratio %.2f  quota rejections %d\n",
			report.FairnessJain, report.TenantP95Ratio, report.QuotaRejections)
	}
	if *profile == "burst" {
		for _, name := range []string{"warm", "peak", "cool"} {
			if ph, ok := report.Phases[name]; ok {
				fmt.Printf("phase %-5s %3d campaigns  p50 %.1fms  p95 %.1fms  p99 %.1fms\n",
					name, ph.Campaigns, ph.P50Ms, ph.P95Ms, ph.P99Ms)
			}
		}
		fmt.Printf("fleet: base %d, peak %d (%d samples)", report.FleetBase, report.FleetPeak, len(report.FleetSamples))
		if ctl != nil {
			fmt.Printf("  scale-ups %d, scale-downs %d, scale-up latency max %.1fms",
				report.ScaleUps, report.ScaleDowns, report.ScaleUpLatencyMs)
		}
		fmt.Println()
	}
	if len(report.Shards) > 0 {
		for _, m := range ringMembers {
			sr, ok := report.Shards[m]
			if !ok {
				fmt.Printf("shard %-22s unreachable (no local accounting)\n", m)
				continue
			}
			fmt.Printf("shard %-22s completed %4d  failed %d  requeues %d  max queue %d\n",
				m, sr.Completed, sr.Failed, sr.Requeues, sr.MaxQueue)
		}
	}
	if report.Cancels > 0 {
		fmt.Printf("cancel injection: %d campaign(s) cancelled server-side, cancel latency p95 %.1fms\n",
			report.Cancels, report.CancelP95Ms)
	}
	if report.DaemonRestarts > 0 {
		fmt.Printf("restart injection: %d daemon restart(s), %d reattach(es), %d resubmit(s)\n",
			report.DaemonRestarts, report.Reattaches, report.Resubmits)
	}
	if report.Verified {
		fmt.Println("verification: every chunk report bit-identical to serial evaluation")
	}

	if *out == "" {
		return
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// defaultClusters rebuilds the cluster map a self-hosted fabric (and an oarun
// -daemon with default flags) serves: the paper's five Grid'5000 profiles,
// capped to n and with procs processors each. It feeds the serial verifier
// when the daemons are external and there is no fabric to read it from.
func defaultClusters(n, procs int) map[string]*platform.Cluster {
	out := map[string]*platform.Cluster{}
	profiles := platform.FiveClusters()
	if n > len(profiles) {
		n = len(profiles)
	}
	for _, cl := range profiles[:n] {
		cl.Procs = procs
		out[cl.Name] = cl
	}
	return out
}

// shardAccounting asks every ring member for its own local stats. A plain
// stats request to a ring member fans out and merges, so each member is
// queried through the forwarded-request envelope instead — the receiver
// serves a forwarded request locally, which is exactly the per-shard view.
// Unreachable members (a killed daemon) are simply absent from the map.
func shardAccounting(members []string) map[string]shardReport {
	out := make(map[string]shardReport, len(members))
	for _, m := range members {
		resp, err := diet.RoundTrip(m, &diet.Request{
			Version: diet.ProtocolVersion,
			Kind:    diet.KindForward,
			Forward: &diet.ForwardRequest{
				From:  "oaload",
				Inner: &diet.Request{Version: diet.ProtocolVersion, Kind: diet.KindStats, Stats: &diet.StatsRequest{}},
			},
		})
		if err != nil || resp.Stats == nil {
			continue
		}
		out[m] = shardReport{
			Completed: resp.Stats.Completed,
			Failed:    resp.Stats.Failed,
			Cancelled: resp.Stats.Cancelled,
			Requeues:  resp.Stats.Requeues,
			MaxQueue:  resp.Stats.MaxQueueDepth,
		}
	}
	return out
}

// scheduleBurstProfile builds the elastic-fleet acceptance workload: a warm
// quarter of the campaigns arriving uniformly at rate, a peak half at rate x
// mult, and a cool quarter back at rate. Arrivals are fully deterministic
// (uniform steps within each phase) so the run replays exactly; the returned
// tags name each campaign's phase for the report's percentile breakdown.
func scheduleBurstProfile(n int, rate, mult float64) ([]time.Duration, []string, error) {
	if n <= 0 {
		return nil, nil, errors.New("oaload: need at least one campaign")
	}
	if rate <= 0 {
		return nil, nil, errors.New("oaload: -profile burst needs -rate > 0")
	}
	if mult < 1 {
		return nil, nil, errors.New("oaload: -profile burst needs -peak-mult >= 1")
	}
	warm := n / 4
	peak := n / 2
	out := make([]time.Duration, n)
	tags := make([]string, n)
	t := 0.0
	for i := 0; i < n; i++ {
		r := rate
		switch {
		case i < warm:
			tags[i] = "warm"
		case i < warm+peak:
			tags[i], r = "peak", rate*mult
		default:
			tags[i] = "cool"
		}
		out[i] = time.Duration(t * float64(time.Second))
		t += 1.0 / r
	}
	return out, tags, nil
}

// phaseBreakdown folds completed-campaign latencies into per-phase
// percentiles, keyed by the tags scheduleBurstProfile assigned.
func phaseBreakdown(tags []string, outcomes []campaignOutcome, latencies []time.Duration) map[string]phaseReport {
	buckets := map[string][]time.Duration{}
	for i, oc := range outcomes {
		if oc.res == nil {
			continue
		}
		buckets[tags[i]] = append(buckets[tags[i]], latencies[i])
	}
	out := make(map[string]phaseReport, len(buckets))
	for name, lats := range buckets {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		out[name] = phaseReport{
			Campaigns: len(lats),
			P50Ms:     percentileMs(lats, 50),
			P95Ms:     percentileMs(lats, 95),
			P99Ms:     percentileMs(lats, 99),
		}
	}
	return out
}

// schedule precomputes the deterministic arrival offsets of every campaign.
func schedule(pattern string, n int, rate float64, burst int, gap time.Duration, seed int64) ([]time.Duration, error) {
	if n <= 0 {
		return nil, errors.New("oaload: need at least one campaign")
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	switch pattern {
	case "poisson":
		if rate <= 0 {
			return nil, errors.New("oaload: poisson arrivals need -rate > 0")
		}
		t := 0.0
		for i := range out {
			t += rng.ExpFloat64() / rate
			out[i] = time.Duration(t * float64(time.Second))
		}
	case "uniform":
		if rate <= 0 {
			return nil, errors.New("oaload: uniform arrivals need -rate > 0")
		}
		step := time.Duration(float64(time.Second) / rate)
		for i := range out {
			out[i] = time.Duration(i) * step
		}
	case "burst":
		if burst <= 0 {
			return nil, errors.New("oaload: burst arrivals need -burst > 0")
		}
		for i := range out {
			out[i] = time.Duration(i/burst) * gap
		}
	default:
		return nil, fmt.Errorf("oaload: unknown arrival pattern %q (want poisson, burst or uniform)", pattern)
	}
	return out, nil
}

// percentileMs picks the nearest-rank percentile from ascending latencies.
func percentileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank]) / float64(time.Millisecond)
}

// tenantBreakdown folds the per-campaign outcomes into per-tenant service
// numbers. Campaign i belongs to tenant i%len(names) — the same round-robin
// assignment the injection loop used.
func tenantBreakdown(names []string, weights map[string]float64, outcomes []campaignOutcome, latencies []time.Duration) map[string]tenantReport {
	buckets := make(map[string][]time.Duration, len(names))
	out := make(map[string]tenantReport, len(names))
	for _, name := range names {
		out[name] = tenantReport{Weight: weights[name]}
	}
	for i, oc := range outcomes {
		name := names[i%len(names)]
		tr := out[name]
		tr.Submitted++
		switch {
		case oc.cancelled:
			tr.Cancels++
		case oc.res != nil:
			tr.Completed++
			buckets[name] = append(buckets[name], latencies[i])
		}
		out[name] = tr
	}
	for name, lats := range buckets {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		tr := out[name]
		tr.P50Ms = percentileMs(lats, 50)
		tr.P95Ms = percentileMs(lats, 95)
		var sum time.Duration
		for _, d := range lats {
			sum += d
		}
		tr.MeanMs = float64(sum) / float64(len(lats)) / float64(time.Millisecond)
		out[name] = tr
	}
	return out
}

// jainIndex is Jain's fairness index (Σx)²/(n·Σx²) over the tenants'
// weight-normalized completed throughput: 1.0 means every tenant got exactly
// its weighted share, 1/n means one tenant took everything.
func jainIndex(names []string, weights map[string]float64, tenants map[string]tenantReport) float64 {
	var sum, sumSq float64
	for _, name := range names {
		x := float64(tenants[name].Completed) / weights[name]
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(names)) * sumSq)
}

// p95Ratio is max/min p95 latency across tenants that completed work — the
// tail-latency face of fairness (1.0 = identical tails). Zero when fewer
// than two tenants completed anything.
func p95Ratio(tenants map[string]tenantReport) float64 {
	min, max := math.Inf(1), 0.0
	n := 0
	for _, tr := range tenants {
		if tr.Completed == 0 || tr.P95Ms <= 0 {
			continue
		}
		n++
		min = math.Min(min, tr.P95Ms)
		max = math.Max(max, tr.P95Ms)
	}
	if n < 2 || min <= 0 {
		return 0
	}
	return max / min
}

// campaignOutcome is one injected campaign's bookkeeping.
type campaignOutcome struct {
	res        *oagrid.CampaignResult
	rejections int
	// quotaRejections counts the subset of rejections that were the tenant's
	// own quota rather than the shared queue bound.
	quotaRejections int
	reattaches      int
	resubmits       int
	cancelled       bool
	// cancelLatency is the time from issuing Runner.Cancel to the handle
	// resolving with the cancelled verdict.
	cancelLatency time.Duration
	err           error
}

// runCampaign drives one campaign through the Runner with admission-control
// backoff: rejected submissions retry every few milliseconds until accepted
// or the deadline passes. With restart injection on, a stream that dies
// after admission is recovered through Runner.Attach — retried until the
// (possibly restarting) daemon answers — and only an ErrUnknownCampaign
// verdict falls back to resubmission. With wantCancel the campaign is
// cancelled server-side as soon as it is admitted; a fast campaign may
// still beat the cancel to the finish line, in which case it counts as
// completed (cancelling a finished campaign is a no-op).
func runCampaign(ctx context.Context, runner oagrid.Runner, c oagrid.Campaign, deadline time.Time, reattach, wantCancel bool, opts []oagrid.SubmitOption) campaignOutcome {
	var out campaignOutcome
	pause := func() bool {
		if time.Now().Add(5 * time.Millisecond).After(deadline) {
			return false
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(5 * time.Millisecond):
		}
		return true
	}
	// cancelSent carries the timestamp of the issued cancel — a channel, so
	// the latency read after Wait has a sync edge with the injector.
	cancelSent := make(chan time.Time, 1)
	cancelLatency := func() time.Duration {
		select {
		case at := <-cancelSent:
			return time.Since(at)
		default:
			return 0
		}
	}
	for {
		h, err := runner.Run(ctx, c, opts...)
		if err != nil {
			out.err = err
			return out
		}
		if wantCancel {
			// A fresh attempt measures its own cancel: drop a previous
			// attempt's banked timestamp (its submission died), or the
			// reported latency would span the failed attempt too.
			select {
			case <-cancelSent:
			default:
			}
			go func() {
				// Wait for admission: the ID is the cancel handle. A
				// rejected or finished campaign closes Done first.
				for h.ID() == 0 {
					select {
					case <-h.Done():
						return
					case <-time.After(time.Millisecond):
					}
				}
				// Bank the issue time before the RPC: the verdict frame can
				// resolve Wait before the cancel round trip even returns.
				select {
				case cancelSent <- time.Now():
				default:
				}
				// Retry through a restarting daemon's dial-refused window.
				for {
					if err := runner.Cancel(ctx, h.ID()); err == nil || errors.Is(err, oagrid.ErrUnknownCampaign) {
						return
					}
					select {
					case <-ctx.Done():
						return
					case <-h.Done():
						return
					case <-time.After(5 * time.Millisecond):
					}
				}
			}()
		}
		res, err := h.Wait()
		if err == nil {
			out.res = res
			return out
		}
		if wantCancel && errors.Is(err, oagrid.ErrCampaignCancelled) {
			out.cancelled = true
			out.cancelLatency = cancelLatency()
			return out
		}
		if errors.Is(err, oagrid.ErrRejected) {
			out.rejections++
			if errors.Is(err, oagrid.ErrQuotaExceeded) {
				out.quotaRejections++
			}
			if !pause() {
				out.err = err
				return out
			}
			continue
		}
		id := h.ID()
		if !reattach || id == 0 {
			// No restart injection (any failure is real), or the stream died
			// before the admission verdict: resubmit if we can.
			if !reattach {
				out.err = err
				return out
			}
			out.resubmits++
			if !pause() {
				out.err = err
				return out
			}
			continue
		}
		// Admitted, then the stream broke: the campaign lives on (journal or
		// daemon memory) — reattach until the daemon answers. A journaled
		// terminal failure keeps answering ErrCampaignFailed on every attach;
		// allow a couple of retries (the shutdown window of a restarting
		// daemon also reads as ErrCampaignFailed) and then treat it as the
		// permanent verdict it is, instead of replaying the history until the
		// deadline.
		failedVerdicts := 0
		for {
			ah, aerr := runner.Attach(ctx, id)
			if aerr == nil {
				res, aerr = ah.Wait()
				if aerr == nil {
					out.reattaches++
					out.res = res
					return out
				}
				if wantCancel && errors.Is(aerr, oagrid.ErrCampaignCancelled) {
					// The cancel landed while the stream was cut; the
					// journaled verdict survives the daemon restart.
					out.cancelled = true
					out.cancelLatency = cancelLatency()
					return out
				}
				if errors.Is(aerr, oagrid.ErrUnknownCampaign) {
					out.resubmits++
					break // back to a fresh submission
				}
				if errors.Is(aerr, oagrid.ErrCampaignFailed) {
					if failedVerdicts++; failedVerdicts >= 3 {
						out.err = aerr
						return out
					}
				}
			}
			if !pause() {
				out.err = aerr
				return out
			}
		}
		if !pause() {
			out.err = err
			return out
		}
	}
}

// verifyAll re-evaluates every chunk report serially in-process through
// grid.Verifier and demands bit-identical makespans — the service must be
// an exact distributed replay of engine.Evaluate, even across
// failure-driven requeues, daemon restarts and ring failovers.
func verifyAll(clusters map[string]*platform.Cluster, c oagrid.Campaign, results []*oagrid.CampaignResult) error {
	v, err := grid.NewVerifier(clusters, c.Heuristic)
	if err != nil {
		return err
	}
	for i, res := range results {
		if res == nil {
			continue
		}
		chunks := make([]grid.ChunkReport, len(res.Reports))
		for j, rep := range res.Reports {
			chunks[j] = grid.ChunkReport{Cluster: rep.Cluster, Scenarios: rep.Scenarios, Makespan: rep.Makespan, Round: rep.Round}
		}
		if err := v.VerifyChunks(c.Experiment, res.Makespan, chunks); err != nil {
			return fmt.Errorf("campaign %d: %w", i, err)
		}
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "oaload:", err)
	os.Exit(1)
}
