// Command oarun drives the toy coupled climate model directly: it runs the
// six-task monthly pipeline (caif, mp, pcr, cof, emi, cd) for a scenario,
// calibrates the Figure-1 task-duration table across the moldable processor
// range, executes a whole scheduled mini-ensemble for real (the paper's
// "verify our simulations by real experiments"), or serves as the grid's
// long-running scheduler daemon.
//
// Usage:
//
//	oarun -months 3 -scenario 2 -procs 8 -dir /tmp/oa   # run a chain
//	oarun -calibrate                                    # Figure-1 table
//	oarun -schedule -ns 3 -months 2 -r 20               # realrun an ensemble
//	oarun -daemon -addr 127.0.0.1:7714 -seds 3          # scheduler daemon
//	oarun -daemon -state /var/lib/oagrid                # durable daemon
//	oarun -daemon -seds 1 -autoscale 1:5                # elastic SeD fleet
//
// Daemon mode starts an internal/grid scheduler on -addr and, when -seds is
// positive, that many in-process SeDs (the paper's five Grid'5000 cluster
// profiles, -cprocs processors each) registered against it with heartbeats.
// External SeDs can join at any time by heartbeating the same address.
// Submit campaigns with cmd/oaload or the public client API (oagrid.Dial);
// stop with ^C.
//
// With -state the daemon is durable: campaign transitions are journaled to
// an append-only WAL under the directory, and a daemon restarted on the
// same -state (after a crash, a kill -9, or a clean ^C) re-admits every
// unfinished campaign and keeps serving previously issued campaign IDs —
// clients reattach with oagrid's Runner.Attach and resume streaming from
// the replayed history.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"oagrid/cmd/internal/cliflag"
	"oagrid/internal/autoscale"
	"oagrid/internal/climate/field"
	"oagrid/internal/climate/pipeline"
	"oagrid/internal/core"
	"oagrid/internal/figures"
	"oagrid/internal/grid"
	"oagrid/internal/platform"
	"oagrid/internal/realrun"
)

func main() {
	var (
		months    = flag.Int("months", 1, "months to run (chained through restarts)")
		scenario  = flag.Int("scenario", 0, "scenario index (fixes the cloud parametrization)")
		procs     = flag.Int("procs", 8, "processors for the coupled run (4-11)")
		dir       = flag.String("dir", "", "experiment directory (default: a temp dir)")
		days      = flag.Int("days", 30, "days per month (lower = faster)")
		calibrate = flag.Bool("calibrate", false, "measure the Figure-1 task table instead")
		big       = flag.Bool("big", false, "use larger grids (slower, cleaner timings)")
		schedule  = flag.Bool("schedule", false, "plan with the knapsack heuristic and execute the ensemble for real")
		ns        = flag.Int("ns", 3, "scenarios for -schedule")
		r         = flag.Int("r", 20, "cluster processors for -schedule")

		daemon   = flag.Bool("daemon", false, "run the online grid scheduler daemon")
		addr     = flag.String("addr", "127.0.0.1:7714", "daemon listen address")
		seds     = flag.Int("seds", 3, "in-process SeDs to start for the daemon (0 = external SeDs only)")
		cprocs   = flag.Int("cprocs", 30, "processors per in-process SeD cluster")
		queueCap = flag.Int("queue", 64, "daemon campaign queue bound (admission control)")
		inflight = flag.Int("inflight", 4, "daemon per-SeD in-flight request limit")
		dispatch = flag.Int("dispatchers", 4, "daemon concurrent campaign dispatchers")
		hbEvery  = flag.Duration("hb", 500*time.Millisecond, "SeD heartbeat interval")
		evict    = flag.Duration("evict", 3*time.Second, "daemon heartbeat eviction deadline")
		state    = flag.String("state", "", "daemon state dir: journal campaigns and recover them on restart (empty = in-memory only)")
		ringSpec = flag.String("ring", "", "comma-separated ring member addresses (this daemon's -addr included): shard one campaign namespace across several daemons with consistent-hash ownership and WAL-replay failover; requires -state and concrete addresses")
		ringHb   = flag.Duration("ring-hb", time.Second, "ring membership ping and WAL replication interval")
		ringDead = flag.Duration("ring-dead", 0, "silence after which a ring peer is declared dead and its campaigns failed over (0 = 4x -ring-hb)")

		autoscaleSpec = flag.String("autoscale", "", "elastic SeD fleet bounds as min:max (empty = fixed fleet); the daemon starts -seds SeDs and grows toward max under queue pressure, draining gracefully back when calm")
		sedSpeeds     = flag.String("sed-speeds", "", "comma-separated relative speed factors cycled across SeDs (1 = reference, 0.5 = twice as slow); scales advertised performance vectors only, never execution")

		metrics     = flag.String("metrics", "", "daemon /metrics listen address, Prometheus text format (empty = off; 127.0.0.1:0 for an ephemeral port)")
		tenantKey   = flag.String("tenant-key", grid.DefaultTenantKey, "label key that names a campaign's fair-queueing tenant")
		tenantWts   = flag.String("tenant-weights", "", "weighted-fair-queueing weights as name=weight[,name=weight...]; unlisted tenants weigh 1")
		tenantQuota = flag.Int("tenant-quota", 0, "per-tenant cap on queued campaigns; beyond it a tenant's submissions get the retryable quota-exceeded rejection (0 = no per-tenant cap)")
	)
	flag.Parse()

	if *daemon {
		weights, err := cliflag.TenantWeights(*tenantWts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oarun: %v\n", err)
			os.Exit(2)
		}
		asMin, asMax, err := cliflag.Autoscale(*autoscaleSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oarun: %v\n", err)
			os.Exit(2)
		}
		speeds, err := cliflag.Speeds(*sedSpeeds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oarun: %v\n", err)
			os.Exit(2)
		}
		runDaemon(daemonConfig{
			addr:        *addr,
			state:       *state,
			seds:        *seds,
			cprocs:      *cprocs,
			asMin:       asMin,
			asMax:       asMax,
			speeds:      speeds,
			queueCap:    *queueCap,
			inflight:    *inflight,
			dispatchers: *dispatch,
			hbEvery:     *hbEvery,
			evict:       *evict,
			metrics:     *metrics,
			tenantKey:   *tenantKey,
			weights:     weights,
			quota:       *tenantQuota,
			ring:        *ringSpec,
			ringHb:      *ringHb,
			ringDead:    *ringDead,
		})
		return
	}

	atmos, ocean := field.Grid{NLat: 24, NLon: 48}, field.Grid{NLat: 36, NLon: 72}
	if *big {
		atmos, ocean = field.Grid{NLat: 48, NLon: 96}, field.Grid{NLat: 72, NLon: 144}
	}

	root := *dir
	if root == "" {
		tmp, err := os.MkdirTemp("", "oarun-*")
		if err != nil {
			fail(err)
		}
		root = tmp
		fmt.Printf("working directory: %s\n", root)
	}

	if *calibrate {
		res, err := figures.Figure1(figures.Figure1Config{
			WorkDir:   root,
			AtmosGrid: atmos,
			OceanGrid: ocean,
			Days:      *days,
		})
		if err != nil {
			fail(err)
		}
		fmt.Print(res.Table())
		return
	}

	if *schedule {
		app := core.Application{Scenarios: *ns, Months: *months}
		alloc, err := (core.Knapsack{}).Plan(app, platform.ReferenceTiming(), *r)
		if err != nil {
			fail(err)
		}
		fmt.Printf("plan on %d processors: %v\n", *r, alloc)
		res, err := realrun.Run(realrun.Config{
			Root:      root,
			App:       app,
			Alloc:     alloc,
			AtmosGrid: atmos,
			OceanGrid: ocean,
			Days:      *days,
		})
		if err != nil {
			fail(err)
		}
		for _, rep := range res.Reports {
			fmt.Printf("  s%02d m%04d on group %d: main %v, post %v, T=%.2fK\n",
				rep.Scenario, rep.Month, rep.Group, rep.MainWall.Round(1e6), rep.PostWall.Round(1e6), rep.GlobalT)
		}
		fmt.Printf("real wall time: %v for %d months\n", res.Wall.Round(1e6), len(res.Reports))
		return
	}

	cfg := pipeline.Config{
		Root:      root,
		Scenario:  *scenario,
		Procs:     *procs,
		AtmosGrid: atmos,
		OceanGrid: ocean,
		Days:      *days,
	}
	fmt.Printf("scenario %d on %d processors (%d atmosphere ranks), %d-day months\n",
		*scenario, *procs, *procs-3, *days)
	for m := 0; m < *months; m++ {
		diag, tt, err := pipeline.RunMonth(cfg, m)
		if err != nil {
			fail(err)
		}
		fmt.Printf("month %4d: T=%.2fK SST=%.2fK ice=%.3f precip=%.1f  (caif %v, mp %v, pcr %v, cof %v, emi %v, cd %v)\n",
			m, diag.GlobalT, diag.GlobalSST, diag.IceFraction, diag.TotalPrecip,
			tt.CAIF.Round(1e6), tt.MP.Round(1e6), tt.PCR.Round(1e6),
			tt.COF.Round(1e6), tt.EMI.Round(1e6), tt.CD.Round(1e6))
	}
	fmt.Printf("outputs in %s\n", cfg.Dir())
}

// daemonConfig bundles the -daemon flag set.
type daemonConfig struct {
	addr, state        string
	seds, cprocs       int
	asMin, asMax       int
	speeds             []float64
	queueCap, inflight int
	dispatchers        int
	hbEvery, evict     time.Duration
	metrics, tenantKey string
	weights            map[string]float64
	quota              int
	ring               string
	ringHb, ringDead   time.Duration
}

// runDaemon serves the online scheduler until SIGINT/SIGTERM, printing a
// stats line every few seconds.
func runDaemon(dc daemonConfig) {
	if dc.asMax > 0 && dc.seds < 1 {
		fail(fmt.Errorf("-autoscale needs at least one in-process SeD (-seds 1) to clone profiles from"))
	}
	fabric, err := grid.StartFabricSpeeds(grid.Config{
		Addr:           dc.addr,
		QueueCap:       dc.queueCap,
		Dispatchers:    dc.dispatchers,
		PerSeDInFlight: dc.inflight,
		EvictAfter:     dc.evict,
		StateDir:       dc.state,
		MetricsAddr:    dc.metrics,
		TenantKey:      dc.tenantKey,
		TenantWeights:  dc.weights,
		TenantQuota:    dc.quota,
	}, dc.seds, dc.cprocs, dc.hbEvery, dc.speeds)
	if err != nil {
		fail(err)
	}
	defer fabric.Close()
	sched := fabric.Sched
	fmt.Printf("scheduler daemon listening on %s (queue %d, %d dispatchers, %d in-flight/SeD)\n",
		sched.Addr(), dc.queueCap, dc.dispatchers, dc.inflight)
	if maddr := sched.MetricsAddr(); maddr != "" {
		fmt.Printf("metrics endpoint on http://%s/metrics\n", maddr)
	}
	if dc.state != "" {
		fmt.Printf("durable: campaign journal under %s (restart on the same -state to recover)\n", dc.state)
	}
	if dc.ring != "" {
		members := cliflag.List(dc.ring)
		if err := sched.JoinRing(dc.addr, members, dc.ringHb, dc.ringDead); err != nil {
			fail(err)
		}
		fmt.Printf("ring member %s of %d (%s)\n", dc.addr, len(members), strings.Join(members, ","))
	}
	for _, sed := range fabric.SeDs {
		fmt.Printf("SeD %-12s %s (%d processors, speed %g)\n", sed.Cluster().Name, sed.Addr(), sed.Cluster().Procs, sed.Speed())
	}
	var ctl *autoscale.Controller
	if dc.asMax > 0 {
		ctl, err = autoscale.Start(sched, fabric.SeDs, autoscale.Config{
			Min:            dc.asMin,
			Max:            dc.asMax,
			HeartbeatEvery: dc.hbEvery,
			// Sample at the heartbeat interval: fleet state changes no faster
			// than heartbeats land, and a -hb tuned for a fast-moving fabric
			// should make the scaler react at the same pace.
			Sample: dc.hbEvery,
			Speeds: dc.speeds,
		})
		if err != nil {
			fail(err)
		}
		defer ctl.Close()
		fmt.Printf("autoscale: elastic fleet %d..%d SeDs\n", dc.asMin, dc.asMax)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			fmt.Println("\nshutting down")
			return
		case <-tick.C:
			st := sched.Stats()
			alive := 0
			for _, sd := range st.SeDs {
				if sd.Alive {
					alive++
				}
			}
			line := fmt.Sprintf("queue %d (max %d)  running %d  done %d  failed %d  rejected %d  requeues %d  seds %d/%d alive",
				st.QueueDepth, st.MaxQueueDepth, st.Running, st.Completed, st.Failed, st.Rejected, st.Requeues, alive, len(st.SeDs))
			if ctl != nil {
				cs := ctl.Counters()
				line += fmt.Sprintf("  fleet %d (+%d/-%d, %d draining)", cs.FleetSize, cs.ScaleUps, cs.ScaleDowns, cs.Draining)
			}
			fmt.Println(line)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "oarun:", err)
	os.Exit(1)
}
