// Command oarun drives the toy coupled climate model directly: it runs the
// six-task monthly pipeline (caif, mp, pcr, cof, emi, cd) for a scenario,
// executes a whole scheduled mini-ensemble for real (the paper's "verify our
// simulations by real experiments"), or serves as the grid's long-running
// scheduler daemon. The Figure-1 task-duration table is `oabench -fig 1`.
//
// Usage:
//
//	oarun -months 3 -scenario 2 -procs 8 -dir /tmp/oa   # run a chain
//	oarun -schedule -ns 3 -months 2 -r 20               # realrun an ensemble
//	oarun -daemon -addr 127.0.0.1:7714 -seds 3          # scheduler daemon
//	oarun -daemon -state /var/lib/oagrid                # durable daemon
//	oarun -daemon -seds 1 -autoscale 1:5                # elastic SeD fleet
//
// Daemon mode starts an internal/grid scheduler on -addr and, when -seds is
// positive, that many in-process SeDs (the paper's five Grid'5000 cluster
// profiles, -cprocs processors each) registered against it with heartbeats.
// External SeDs can join at any time by heartbeating the same address.
// Submit campaigns with cmd/oasched, cmd/oaload or the public client API
// (oagrid.Dial); stop with ^C.
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
	"errors"
	"flag"
	"fmt"
	"io"
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
	"oagrid/internal/grid"
	"oagrid/internal/platform"
	"oagrid/internal/realrun"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	cancel()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "oarun:", err)
		os.Exit(1)
	}
}

// daemon is the -daemon flag set beyond what grid.Config and
// autoscale.Config hold.
type daemon struct {
	seds, cprocs     int
	ring             string
	ringHb, ringDead time.Duration
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("oarun", flag.ContinueOnError)
	var (
		months   = fs.Int("months", 1, "months to run (chained through restarts)")
		scenario = fs.Int("scenario", 0, "scenario index (fixes the cloud parametrization)")
		procs    = fs.Int("procs", 8, "processors for the coupled run (4-11)")
		dir      = fs.String("dir", "", "experiment directory (default: a temp dir)")
		days     = fs.Int("days", 30, "days per month (lower = faster)")
		big      = fs.Bool("big", false, "use larger grids (slower, cleaner timings)")
		schedule = fs.Bool("schedule", false, "plan with the knapsack heuristic and execute the ensemble for real")
		ns       = fs.Int("ns", 3, "scenarios for -schedule")
		r        = fs.Int("r", 20, "cluster processors for -schedule")
		isDaemon = fs.Bool("daemon", false, "run the online grid scheduler daemon")

		cfg grid.Config
		as  autoscale.Config
		d   daemon
	)
	fs.StringVar(&cfg.Addr, "addr", "127.0.0.1:7714", "daemon listen address")
	fs.IntVar(&d.seds, "seds", 3, "in-process SeDs to start for the daemon (0 = external SeDs only)")
	fs.IntVar(&d.cprocs, "cprocs", 30, "processors per in-process SeD cluster")
	fs.IntVar(&cfg.QueueCap, "queue", 64, "daemon campaign queue bound (admission control)")
	fs.IntVar(&cfg.PerSeDInFlight, "inflight", 4, "daemon per-SeD in-flight request limit")
	fs.IntVar(&cfg.Dispatchers, "dispatchers", 4, "daemon concurrent campaign dispatchers")
	fs.DurationVar(&as.HeartbeatEvery, "hb", 500*time.Millisecond, "SeD heartbeat interval (> 0)")
	fs.DurationVar(&cfg.EvictAfter, "evict", 3*time.Second, "daemon heartbeat eviction deadline")
	fs.StringVar(&cfg.StateDir, "state", "", "daemon state dir: journal campaigns and recover them on restart (empty = in-memory only)")
	fs.StringVar(&d.ring, "ring", "", "comma-separated ring member addresses (this daemon's -addr included): shard one campaign namespace across several daemons with consistent-hash ownership and WAL-replay failover; requires -state and concrete addresses")
	fs.DurationVar(&d.ringHb, "ring-hb", time.Second, "ring membership ping and WAL replication interval")
	fs.DurationVar(&d.ringDead, "ring-dead", 0, "silence after which a ring peer is declared dead and its campaigns failed over (0 = 4x -ring-hb)")
	fs.Func("autoscale", "elastic SeD fleet bounds as min:max (empty = fixed fleet); the daemon starts -seds SeDs and grows toward max under queue pressure, draining gracefully back when calm", func(s string) (err error) {
		as.Min, as.Max, err = cliflag.Autoscale(s)
		return err
	})
	fs.Func("sed-speeds", "comma-separated relative speed factors cycled across SeDs (1 = reference, 0.5 = twice as slow); scales advertised performance vectors only, never execution", func(s string) (err error) {
		as.Speeds, err = cliflag.Speeds(s)
		return err
	})
	fs.StringVar(&cfg.MetricsAddr, "metrics", "", "daemon /metrics listen address, Prometheus text format (empty = off; 127.0.0.1:0 for an ephemeral port)")
	fs.Func("tenant-weights", "weighted-fair-queueing weights as name=weight[,name=weight...]; unlisted tenants weigh 1", func(s string) (err error) {
		cfg.TenantWeights, err = cliflag.TenantWeights(s)
		return err
	})
	fs.IntVar(&cfg.TenantQuota, "tenant-quota", 0, "per-tenant cap on queued campaigns; beyond it a tenant's submissions get the retryable quota-exceeded rejection (0 = no per-tenant cap)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *isDaemon {
		return runDaemon(ctx, out, cfg, as, d)
	}

	atmos, ocean := field.Grid{NLat: 24, NLon: 48}, field.Grid{NLat: 36, NLon: 72}
	if *big {
		atmos, ocean = field.Grid{NLat: 48, NLon: 96}, field.Grid{NLat: 72, NLon: 144}
	}

	root := *dir
	if root == "" {
		tmp, err := os.MkdirTemp("", "oarun-*")
		if err != nil {
			return err
		}
		root = tmp
		fmt.Fprintf(out, "working directory: %s\n", root)
	}

	if *schedule {
		app := core.Application{Scenarios: *ns, Months: *months}
		alloc, err := (core.Knapsack{}).Plan(app, platform.ReferenceTiming(), *r)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "plan on %d processors: %v\n", *r, alloc)
		res, err := realrun.Run(realrun.Config{
			Root:      root,
			App:       app,
			Alloc:     alloc,
			AtmosGrid: atmos,
			OceanGrid: ocean,
			Days:      *days,
		})
		if err != nil {
			return err
		}
		for _, rep := range res.Reports {
			fmt.Fprintf(out, "  s%02d m%04d on group %d: main %v, post %v, T=%.2fK\n",
				rep.Scenario, rep.Month, rep.Group, rep.MainWall.Round(1e6), rep.PostWall.Round(1e6), rep.GlobalT)
		}
		fmt.Fprintf(out, "real wall time: %v for %d months\n", res.Wall.Round(1e6), len(res.Reports))
		return nil
	}

	chain := pipeline.Config{
		Root:      root,
		Scenario:  *scenario,
		Procs:     *procs,
		AtmosGrid: atmos,
		OceanGrid: ocean,
		Days:      *days,
	}
	fmt.Fprintf(out, "scenario %d on %d processors (%d atmosphere ranks), %d-day months\n",
		*scenario, *procs, *procs-3, *days)
	for m := 0; m < *months; m++ {
		diag, tt, err := pipeline.RunMonth(chain, m)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "month %4d: T=%.2fK SST=%.2fK ice=%.3f precip=%.1f  (caif %v, mp %v, pcr %v, cof %v, emi %v, cd %v)\n",
			m, diag.GlobalT, diag.GlobalSST, diag.IceFraction, diag.TotalPrecip,
			tt.CAIF.Round(1e6), tt.MP.Round(1e6), tt.PCR.Round(1e6),
			tt.COF.Round(1e6), tt.EMI.Round(1e6), tt.CD.Round(1e6))
	}
	fmt.Fprintf(out, "outputs in %s\n", chain.Dir())
	return nil
}

// runDaemon serves the online scheduler until ctx is done, printing a stats
// line every few seconds.
func runDaemon(ctx context.Context, out io.Writer, cfg grid.Config, as autoscale.Config, d daemon) error {
	if as.HeartbeatEvery <= 0 {
		return fmt.Errorf("-hb must be positive, got %v", as.HeartbeatEvery)
	}
	if as.Max > 0 && d.seds < 1 {
		return errors.New("-autoscale needs at least one in-process SeD (-seds 1) to clone profiles from")
	}
	fabric, err := grid.StartFabricSpeeds(cfg, d.seds, d.cprocs, as.HeartbeatEvery, as.Speeds)
	if err != nil {
		return err
	}
	defer fabric.Close()
	sched := fabric.Sched
	fmt.Fprintf(out, "scheduler daemon listening on %s (queue %d, %d dispatchers, %d in-flight/SeD)\n",
		sched.Addr(), cfg.QueueCap, cfg.Dispatchers, cfg.PerSeDInFlight)
	if maddr := sched.MetricsAddr(); maddr != "" {
		fmt.Fprintf(out, "metrics endpoint on http://%s/metrics\n", maddr)
	}
	if cfg.StateDir != "" {
		fmt.Fprintf(out, "durable: campaign journal under %s (restart on the same -state to recover)\n", cfg.StateDir)
	}
	if d.ring != "" {
		members := cliflag.List(d.ring)
		if err := sched.JoinRing(cfg.Addr, members, d.ringHb, d.ringDead); err != nil {
			return err
		}
		fmt.Fprintf(out, "ring member %s of %d (%s)\n", cfg.Addr, len(members), strings.Join(members, ","))
	}
	for _, sed := range fabric.SeDs {
		fmt.Fprintf(out, "SeD %-12s %s (%d processors, speed %g)\n", sed.Cluster().Name, sed.Addr(), sed.Cluster().Procs, sed.Speed())
	}
	var ctl *autoscale.Controller
	if as.Max > 0 {
		if ctl, err = autoscale.Start(sched, fabric.SeDs, as); err != nil {
			return err
		}
		defer ctl.Close()
		fmt.Fprintf(out, "autoscale: elastic fleet %d..%d SeDs\n", as.Min, as.Max)
	}

	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintln(out, "\nshutting down")
			return nil
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
			fmt.Fprintln(out, line)
		}
	}
}
