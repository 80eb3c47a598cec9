// Command oagrid demonstrates the paper's Figure-9 protocol end to end on a
// loopback deployment of the DIET-like middleware: it starts the scheduler
// daemon and one server daemon per cluster profile, submits an experiment
// through the public client, and prints the protocol as the campaign's event
// stream reports it — the Algorithm-1 repartition, then each cluster's
// execution report.
//
// Usage:
//
//	oagrid -clusters 5 -procs 44 -ns 10 -nm 1800 -heuristic knapsack
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"oagrid"
	"oagrid/internal/grid"
	"oagrid/internal/platform"
)

func main() {
	var (
		nClusters = flag.Int("clusters", 5, "clusters to start (1-5 speed profiles)")
		procs     = flag.Int("procs", 44, "processors per cluster")
		ns        = flag.Int("ns", 10, "scenarios (NS)")
		nm        = flag.Int("nm", 1800, "months per scenario (NM)")
		heuristic = flag.String("heuristic", oagrid.KnapsackName, "per-cluster heuristic")
	)
	flag.Parse()
	if *nClusters < 1 || *nClusters > 5 {
		fail(fmt.Errorf("clusters must be 1..5, got %d", *nClusters))
	}

	// Boot the middleware.
	fabric, err := grid.StartFabric(grid.Config{Addr: "127.0.0.1:0"}, *nClusters, *procs, 100*time.Millisecond)
	if err != nil {
		fail(err)
	}
	defer fabric.Close()
	if err := fabric.WaitAlive(*nClusters, 5*time.Second); err != nil {
		fail(err)
	}
	fmt.Printf("scheduler listening on %s\n", fabric.Sched.Addr())
	for _, sed := range fabric.SeDs {
		cl := sed.Cluster()
		t11, _ := cl.Timing.MainSeconds(platform.MaxGroup)
		fmt.Printf("SeD %-12s alive at %s (%d procs, T[11]=%.0fs)\n", cl.Name, sed.Addr(), cl.Procs, t11)
	}

	ctx := context.Background()
	runner, err := oagrid.Dial(ctx, fabric.Sched.Addr())
	if err != nil {
		fail(err)
	}
	defer runner.Close()

	// Steps 1–6: the daemon gathers the performance vectors (2,3) itself; the
	// stream reports the repartition it computed from them and each report.
	campaign := oagrid.NewCampaign(*ns, *nm)
	campaign.Heuristic = *heuristic
	fmt.Printf("\n(1) client request: %d scenarios × %d months, heuristic %q\n", *ns, *nm, *heuristic)
	h, err := runner.Run(ctx, campaign)
	if err != nil {
		fail(err)
	}
	for ev := range h.Events() {
		switch ev := ev.(type) {
		case oagrid.EventPlanned:
			fmt.Println("(4) repartition (Algorithm 1):")
			for _, s := range ev.Shares {
				fmt.Printf("  %-12s %d scenario(s)\n", s.Cluster, s.Scenarios)
			}
			fmt.Println("(5,6) execution reports:")
		case oagrid.EventChunkDone:
			r := ev.Report
			fmt.Printf("  %-12s %d scenario(s)  groups %v post=%d  makespan %.0f h\n",
				r.Cluster, r.Scenarios, r.Allocation.Groups, r.Allocation.PostProcs, r.Makespan/3600)
		}
	}
	res, err := h.Wait()
	if err != nil {
		fail(err)
	}
	fmt.Printf("\nglobal makespan: %.0f hours (%.1f days)\n", res.Makespan/3600, res.Makespan/86400)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "oagrid:", err)
	os.Exit(1)
}
