// Command oasched plans and simulates one scheduling configuration: it
// prints the processor grouping every heuristic chooses for a cluster, the
// analytical and simulated makespans, and optionally an ASCII Gantt chart.
// Planning and evaluation run through the unified engine, so the model and
// simulated columns come from the same two pluggable backends the figure
// harness uses, and the per-heuristic evaluations run as one batched sweep.
// The gain column is against basic, which joins the sweep even when
// -heuristic asks for one other row.
//
// With -addr the configuration is submitted as a campaign to a live grid
// scheduler daemon (oarun -daemon) instead of simulated locally, streaming
// typed progress; -attach reconnects to a campaign the daemon already
// knows — after a network cut, or a daemon restart on a -state dir — and
// replays its full history before following it live. The control-plane
// verbs drive the same daemon: -list enumerates its campaign table (with
// -status/-labels filters), -info prints one campaign's snapshot, and
// -cancel stops a campaign server-side — the daemon journals the
// cancellation, so it survives restarts. Submissions take per-campaign
// options: -priority orders the daemon's admission queue, -labels tags the
// campaign for -list filters, -deadline bounds it individually.
//
// Usage:
//
//	oasched -r 53 -ns 10 -nm 1800                  # the paper's worked example
//	oasched -r 53 -ns 4 -nm 6 -heuristic knapsack -gantt
//	oasched -r 60 -speed 1.29                      # a slower cluster profile
//	oasched -r 53 -heuristic cpa                   # related-work baseline
//	oasched -addr 127.0.0.1:7714 -ns 10 -nm 1800   # submit to a daemon
//	oasched -addr 127.0.0.1:7714 -ns 10 -priority 5 -labels team=ocean,tier=gold
//	oasched -addr 127.0.0.1:7714 -attach 17        # reattach to campaign 17
//	oasched -addr 127.0.0.1:7714 -list             # the daemon's campaign table
//	oasched -addr 127.0.0.1:7714 -list -status running -labels team=ocean
//	oasched -addr 127.0.0.1:7714 -info 17          # one campaign's snapshot
//	oasched -addr 127.0.0.1:7714 -cancel 17        # stop campaign 17 server-side
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"oagrid"
	"oagrid/internal/baseline"
	"oagrid/internal/core"
	"oagrid/internal/engine"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	cancel()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "oasched:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("oasched", flag.ContinueOnError)
	var (
		r         = fs.Int("r", 53, "processors in the cluster")
		ns        = fs.Int("ns", 10, "scenarios (NS)")
		nm        = fs.Int("nm", 1800, "months per scenario (NM)")
		heuristic = fs.String("heuristic", "", "only this heuristic: basic, redistribute, all-to-main, knapsack, cpa, sequential-dags (default: the paper's four)")
		speed     = fs.Float64("speed", 1.0, "cluster slowness factor (1.0 = reference, 1177s..1622s anchors ≈ 0.93..1.29)")
		gantt     = fs.Bool("gantt", false, "print an ASCII Gantt chart (small workloads only)")
		policy    = fs.String("policy", "least-advanced", "dispatch policy: least-advanced, round-robin, most-advanced")
		workers   = fs.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
		addr      = fs.String("addr", "", "grid scheduler daemon address: submit the campaign remotely instead of simulating locally")
		attach    = fs.Uint64("attach", 0, "with -addr: reattach to a campaign the daemon already knows by ID")
		list      = fs.Bool("list", false, "with -addr: list the daemon's campaign table instead of submitting")
		info      = fs.Uint64("info", 0, "with -addr: print one campaign's control-plane snapshot by ID")
		cancelID  = fs.Uint64("cancel", 0, "with -addr: cancel a campaign server-side by ID")
		status    = fs.String("status", "", "with -list: keep only campaigns in this state (queued, running, done, failed, cancelled)")
		labels    = fs.String("labels", "", "with -addr: comma-separated k=v labels for the submitted campaign; with -list: label-subset filter")
		priority  = fs.Int("priority", 0, "with -addr: admission-queue priority (higher dispatches first)")
		deadline  = fs.Duration("deadline", 0, "with -addr: per-campaign deadline overriding the daemon's default (0 = daemon default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	labelSet, err := parseLabels(*labels)
	if err != nil {
		return err
	}
	control := *list || *info != 0 || *cancelID != 0
	if *addr == "" {
		switch {
		case control:
			return errors.New("-list, -info and -cancel need -addr: only a daemon has a campaign table")
		case *attach != 0:
			return errors.New("-attach needs -addr: only a daemon holds reattachable campaigns")
		case *labels != "" || *priority != 0 || *deadline != 0:
			return errors.New("-labels, -priority and -deadline need -addr: only a daemon campaign carries them")
		}
	}
	if *status != "" && !*list {
		return errors.New("-status needs -list: it filters the campaign table")
	}
	if control {
		return controlPlane(ctx, out, *addr, *list, *info, *cancelID, *status, labelSet)
	}

	app := core.Application{Scenarios: *ns, Months: *nm}
	if err := app.Validate(); err != nil {
		return err
	}
	if *addr != "" {
		return runRemote(ctx, out, *addr, *attach, app, *heuristic, *priority, labelSet, *deadline)
	}
	timing := platform.ReferenceTiming()
	timing.Speed = *speed
	cluster := &platform.Cluster{Name: "oasched", Procs: *r, Timing: timing}
	t11, err := timing.MainSeconds(platform.MaxGroup)
	if err != nil {
		return err
	}

	var pol exec.Policy
	switch *policy {
	case "least-advanced":
		pol = exec.LeastAdvanced
	case "round-robin":
		pol = exec.RoundRobin
	case "most-advanced":
		pol = exec.MostAdvanced
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	// basic is the gain reference, so it is always swept, first; with
	// -heuristic only the requested row prints.
	hs, first := core.All(), 0
	if *heuristic != "" {
		h, err := byName(*heuristic)
		if err != nil {
			return err
		}
		if hs = []core.Heuristic{core.Basic{}}; h.Name() != core.NameBasic {
			hs, first = append(hs, h), 1
		}
	}

	// Cancelling ctx (^C) stops the sweeps cooperatively: workers stop
	// claiming jobs and the partial table is abandoned with a clean error.
	opts := engine.Options{Exec: exec.Options{Policy: pol, RecordTrace: *gantt}}
	jobs := make([]engine.Job, len(hs))
	for i, h := range hs {
		jobs[i] = engine.Job{App: app, Cluster: cluster, Heuristic: h, Opts: opts}
	}
	simulated, err := engine.SweepContext(ctx, engine.DES{}, jobs, *workers)
	if err != nil {
		return err
	}
	for _, s := range simulated {
		if s.Err != nil {
			return s.Err
		}
	}
	// Model column: re-evaluate the simulated allocations analytically, so
	// each heuristic plans once and both columns describe the same plan.
	modelJobs := make([]engine.Job, len(jobs))
	for i, j := range jobs {
		j.Heuristic = nil
		j.Alloc = simulated[i].Alloc
		modelJobs[i] = j
	}
	modeled, err := engine.SweepContext(ctx, engine.Model{}, modelJobs, *workers)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "cluster: %d processors, speed %.3f (T[11]=%.0fs)  workload: %d scenarios × %d months\n\n",
		*r, *speed, t11, *ns, *nm)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "heuristic\tallocation\tmodel (s)\tsimulated (s)\tgain vs basic")
	reference := simulated[0].Result.Makespan
	for i := first; i < len(hs); i++ {
		alloc, res := simulated[i].Alloc, simulated[i].Result
		model := "-"
		// The analytical equations are exact only for uniform groupings; show
		// the model column where the paper defines it.
		if modeled[i].Err == nil && uniform(alloc) {
			model = fmt.Sprintf("%.0f", modeled[i].Result.Makespan)
		}
		gain := 100 * (reference - res.Makespan) / reference
		fmt.Fprintf(w, "%s\t%v post=%d\t%s\t%.0f\t%+.2f%%\n",
			hs[i].Name(), alloc.Groups, alloc.PostProcs, model, res.Makespan, gain)
		if *gantt && res.Trace != nil {
			w.Flush()
			if len(res.Trace.Spans) > 2000 {
				fmt.Fprintln(out, "workload too large for a Gantt chart; shrink -ns/-nm")
			} else {
				fmt.Fprintf(out, "\n%s\n", res.Trace.Gantt(100))
			}
		}
	}
	return w.Flush()
}

// parseLabels splits "k=v,k2=v2" into a label map.
func parseLabels(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("malformed label %q (want k=v[,k=v...])", pair)
		}
		out[k] = v
	}
	return out, nil
}

// controlPlane serves the query/cancel verbs against a daemon: -cancel
// first (so -cancel + -list shows the post-cancel table), then -info, then
// -list.
func controlPlane(ctx context.Context, out io.Writer, addr string, list bool, info, cancelID uint64, status string, labels map[string]string) error {
	runner, err := oagrid.Dial(ctx, addr)
	if err != nil {
		return err
	}
	defer runner.Close()

	if cancelID != 0 {
		if err := runner.Cancel(ctx, cancelID); err != nil {
			return err
		}
		ci, err := runner.Info(ctx, cancelID)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "campaign %d: %s\n", cancelID, ci.Status)
	}
	if info != 0 {
		ci, err := runner.Info(ctx, info)
		if err != nil {
			return err
		}
		printInfos(out, []oagrid.CampaignInfo{*ci})
	}
	if list {
		infos, err := runner.List(ctx, oagrid.ListFilter{Status: status, Labels: labels})
		if err != nil {
			return err
		}
		printInfos(out, infos)
	}
	return nil
}

// printInfos renders campaign snapshots as the control-plane table.
func printInfos(out io.Writer, infos []oagrid.CampaignInfo) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "id\tstatus\tprio\tns×nm\tdone\trounds\trequeues\tmakespan\theuristic\tlabels")
	for _, ci := range infos {
		makespan := "-"
		if ci.Status == oagrid.StatusDone {
			makespan = fmt.Sprintf("%.0fs", ci.Makespan)
		}
		labels := make([]string, 0, len(ci.Labels))
		for k, v := range ci.Labels {
			labels = append(labels, k+"="+v)
		}
		sort.Strings(labels)
		fmt.Fprintf(w, "%d\t%s\t%d\t%d×%d\t%d/%d\t%d\t%d\t%s\t%s\t%s\n",
			ci.ID, ci.Status, ci.Priority, ci.Scenarios, ci.Months, ci.Done, ci.Total,
			ci.Rounds, ci.Requeues, makespan, ci.Heuristic, strings.Join(labels, ","))
	}
	w.Flush()
	fmt.Fprintf(out, "%d campaign(s)\n", len(infos))
}

// runRemote drives the configuration through a grid scheduler daemon via
// the public client API: submit (or reattach to) one campaign, stream its
// typed events, and print the final accounting. The admission line prints
// the campaign ID — the durable name to reattach with after a cut or a
// daemon restart, and the handle for oasched -cancel/-info.
func runRemote(ctx context.Context, out io.Writer, addr string, attach uint64, app core.Application, heuristic string, priority int, labels map[string]string, deadline time.Duration) error {
	runner, err := oagrid.Dial(ctx, addr)
	if err != nil {
		return err
	}
	defer runner.Close()

	var h *oagrid.Handle
	if attach != 0 {
		h, err = runner.Attach(ctx, attach)
	} else {
		var opts []oagrid.SubmitOption
		if priority != 0 {
			opts = append(opts, oagrid.WithPriority(priority))
		}
		if len(labels) > 0 {
			opts = append(opts, oagrid.WithLabels(labels))
		}
		if deadline > 0 {
			opts = append(opts, oagrid.WithDeadline(deadline))
		}
		h, err = runner.Run(ctx, oagrid.Campaign{Experiment: oagrid.Experiment(app), Heuristic: heuristic}, opts...)
	}
	if err != nil {
		return err
	}
	for ev := range h.Events() {
		switch ev := ev.(type) {
		case oagrid.EventAdmitted:
			fmt.Fprintf(out, "campaign %d admitted at %s (reattach with -addr %s -attach %d)\n", ev.ID, addr, addr, ev.ID)
		case oagrid.EventPlanned:
			fmt.Fprint(out, "planned:")
			for _, share := range ev.Shares {
				fmt.Fprintf(out, "  %s×%d", share.Cluster, share.Scenarios)
			}
			fmt.Fprintln(out)
		case oagrid.EventChunkDone:
			fmt.Fprintf(out, "  chunk done: %s ×%d round %d makespan %.0fs  (%d/%d scenarios)\n",
				ev.Report.Cluster, ev.Report.Scenarios, ev.Report.Round, ev.Report.Makespan, ev.Done, ev.Total)
		case oagrid.EventProgress:
			if ev.Requeued > 0 {
				fmt.Fprintf(out, "  requeued %d scenario(s) after a cluster failure\n", ev.Requeued)
			}
		}
	}
	res, err := h.Wait()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "campaign %d done: makespan %.0fs over %d chunk(s), %d requeue(s)\n",
		h.ID(), res.Makespan, len(res.Reports), res.Requeues)
	return nil
}

// byName resolves the paper's heuristics plus the related-work baselines.
func byName(name string) (core.Heuristic, error) {
	if h, err := core.ByName(name); err == nil {
		return h, nil
	}
	for _, h := range []core.Heuristic{baseline.CPA{}, baseline.SequentialDAGs{}} {
		if h.Name() == name {
			return h, nil
		}
	}
	return nil, fmt.Errorf("unknown heuristic %q", name)
}

func uniform(al core.Allocation) bool {
	for _, g := range al.Groups[1:] {
		if g != al.Groups[0] {
			return false
		}
	}
	return len(al.Groups) > 0
}
