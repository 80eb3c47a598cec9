// Command oaload drives a running scheduler daemon, or a ring of them, with
// identical campaigns submitted at one uniform rate, and checks every result
// bit for bit against a serial in-process replay. It exits non-zero if any
// campaign fails or any chunk report differs. The CI smokes use it to load
// real daemons while they kill a ring member or watch the fleet scale; it
// measures nothing (bench/oaperf is the benchmark).
//
// Usage:
//
//	oaload -addr 127.0.0.1:7714 -campaigns 50 -rate 20
//	oaload -addr a:1,b:2,c:3 -campaigns 30 -rate 10 -ns 4 -months 12
//
// Rejected submissions are retried. A stream that breaks after admission (a
// restarted daemon, a killed ring member) is reattached by campaign ID until
// the daemon, or the member that adopted the campaign, answers; one that
// breaks before admission is resubmitted. With several addresses, campaigns
// round-robin over one client per member, each listing the others as
// fallbacks, so ownership spreads over the ring.
//
// The serial verifier replays each SeD the daemon reports in its Stats on
// the paper's cluster profile of the same name (an autoscale clone
// "<name>#<n>" on its base profile), with the processor count the daemon
// reports.
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
	"sync"
	"syscall"
	"time"

	"oagrid"
	"oagrid/cmd/internal/cliflag"
	"oagrid/internal/diet"
	"oagrid/internal/grid"
	"oagrid/internal/platform"
)

// campaignDeadline bounds the retries of one campaign.
const campaignDeadline = 2 * time.Minute

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	cancel()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "oaload:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("oaload", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:7714", "daemon address, or comma-separated ring members")
		campaigns = fs.Int("campaigns", 50, "campaigns to submit")
		rate      = fs.Float64("rate", 50, "submissions per second, evenly spaced")
		ns        = fs.Int("ns", 4, "scenarios per campaign")
		months    = fs.Int("months", 12, "months per scenario")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	members := cliflag.List(*addr)
	if len(members) == 0 || *campaigns < 1 || *rate <= 0 {
		return errors.New("need -addr, -campaigns >= 1 and -rate > 0")
	}
	campaign := oagrid.NewCampaign(*ns, *months)
	campaign.Heuristic = oagrid.KnapsackName

	runners := make([]oagrid.Runner, len(members))
	for i := range members {
		rotated := append(append([]string{}, members[i:]...), members[:i]...)
		r, err := oagrid.Dial(ctx, strings.Join(rotated, ","))
		if err != nil {
			return err
		}
		defer r.Close()
		runners[i] = r
	}
	// The SeDs the daemon serves now, plus (below) those it serves at the
	// end: a restarted daemon or a dead ring member forgets SeDs whose
	// chunks are already in the results.
	stats := &grid.Client{Addr: members[0], Addrs: members[1:]}
	defer stats.Close()
	before, err := stats.StatsContext(ctx)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "== oaload: %d campaigns (NS=%d, NM=%d) at %g/s against %s ==\n",
		*campaigns, *ns, *months, *rate, *addr)
	step := time.Duration(float64(time.Second) / *rate)
	start := time.Now()
	outcomes := make([]outcome, *campaigns)
	var wg sync.WaitGroup
	for i := range outcomes {
		// Once ctx is done the rest start at once and fail on it.
		select {
		case <-ctx.Done():
		case <-time.After(time.Until(start.Add(time.Duration(i) * step))):
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i] = drive(ctx, runners[i%len(runners)], campaign)
		}(i)
	}
	wg.Wait()

	var rejections, reattaches, resubmits int
	for i, o := range outcomes {
		if o.err != nil {
			return fmt.Errorf("campaign %d: %w", i, o.err)
		}
		rejections += o.rejections
		reattaches += o.reattaches
		resubmits += o.resubmits
	}
	fmt.Fprintf(out, "completed %d campaigns in %.2fs (%d rejected and retried, %d reattached, %d resubmitted)\n",
		len(outcomes), time.Since(start).Seconds(), rejections, reattaches, resubmits)

	after, err := stats.StatsContext(ctx)
	if err != nil {
		return err
	}
	clusters, err := verifierClusters(append(before.SeDs, after.SeDs...))
	if err != nil {
		return err
	}
	v, err := grid.NewVerifier(clusters, campaign.Heuristic)
	if err != nil {
		return err
	}
	for i, o := range outcomes {
		chunks := make([]grid.ChunkReport, len(o.res.Reports))
		for j, rep := range o.res.Reports {
			chunks[j] = grid.ChunkReport{Cluster: rep.Cluster, Scenarios: rep.Scenarios, Makespan: rep.Makespan, Round: rep.Round}
		}
		if err := v.VerifyChunks(campaign.Experiment, o.res.Makespan, chunks); err != nil {
			return fmt.Errorf("campaign %d: %w", i, err)
		}
	}
	fmt.Fprintln(out, "verification: every chunk report bit-identical to serial evaluation")
	return nil
}

// verifierClusters maps the SeDs a daemon reports to the profiles the
// serial verifier replays them on: each name is one of the paper's five
// cluster profiles, or an autoscale clone "<profile>#<n>" of one, and serves
// the processor count the daemon reports for it.
func verifierClusters(seds []diet.SeDStatus) (map[string]*platform.Cluster, error) {
	profiles := map[string]*platform.Cluster{}
	for _, cl := range platform.FiveClusters() {
		profiles[cl.Name] = cl
	}
	out := make(map[string]*platform.Cluster, len(seds))
	for _, sd := range seds {
		base, _, _ := strings.Cut(sd.Cluster, "#")
		profile := profiles[base]
		if profile == nil {
			return nil, fmt.Errorf("SeD %q serves none of the five cluster profiles", sd.Cluster)
		}
		cl := *profile
		cl.Procs = sd.Procs
		out[sd.Cluster] = &cl
	}
	return out, nil
}

// outcome is one campaign's result and what it took to get it.
type outcome struct {
	res                               *oagrid.CampaignResult
	rejections, reattaches, resubmits int
	err                               error
}

// drive runs one campaign to its result. A rejection is retried and a
// stream that broke before admission is resubmitted; one that broke after
// it is reattached, and resubmitted only if the daemon no longer knows the
// ID.
func drive(ctx context.Context, r oagrid.Runner, c oagrid.Campaign) outcome {
	var o outcome
	deadline := time.Now().Add(campaignDeadline)
	pause := func() bool {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(5 * time.Millisecond):
		}
		return time.Now().Before(deadline)
	}
	for {
		h, err := r.Run(ctx, c)
		if err != nil {
			o.err = err
			return o
		}
		res, err := h.Wait()
		switch {
		case err == nil:
			o.res = res
			return o
		case errors.Is(err, oagrid.ErrRejected):
			o.rejections++
		case h.ID() == 0:
			o.resubmits++
		default:
			if o.res, err = reattach(ctx, r, h.ID(), pause); err == nil {
				o.reattaches++
				return o
			}
			if !errors.Is(err, oagrid.ErrUnknownCampaign) {
				o.err = err
				return o
			}
			o.resubmits++
		}
		if !pause() {
			o.err = err
			return o
		}
	}
}

// reattach follows an admitted campaign whose stream broke until it
// resolves. A journaled failure answers every attach alike, but so does the
// shutdown window of a restarting daemon, so only the third failed verdict
// is final.
func reattach(ctx context.Context, r oagrid.Runner, id uint64, pause func() bool) (*oagrid.CampaignResult, error) {
	failed := 0
	for {
		h, err := r.Attach(ctx, id)
		if err == nil {
			var res *oagrid.CampaignResult
			if res, err = h.Wait(); err == nil {
				return res, nil
			}
		}
		if errors.Is(err, oagrid.ErrUnknownCampaign) || errors.Is(err, oagrid.ErrCampaignCancelled) {
			return nil, err
		}
		if errors.Is(err, oagrid.ErrCampaignFailed) {
			if failed++; failed == 3 {
				return nil, err
			}
		}
		if !pause() {
			return nil, err
		}
	}
}
