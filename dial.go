package oagrid

import (
	"context"
	"strings"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/grid"
)

// remoteRunner drives campaigns against a grid scheduler daemon over the
// versioned diet wire protocol.
type remoteRunner struct {
	client grid.Client
	cfg    runnerConfig
}

// Dial builds a Runner over a live grid scheduler daemon (cmd/oarun
// -daemon). It verifies a daemon answers before returning — ctx bounds
// that probe. Each campaign then streams on its own connection: admission
// verdict, per-campaign progress frames, and the final result, with the
// frame deadline refreshed on every frame so campaigns may outlive any
// single timeout. At default options a dialed campaign's Result is
// bit-identical to a Local run over the same cluster profiles.
//
// addr may list several comma-separated addresses ("a:7714,b:7714,c:7714")
// when the daemons form a sharded ring (oarun -daemon -ring): the first is
// the primary, the rest are fallbacks tried when it is unreachable, and
// ownership redirects from any member are followed and cached so
// steady-state traffic goes straight to the shard that owns each campaign.
// A single address behaves exactly as before.
func Dial(ctx context.Context, addr string, opts ...RunnerOption) (Runner, error) {
	cfg := newRunnerConfig(opts)
	if _, err := core.ByName(cfg.heuristic); err != nil {
		return nil, err
	}
	primary, fallbacks := splitAddrs(addr)
	r := &remoteRunner{
		client: grid.Client{Addr: primary, Addrs: fallbacks, Timeout: cfg.timeout},
		cfg:    cfg,
	}
	if _, err := r.client.StatsContext(ctx); err != nil {
		return nil, err
	}
	return r, nil
}

// splitAddrs parses Dial's address argument: a comma-separated member list
// becomes the primary plus fallbacks; whitespace around entries is ignored
// and empty entries dropped.
func splitAddrs(addr string) (string, []string) {
	parts := strings.Split(addr, ",")
	all := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			all = append(all, p)
		}
	}
	if len(all) == 0 {
		return addr, nil
	}
	return all[0], all[1:]
}

// Run implements Runner. Submit options travel to the daemon on the wire:
// priority orders its admission queue, labels tag the
// campaign for List, a deadline overrides its campaign timeout.
func (r *remoteRunner) Run(ctx context.Context, c Campaign, opts ...SubmitOption) (*Handle, error) {
	app := core.Application(c.Experiment)
	if err := app.Validate(); err != nil {
		return nil, err
	}
	sub := newSubmitConfig(opts)
	name := sub.heuristic
	if name == "" {
		name = c.Heuristic
	}
	if name == "" {
		name = r.cfg.heuristic
	}
	if _, err := core.ByName(name); err != nil {
		return nil, err
	}
	handle := newHandle(app.Scenarios)
	meta := grid.SubmitMeta{Priority: sub.priority, Labels: sub.labels, Deadline: sub.deadline}
	go r.run(ctx, handle, app, name, meta)
	return handle, nil
}

// Cancel implements Runner: the daemon journals the cancellation before the
// verdict returns, so it survives any restart. An unknown ID is
// ErrUnknownCampaign; a campaign that finished first is a no-op.
func (r *remoteRunner) Cancel(ctx context.Context, id uint64) error {
	_, err := r.client.CancelContext(ctx, id)
	return err
}

// List implements Runner: the daemon's campaign table in admission order.
func (r *remoteRunner) List(ctx context.Context, filter ListFilter) ([]CampaignInfo, error) {
	infos, err := r.client.ListCampaignsContext(ctx, &diet.ListCampaignsRequest{
		Status: filter.Status,
		Labels: filter.Labels,
	})
	if err != nil {
		return nil, err
	}
	out := make([]CampaignInfo, len(infos))
	for i := range infos {
		out[i] = infoFromWire(&infos[i])
	}
	return out, nil
}

// Info implements Runner.
func (r *remoteRunner) Info(ctx context.Context, id uint64) (*CampaignInfo, error) {
	wi, err := r.client.InfoContext(ctx, id)
	if err != nil {
		return nil, err
	}
	info := infoFromWire(wi)
	return &info, nil
}

// infoFromWire maps the wire control-plane snapshot onto the public shape.
func infoFromWire(wi *diet.CampaignInfo) CampaignInfo {
	return CampaignInfo{
		ID:        wi.ID,
		Status:    wi.Status,
		Priority:  wi.Priority,
		Labels:    wi.Labels,
		Heuristic: wi.Heuristic,
		Scenarios: wi.Scenarios,
		Months:    wi.Months,
		Done:      wi.Done,
		Total:     wi.Total,
		Rounds:    wi.Rounds,
		Requeues:  wi.Requeues,
		Makespan:  wi.Makespan,
		Err:       wi.Err,
		Tenant:    wi.Tenant,
		QueuePos:  wi.QueuePos,
		WaitMs:    wi.WaitMs,
	}
}

// Attach implements Runner: it reconnects to a daemon-side campaign by ID
// over a KindAttach stream. The handle replays the campaign's full progress
// history — including everything published before a network cut or a
// daemon restart on a state dir — then follows it live to the result.
// Attach blocks until the attach verdict (one dial plus one frame, bounded
// by WithTimeout) or the failure that precedes it: the verdict carries the
// campaign shape that sizes event-subscription buffers, so a handle
// returned earlier could hand Events() an undersized channel and strand an
// abandoning consumer's delivery goroutine.
func (r *remoteRunner) Attach(ctx context.Context, id uint64) (*Handle, error) {
	handle := newHandle(0) // shape arrives with the attach verdict
	ready := make(chan struct{})
	go r.attach(ctx, handle, id, ready)
	select {
	case <-ready: // verdict arrived; scenarios are set
	case <-handle.done: // failed before the verdict (dial error, unknown ID)
	}
	return handle, nil
}

// Close implements Runner. Campaigns dial their own connections, so there
// is nothing to release.
func (r *remoteRunner) Close() error { return nil }

func (r *remoteRunner) run(ctx context.Context, handle *Handle, app core.Application, heuristic string, meta grid.SubmitMeta) {
	res, err := r.client.RunContext(ctx, app, heuristic, meta,
		func(id uint64) {
			handle.setID(id)
			handle.publish(EventAdmitted{ID: id})
		},
		func(u *diet.ProgressUpdate) {
			for _, ev := range progressEvents(u) {
				handle.publish(ev)
			}
		})
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		handle.finish(nil, err)
		return
	}
	handle.finish(fromWire(res), nil)
}

func (r *remoteRunner) attach(ctx context.Context, handle *Handle, id uint64, ready chan<- struct{}) {
	res, err := r.client.AttachContext(ctx, id,
		func(v *diet.AttachResponse) {
			handle.setID(v.ID)
			handle.setScenarios(v.Total)
			handle.publish(EventAdmitted{ID: v.ID})
			close(ready)
		},
		func(u *diet.ProgressUpdate) {
			for _, ev := range progressEvents(u) {
				handle.publish(ev)
			}
		})
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		handle.finish(nil, err)
		return
	}
	handle.finish(fromWire(res), nil)
}

// progressEvents maps one wire progress frame onto the typed event stream.
func progressEvents(u *diet.ProgressUpdate) []Event {
	switch u.Stage {
	case diet.StagePlanned:
		shares := make([]PlannedShare, len(u.Planned))
		for i, p := range u.Planned {
			shares[i] = PlannedShare{Cluster: p.Cluster, Scenarios: p.Scenarios}
		}
		return []Event{EventPlanned{Shares: shares}}
	case diet.StageChunk:
		if u.Chunk == nil {
			return nil
		}
		return []Event{
			EventChunkDone{
				Report: reportFromWire(*u.Chunk),
				Done:   u.Done, Total: u.Total,
			},
			EventProgress{Done: u.Done, Total: u.Total},
		}
	case diet.StageRequeue:
		return []Event{EventProgress{Done: u.Done, Total: u.Total, Requeued: u.Requeued}}
	default:
		return nil
	}
}

// reportFromWire maps one wire chunk report onto the public shape. The full
// backend Result does not travel the wire (or the journal), so it stays nil.
func reportFromWire(rep diet.ExecResponse) ClusterReport {
	return ClusterReport{
		Cluster:    rep.Cluster,
		Scenarios:  rep.Scenarios,
		Makespan:   rep.Makespan,
		Allocation: rep.Allocation,
		Round:      rep.Round,
	}
}

// fromWire maps the daemon's campaign result onto the public shape.
func fromWire(res *diet.CampaignResult) *CampaignResult {
	out := &CampaignResult{Makespan: res.Makespan, Requeues: res.Requeues}
	for _, rep := range res.Reports {
		out.Reports = append(out.Reports, reportFromWire(rep))
	}
	return out
}
