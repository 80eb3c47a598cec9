package oagrid

import (
	"context"
	"slices"
	"strings"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/grid"
)

// service is what a runner drives campaigns through: the call shapes
// grid.Client (a daemon, over the wire) and grid.Local (the same campaign
// core, in-process) share, all in diet wire types — so the frame-to-event
// mapping below is the only one. Close releases what the service holds:
// the client's kept-alive connections, or the core and its journal.
type service interface {
	RunContext(ctx context.Context, app core.Application, heuristic string, meta grid.SubmitMeta, onAdmit func(uint64), onProgress func(*diet.ProgressUpdate)) (*diet.CampaignResult, error)
	AttachContext(ctx context.Context, id uint64, onAttach func(*diet.AttachResponse), onProgress func(*diet.ProgressUpdate)) (*diet.CampaignResult, error)
	CancelContext(ctx context.Context, id uint64) (string, error)
	InfoContext(ctx context.Context, id uint64) (*diet.CampaignInfo, error)
	ListCampaignsContext(ctx context.Context, filter *diet.ListCampaignsRequest) ([]diet.CampaignInfo, error)
	Close() error
}

// runner is the one Runner implementation. It holds no campaign state: the
// lifecycle lives behind the service, in a daemon or in the in-process core.
type runner struct {
	service service
	// local marks an in-process service, whose admission is one journal
	// append: Run waits for it.
	local bool
	cfg   runnerConfig
}

// Dial builds a Runner over a live grid scheduler daemon (cmd/oarun
// -daemon). It verifies a daemon answers before returning — ctx bounds
// that probe. Each campaign then streams its admission verdict,
// per-campaign progress frames and final result on one connection, with the
// frame deadline refreshed on every frame so campaigns may outlive any
// single timeout. The runner keeps finished streams' connections open for
// the next campaign or control request, until Close. At default options a
// dialed campaign's Result is bit-identical to a Local run over the same
// cluster profiles.
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
	client := &grid.Client{Addr: primary, Addrs: fallbacks, Timeout: cfg.timeout}
	if _, err := client.StatsContext(ctx); err != nil {
		client.Close()
		return nil, err
	}
	return &runner{service: client, cfg: cfg}, nil
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

// Run implements Runner. Submit options travel with the campaign — to the
// daemon on the wire, into the journal on a durable runner: priority orders
// a daemon's admission queue, labels tag the campaign for List, a deadline
// bounds it. A remote Run returns before the admission verdict (the handle
// carries it); a local one returns once the campaign is admitted — its
// admission is one journal append, not a network round trip — so the handle
// already has its ID, and an admission the journal refused is Run's error.
func (r *runner) Run(ctx context.Context, c Campaign, opts ...SubmitOption) (*Handle, error) {
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
	if !r.local {
		go r.run(ctx, handle, app, name, meta, nil)
		return handle, nil
	}
	admitted := make(chan struct{})
	go r.run(ctx, handle, app, name, meta, admitted)
	select {
	case <-admitted:
	case <-handle.done:
		if handle.ID() == 0 {
			return nil, handle.err
		}
	}
	return handle, nil
}

// Cancel implements Runner: the cancellation is journaled before the
// verdict returns, so it survives any restart. An unknown ID is
// ErrUnknownCampaign; a campaign that finished first is a no-op.
func (r *runner) Cancel(ctx context.Context, id uint64) error {
	_, err := r.service.CancelContext(ctx, id)
	return err
}

// List implements Runner: the campaign table in admission order.
func (r *runner) List(ctx context.Context, filter ListFilter) ([]CampaignInfo, error) {
	infos, err := r.service.ListCampaignsContext(ctx, &diet.ListCampaignsRequest{
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
func (r *runner) Info(ctx context.Context, id uint64) (*CampaignInfo, error) {
	wi, err := r.service.InfoContext(ctx, id)
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

// Attach implements Runner: it reconnects to a campaign by ID — over a
// KindAttach stream to a daemon, straight to the core in-process. The
// returned handle is a fresh one that replays the campaign's full progress
// history — including everything published before a network cut or a
// restart on a state dir — then follows it live to the result. An unknown
// ID resolves the handle with ErrUnknownCampaign, so callers can always go
// straight to Wait. Attach blocks until the attach verdict (remotely: one
// dial plus one frame, bounded by WithTimeout) or the failure that precedes
// it: the verdict carries the campaign shape that sizes event-subscription
// buffers, so a handle returned earlier could hand Events() an undersized
// channel and strand an abandoning consumer's delivery goroutine.
func (r *runner) Attach(ctx context.Context, id uint64) (*Handle, error) {
	handle := newHandle(0) // shape arrives with the attach verdict
	ready := make(chan struct{})
	go r.attach(ctx, handle, id, ready)
	select {
	case <-ready: // verdict arrived; scenarios are set
	case <-handle.done: // failed before the verdict (dial error, unknown ID)
	}
	return handle, nil
}

// Close implements Runner. A remote runner closes the connections it keeps
// idle; campaigns still streaming finish on their own. A local runner
// pauses the campaigns still running — they stay non-terminal in the
// journal and resume on the next open, like a daemon shutdown, and their
// handles resolve with ErrCampaignFailed — and then releases the journal.
func (r *runner) Close() error { return r.service.Close() }

func (r *runner) run(ctx context.Context, handle *Handle, app core.Application, heuristic string, meta grid.SubmitMeta, admitted chan<- struct{}) {
	res, err := r.service.RunContext(ctx, app, heuristic, meta,
		func(id uint64) {
			handle.setID(id)
			handle.publish(EventAdmitted{ID: id})
			if admitted != nil {
				close(admitted)
			}
		},
		handle.progress)
	handle.resolve(ctx, res, err)
}

func (r *runner) attach(ctx context.Context, handle *Handle, id uint64, ready chan<- struct{}) {
	res, err := r.service.AttachContext(ctx, id,
		func(v *diet.AttachResponse) {
			handle.setID(v.ID)
			handle.setScenarios(v.Total)
			handle.publish(EventAdmitted{ID: v.ID})
			close(ready)
		},
		handle.progress)
	handle.resolve(ctx, res, err)
}

// progress republishes one wire progress frame as typed events.
func (h *Handle) progress(u *diet.ProgressUpdate) {
	for _, ev := range progressEvents(u) {
		h.publish(ev)
	}
}

// resolve finishes the handle with a campaign stream's outcome. A stream
// that broke because the caller's ctx ended resolves with ctx's error.
func (h *Handle) resolve(ctx context.Context, res *diet.CampaignResult, err error) {
	switch {
	case err == nil:
		h.finish(fromWire(res), nil)
	case ctx.Err() != nil:
		h.finish(nil, ctx.Err())
	default:
		h.finish(nil, err)
	}
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

// reportFromWire maps one chunk report onto the public shape. The full
// backend Result travels neither wire nor journal: it is set only on a
// report the in-process core evaluated in this process. Under Local the
// allocation is the fleet's cached plan, shared with every later chunk of
// the shape, so the caller gets its own copy of Groups.
func reportFromWire(rep diet.ExecResponse) ClusterReport {
	alloc := rep.Allocation
	alloc.Groups = slices.Clone(alloc.Groups)
	return ClusterReport{
		Cluster:    rep.Cluster,
		Scenarios:  rep.Scenarios,
		Makespan:   rep.Makespan,
		Allocation: alloc,
		Round:      rep.Round,
		Result:     rep.Result,
	}
}

// fromWire maps a campaign result onto the public shape.
func fromWire(res *diet.CampaignResult) *CampaignResult {
	out := &CampaignResult{Makespan: res.Makespan, Requeues: res.Requeues}
	for _, rep := range res.Reports {
		out.Reports = append(out.Reports, reportFromWire(rep))
	}
	return out
}
