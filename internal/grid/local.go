package grid

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/engine"
	"oagrid/internal/platform"
)

// LocalConfig tunes an in-process campaign core.
type LocalConfig struct {
	// Backend evaluates vectors and chunks (nil: the event-driven executor).
	Backend engine.Evaluator
	// Options are the evaluation options every vector and chunk runs under.
	Options engine.Options
	// Workers bounds the sweep pool of one vector evaluation (<= 0:
	// GOMAXPROCS).
	Workers int
	// StateDir, when non-empty, journals every campaign transition there
	// and replays the journal found at open, exactly like Config.StateDir.
	StateDir string
}

// Local is the campaign lifecycle without a daemon around it: no listener,
// no admission queue, no dispatcher pool. A campaign is admitted (WAL
// first), marked running and run on its own goroutine at once, against the
// in-process engine. Its methods have the call shapes of Client's, in the
// same wire types, so one consumer drives either.
type Local struct {
	lifecycle
	// wg counts the campaign goroutines; Close waits for them so nothing
	// evaluates or journals past the store's lifetime.
	wg sync.WaitGroup
}

// fleet is the in-process executor: a fixed set of clusters evaluated on
// the engine. Abandoning an evaluation costs nothing and a failed one would
// fail again, so nothing is ever lost here — every failure is the
// campaign's.
type fleet struct {
	targets []target // cluster-name order
	cfg     LocalConfig
	// plans is the fleet's plan cache, shared by its clusters as a SeD's is
	// by its one: perf fills it, run reads it. The clusters are fixed for
	// the fleet's lifetime, so nothing ever invalidates an entry.
	plans *engine.Plans
}

// clusterTarget is one in-process cluster as a round's target.
type clusterTarget struct{ cl *platform.Cluster }

func (t clusterTarget) cluster() string { return t.cl.Name }

func (f *fleet) lease() ([]target, func()) { return f.targets, func() {} }

func (f *fleet) perf(ctx context.Context, t target, n, months int, heuristic string) ([]float64, error) {
	return diet.PerfVector(ctx, f.cfg.Backend, t.(clusterTarget).cl, n, months, heuristic, f.cfg.Options, f.cfg.Workers, f.plans)
}

func (f *fleet) run(ctx context.Context, t target, ids []int, months int, heuristic string) (*diet.ExecResponse, error) {
	resp, res, err := diet.ExecChunk(ctx, f.cfg.Backend, t.(clusterTarget).cl, ids, months, heuristic, f.cfg.Options, f.plans)
	if err != nil {
		return nil, err
	}
	resp.Result = &res
	return &resp, nil
}

func (f *fleet) lost(target, error) bool { return false }

// NewLocal builds an in-process core over the given clusters, which it
// orders by name (the daemon's tie-break order). The clusters must form a
// valid grid: names key the vector cache, so two clusters sharing one would
// share a vector. With a StateDir the journal found there is replayed
// first: terminal campaigns come back under their original IDs, non-terminal
// ones resume in the background.
func NewLocal(clusters []*platform.Cluster, cfg LocalConfig) (*Local, error) {
	g, err := platform.NewGrid(clusters...)
	if err != nil {
		return nil, err
	}
	sort.Slice(g.Clusters, func(i, j int) bool { return g.Clusters[i].Name < g.Clusters[j].Name })
	f := &fleet{cfg: cfg, plans: engine.NewPlans()}
	for _, cl := range g.Clusters {
		f.targets = append(f.targets, clusterTarget{cl})
	}
	return newLocal(f, cfg.StateDir)
}

// newLocal builds the core around an executor (tests bring scripted ones).
// Retention and journal rotation run at the daemon's defaults: a long-lived
// embedder must not accumulate every campaign ever, in memory or on disk.
func newLocal(exec executor, stateDir string) (*Local, error) {
	defaults := Config{}.withDefaults()
	l := &Local{lifecycle: lifecycle{
		exec:         exec,
		keepFinished: defaults.KeepFinished,
		campaigns:    make(map[uint64]*campaign),
		vectors:      make(map[string]map[vecKey][]float64),
	}}
	if stateDir != "" {
		recovered, err := l.recover(stateDir, defaults.TenantKey)
		if err != nil {
			return nil, err
		}
		for _, c := range recovered {
			c.status = diet.CampaignRunning
			l.launch(c)
		}
	}
	return l, nil
}

// launch runs c on its own goroutine.
func (l *Local) launch(c *campaign) {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		if c.deadline > 0 {
			// An in-process evaluation is free to abandon: the deadline ends
			// the campaign where it stands instead of waiting for the round
			// boundary a daemon's SeD exchanges need.
			timer := time.AfterFunc(c.deadline, func() { l.end(c, diet.CampaignFailed, c.timedOut(), true) })
			defer timer.Stop()
		}
		l.runCampaign(c, nil)
	}()
}

// RunContext admits a campaign and follows it to its result; the shape is
// Client.RunContext's. The admission record is durable before onAdmit sees
// the ID. ctx ending is a pause, not a failure of the campaign: evaluation
// stops between sweep jobs and the call returns ctx's error, but the
// journal stays non-terminal, so the next open of the state dir resumes the
// campaign — a clean ^C must never destroy work a kill -9 would have
// preserved.
func (l *Local) RunContext(ctx context.Context, app core.Application, heuristic string, meta SubmitMeta, onAdmit func(uint64), onProgress func(*diet.ProgressUpdate)) (*diet.CampaignResult, error) {
	l.mu.Lock()
	l.nextID++
	id := l.nextID
	l.mu.Unlock()
	c := newCampaign(id, app, heuristic, submitMeta{priority: meta.Priority, labels: meta.Labels, deadline: meta.Deadline})
	c.tenant = tenantOf(meta.Labels, DefaultTenantKey)
	c.status = diet.CampaignRunning // nothing queues here
	if err := l.journalAdmission(c); err != nil {
		return nil, fmt.Errorf("grid: journaling admission: %w", err)
	}
	sub := c.subscribe()
	defer c.unsubscribe(sub)
	l.mu.Lock()
	l.install(c)
	l.mu.Unlock()
	l.launch(c)
	if onAdmit != nil {
		onAdmit(id)
	}
	res, err := l.follow(ctx, c, sub, onProgress)
	if ctx.Err() != nil {
		l.end(c, diet.CampaignFailed, ctx.Err().Error(), false)
	}
	return res, err
}

// AttachContext follows a known campaign from the start of its history to
// its result; the shape is Client.AttachContext's.
func (l *Local) AttachContext(ctx context.Context, id uint64, onAttach func(*diet.AttachResponse), onProgress func(*diet.ProgressUpdate)) (*diet.CampaignResult, error) {
	c := l.lookup(id)
	if c == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownCampaign, id)
	}
	sub := c.subscribe()
	defer c.unsubscribe(sub)
	if onAttach != nil {
		info := c.info()
		onAttach(&diet.AttachResponse{ID: id, Found: true, Status: info.Status, Done: info.Done, Total: info.Total})
	}
	return l.follow(ctx, c, sub, onProgress)
}

// CancelContext cancels a campaign by ID and returns its status after the
// verdict; the shape is Client.CancelContext's.
func (l *Local) CancelContext(_ context.Context, id uint64) (string, error) {
	found, status := l.Cancel(id)
	if !found {
		return "", fmt.Errorf("%w: %d", ErrUnknownCampaign, id)
	}
	return status, nil
}

// InfoContext snapshots one campaign's control-plane view. Nothing queues
// here, so QueuePos and WaitMs stay zero.
func (l *Local) InfoContext(_ context.Context, id uint64) (*diet.CampaignInfo, error) {
	c := l.lookup(id)
	if c == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownCampaign, id)
	}
	info := c.info()
	return &info, nil
}

// ListCampaignsContext enumerates the campaign table in admission order.
func (l *Local) ListCampaignsContext(_ context.Context, filter *diet.ListCampaignsRequest) ([]diet.CampaignInfo, error) {
	return l.list(filter, nil), nil
}

// Close pauses every campaign still running — they stay non-terminal in
// the journal and resume at the next open, like a daemon shutdown — waits
// for their goroutines, and releases the journal.
func (l *Local) Close() error {
	for _, c := range l.table() {
		l.end(c, diet.CampaignFailed, shutdownMsg, false) // a no-op on the terminal ones
	}
	l.wg.Wait()
	if l.store != nil {
		return l.store.Close()
	}
	return nil
}
