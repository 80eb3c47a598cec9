package oagrid

import (
	"context"
	"sync"

	"oagrid/internal/diet"
)

// Campaign is the unit of work a climatologist submits: an ensemble
// experiment plus the heuristic that should plan it. The same value runs
// unchanged through every Runner — in-process (Local) or against a grid
// daemon (Dial) — and yields bit-identical Results at default options.
type Campaign struct {
	// Experiment is the ensemble to run: NS scenarios of NM months.
	Experiment Experiment
	// Heuristic names the planning heuristic ("basic", "redistribute",
	// "all-to-main", "knapsack"). Empty uses the runner's default
	// (WithHeuristic, or "knapsack").
	Heuristic string
}

// NewCampaign builds a campaign for an ensemble of the given shape, planned
// by the runner's default heuristic.
func NewCampaign(scenarios, months int) Campaign {
	return Campaign{Experiment: NewExperiment(scenarios, months)}
}

// Runner executes campaigns — the campaign control plane. Run returns
// immediately with a handle that streams typed Events and resolves to the
// final CampaignResult; the error covers only immediately-detectable
// problems (malformed campaign, unknown heuristic) — admission rejections
// and execution failures surface through the handle with the package's
// typed errors (ErrRejected, ErrCampaignFailed, ErrCampaignCancelled,
// ErrProtocol).
//
// Cancelling ctx stops only this client's involvement, and never ends the
// campaign: a remote run releases its connection while the daemon-side
// campaign keeps running to its own deadline; a local run — where this
// process is also the one evaluating — pauses, stopping its worker pool
// between evaluations and leaving the journal non-terminal, so the next
// runner on the state dir resumes it. Either way the handle resolves with
// ctx's error. Cancel, by contrast, stops the campaign itself, wherever it
// runs.
//
// Local and Dial implement every method with identical semantics, so a
// program written against Runner moves between in-process and grid
// execution unchanged.
type Runner interface {
	// Run starts one campaign. Submit options shape this campaign alone:
	// WithPriority orders it in the admission queue, WithLabels tags it for
	// List filters, WithDeadline bounds it individually, and
	// WithCampaignHeuristic overrides the planner — so one shared Runner
	// serves differently-shaped tenants.
	Run(ctx context.Context, c Campaign, opts ...SubmitOption) (*Handle, error)
	// Attach reconnects to a previously started campaign by the ID its
	// EventAdmitted (or Handle.ID) reported. The returned handle replays
	// the campaign's full progress history from the start, follows it live,
	// and resolves to the final result — against a daemon this works across
	// network cuts, client restarts, and daemon restarts on a state dir
	// (WithStateDir / oarun -state). An unknown ID resolves the handle with
	// an error wrapping ErrUnknownCampaign; a cancelled campaign's handle
	// resolves with an error wrapping ErrCampaignCancelled, even after a
	// restart.
	Attach(ctx context.Context, id uint64) (*Handle, error)
	// Cancel stops a campaign by ID, server-side for remote runners: a
	// queued campaign never dispatches, a running one halts at the next
	// chunk boundary with its in-flight work abandoned — no EventChunkDone
	// follows the cancel verdict. The cancellation is journaled terminally
	// before Cancel returns (on durable runners), so it survives a kill -9
	// restart; waiters and attachers resolve with ErrCampaignCancelled.
	// Cancelling an unknown ID returns an error wrapping ErrUnknownCampaign;
	// cancelling a campaign that already finished is a no-op.
	Cancel(ctx context.Context, id uint64) error
	// List enumerates the runner's campaign table in admission (ID) order —
	// queued, running and retained terminal campaigns — filtered by status
	// and label subset when the filter carries them.
	List(ctx context.Context, filter ListFilter) ([]CampaignInfo, error)
	// Info fetches one campaign's control-plane snapshot. An unknown ID
	// returns an error wrapping ErrUnknownCampaign.
	Info(ctx context.Context, id uint64) (*CampaignInfo, error)
	// Close releases the runner's resources. Handles already returned stay
	// valid.
	Close() error
}

// Campaign statuses reported by CampaignInfo.Status and ListFilter.Status.
const (
	StatusQueued    = diet.CampaignQueued
	StatusRunning   = diet.CampaignRunning
	StatusDone      = diet.CampaignDone
	StatusFailed    = diet.CampaignFailed
	StatusCancelled = diet.CampaignCancelled
)

// CampaignInfo is the control-plane view of one campaign: the submit
// options it carried plus its progress gauges — what Runner.Info and
// Runner.List report to an operator, as opposed to the CampaignResult a
// waiting submitter streams.
type CampaignInfo struct {
	// ID is the runner-issued campaign ID.
	ID uint64
	// Status is one of the Status constants.
	Status string
	// Priority, Labels and Heuristic echo the campaign's submit options
	// (Heuristic is the resolved planner, never empty).
	Priority int
	Labels   map[string]string
	// Heuristic names the planning heuristic the campaign runs with.
	Heuristic string
	// Scenarios and Months are the campaign's shape.
	Scenarios int
	Months    int
	// Done counts scenarios with a finished chunk; Total mirrors Scenarios.
	Done  int
	Total int
	// Rounds counts repartition rounds started; Requeues counts chunks lost
	// to dead clusters and re-repartitioned.
	Rounds   int
	Requeues int
	// Makespan is set once the campaign is done.
	Makespan float64
	// Err carries the failure reason of a failed campaign.
	Err string
	// Tenant is the fair-queueing tenant the campaign runs under — the
	// value of the daemon's tenant label key (default "team"), "default"
	// when the campaign carries none. Local runners derive it with the same
	// code, so Info stays runner-agnostic.
	Tenant string
	// QueuePos is the campaign's 1-based dispatch position within its
	// tenant's queue while queued, 0 after dispatch (and always 0 on local
	// runners, which have no admission queue).
	QueuePos int
	// WaitMs is the campaign's admission-to-dispatch wait in milliseconds:
	// ticking while queued, frozen once a dispatcher takes it.
	WaitMs float64
}

// ListFilter narrows Runner.List. The zero value matches every campaign.
type ListFilter struct {
	// Status keeps only campaigns in that state when non-empty (one of the
	// Status constants).
	Status string
	// Labels keeps only campaigns whose label set contains every given pair
	// (subset match) when non-empty.
	Labels map[string]string
}

// Event is one typed progress notification of a running campaign. The
// concrete types are EventAdmitted, EventPlanned, EventChunkDone,
// EventProgress and EventResult.
type Event interface{ isEvent() }

// EventAdmitted reports the campaign's admission and carries its ID — the
// durable name for the campaign: it polls, reattaches (Runner.Attach), and
// survives a daemon restart on a state dir. Hold on to it if the campaign
// may outlive this connection.
type EventAdmitted struct {
	// ID is the runner-issued campaign ID.
	ID uint64
}

// PlannedShare is one cluster's slice of a repartition.
type PlannedShare struct {
	// Cluster is the cluster's name.
	Cluster string
	// Scenarios is how many scenarios the cluster received.
	Scenarios int
}

// EventPlanned reports a computed repartition: Algorithm 1 has assigned the
// campaign's (remaining) scenarios to clusters. A campaign emits it once per
// repartition round — more than once only when a cluster died and its share
// was requeued.
type EventPlanned struct {
	// Shares lists each loaded cluster's scenario count for this round.
	Shares []PlannedShare
}

// EventChunkDone reports one cluster finishing its scenario share.
type EventChunkDone struct {
	// Report is the finished chunk's evaluation report.
	Report ClusterReport
	// Done and Total count completed scenarios campaign-wide.
	Done, Total int
}

// EventProgress reports scenario-level completion, including chunks lost to
// a dead cluster and sent back for re-repartition.
type EventProgress struct {
	// Done and Total count completed scenarios campaign-wide.
	Done, Total int
	// Requeued is non-zero when this update reports scenarios returned to
	// the queue after their cluster died.
	Requeued int
}

// EventResult is the terminal event: the campaign's final state, mirrored by
// Handle.Wait.
type EventResult struct {
	// Result is the campaign's report; nil when Err is set.
	Result *CampaignResult
	// Err is the campaign's failure, nil on success.
	Err error
}

func (EventAdmitted) isEvent()  {}
func (EventPlanned) isEvent()   {}
func (EventChunkDone) isEvent() {}
func (EventProgress) isEvent()  {}
func (EventResult) isEvent()    {}

// ClusterReport is one cluster's evaluation of its scenario share.
type ClusterReport struct {
	// Cluster is the cluster's name.
	Cluster string
	// Scenarios is the size of the share.
	Scenarios int
	// Makespan is the share's completion time in seconds.
	Makespan float64
	// Allocation is the processor grouping the cluster used.
	Allocation Allocation
	// Round is the repartition round that dispatched the share: 0 for the
	// first attempt, higher for work requeued after a cluster failure or
	// resumed after a restart. Rounds run sequentially, so the campaign
	// makespan is the sum of per-round maxima.
	Round int
	// Result carries the full backend report (utilization, trace, ...) on
	// live local runs; remote runs and journal-recovered local campaigns
	// transfer only the fields above and leave it nil.
	Result *Result
}

// CampaignResult is a campaign's final report. It is bit-identical between
// Local and Dial runners at default options, and bit-identical to a serial
// engine evaluation of each cluster's share — cancellation or no
// cancellation, whatever the worker count.
type CampaignResult struct {
	// Makespan is the campaign's completion time: the sum over repartition
	// rounds of each round's slowest chunk. A campaign with no failures has
	// one round, so this is simply the slowest cluster's makespan.
	Makespan float64
	// Reports holds one entry per evaluated chunk, sorted by (cluster,
	// scenarios, round). A cluster appears more than once only when work
	// was requeued onto it after a failure or resumed after a restart.
	Reports []ClusterReport
	// Requeues counts chunks that were re-dispatched after a cluster died.
	Requeues int
}

// Handle is a running campaign. Events streams typed progress; Wait blocks
// for the final result. Both may be used together or alone — events buffer
// internally, so a caller that only Waits never blocks the runner, and a
// caller that subscribes late still sees every event from the start.
type Handle struct {
	mu    sync.Mutex
	queue []Event
	ended bool
	// change is closed and replaced on every publish: a broadcast that
	// wakes every subscriber pump at once.
	change chan struct{}
	done   chan struct{}
	result *CampaignResult
	err    error
	// id is the runner-issued campaign ID, set at admission.
	id uint64
	// scenarios sizes subscription buffers: the event count of any healthy
	// campaign is a small multiple of its scenario count.
	scenarios int
}

func newHandle(scenarios int) *Handle {
	return &Handle{change: make(chan struct{}), done: make(chan struct{}), scenarios: scenarios}
}

// ID returns the campaign's runner-issued ID — the value to pass to
// Runner.Attach after a cut or restart. It is 0 until the campaign is
// admitted; subscribe to EventAdmitted to learn it as soon as it exists.
func (h *Handle) ID() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.id
}

// setID records the campaign ID at admission.
func (h *Handle) setID(id uint64) {
	h.mu.Lock()
	h.id = id
	h.mu.Unlock()
}

// setScenarios sizes subscription buffers once the campaign shape is known —
// an attached handle learns it from the attach verdict, not at creation.
func (h *Handle) setScenarios(n int) {
	h.mu.Lock()
	if n > h.scenarios {
		h.scenarios = n
	}
	h.mu.Unlock()
}

// publish appends one event to the stream and wakes all subscribers; it
// never blocks the producer.
func (h *Handle) publish(ev Event) {
	h.mu.Lock()
	h.queue = append(h.queue, ev)
	h.broadcastLocked()
	h.mu.Unlock()
}

// broadcastLocked wakes every pump parked on the current change channel.
// Callers hold h.mu.
func (h *Handle) broadcastLocked() {
	close(h.change)
	h.change = make(chan struct{})
}

// finish publishes the terminal EventResult, stores the outcome for Wait and
// closes the stream.
func (h *Handle) finish(res *CampaignResult, err error) {
	h.mu.Lock()
	h.result, h.err = res, err
	h.queue = append(h.queue, EventResult{Result: res, Err: err})
	h.ended = true
	h.broadcastLocked()
	h.mu.Unlock()
	close(h.done)
}

// Events is EventsContext without a cancellation context. The subscription
// channel is sized to hold any healthy campaign's full stream, so a
// consumer that stops reading early (break after the first chunk, say) does
// not strand the delivery goroutine: it finishes into the buffer and exits.
// Only a pathological stream bigger than the buffer (thousands of requeue
// rounds) falls back to blocking delivery, where abandoning the channel
// would pin the goroutine — use EventsContext (and cancel the context when
// done) or drain until close when consuming such campaigns.
func (h *Handle) Events() <-chan Event {
	return h.EventsContext(context.Background())
}

// EventsContext returns one subscription to the campaign's event stream.
// Every call gets its own channel that replays all events already emitted,
// then follows the campaign live, and closes after the terminal EventResult
// — independent subscribers each see the complete stream. Delivery never
// blocks the campaign itself (events buffer internally). Cancelling ctx
// closes the channel early and releases the delivery goroutine — the safe
// way to abandon a subscription whose stream may exceed its buffer.
func (h *Handle) EventsContext(ctx context.Context) <-chan Event {
	h.mu.Lock()
	// Replay + live allowance: 4 frames per scenario covers planned, chunk,
	// progress and requeue events across several repartition rounds.
	size := len(h.queue) + 4*h.scenarios + 32
	h.mu.Unlock()
	out := make(chan Event, size)
	go h.pump(ctx, out)
	return out
}

// pump delivers the full event sequence in order to one subscriber and
// closes its channel after the terminal event — or as soon as ctx is
// cancelled, whichever comes first (a nil-Done context never fires and
// costs nothing on the fast path).
func (h *Handle) pump(ctx context.Context, out chan<- Event) {
	done := ctx.Done()
	next := 0
	for {
		h.mu.Lock()
		if next < len(h.queue) {
			ev := h.queue[next]
			h.mu.Unlock()
			select {
			case out <- ev:
			case <-done:
				close(out)
				return
			}
			next++
			continue
		}
		ended := h.ended
		change := h.change
		h.mu.Unlock()
		if ended {
			close(out)
			return
		}
		select {
		case <-change:
		case <-done:
			close(out)
			return
		}
	}
}

// Done returns a channel that closes when the campaign reaches a terminal
// state.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Wait blocks until the campaign ends and returns its final result. The
// error wraps ErrRejected for admission rejections, ErrCampaignFailed for
// campaigns that started but could not finish, ErrProtocol for wire-level
// violations, and is the context's error when the campaign was cancelled.
func (h *Handle) Wait() (*CampaignResult, error) {
	<-h.done
	return h.result, h.err
}
