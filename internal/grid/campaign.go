package grid

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/store"
)

// campaign is one submitted protocol round moving through its lifecycle. Its
// progress fields (remaining, reports, rounds, ...) are a fold over the
// campaign's journal records and change in one place only, apply: the live
// path journals a record and applies it, recovery and ring adoption apply
// the records a journal holds, so a resumed campaign is the one that never
// stopped by construction.
type campaign struct {
	id        uint64
	app       core.Application
	heuristic string
	// priority orders the admission queue (higher dispatches first); labels
	// and deadline are the campaign's other journaled submit options. All
	// three are immutable after admission.
	priority int
	labels   map[string]string
	deadline time.Duration
	// key is the submission key the campaign was admitted under (zero for
	// none); the lifecycle indexes it, so a resent submit finds the
	// campaign instead of admitting it twice. Immutable.
	key diet.SubmitKey
	// tenant is the campaign's fair-queueing tenant, derived from labels at
	// admission (and re-derived on journal replay); enqueuedAt is when its
	// queue slot was taken. Both are immutable once the campaign is visible.
	tenant     string
	enqueuedAt time.Time

	// abortCh closes when the campaign turns terminal. When that happens
	// from outside its run loop — a cancel, or an in-process pause or
	// deadline — the exchanges in flight abort on it and the run loop stops
	// at the next chunk boundary. It closes with the terminal claim.
	abortCh chan struct{}

	mu sync.Mutex
	// claimed marks the terminal transition as owned: exactly one path —
	// completion, failure, or cancel — wins claim() and drives the campaign
	// terminal; every record applied after the claim but the terminal one is
	// dropped, so a cancel verdict is never followed by a chunk frame.
	claimed bool
	// paused marks a campaign this process stopped serving without ending
	// it (a shutdown, a caller's ctx): terminal here, non-terminal in the
	// journal, so the next open resumes it — and a later Cancel still owes
	// the journal its terminal record.
	paused   bool
	status   string
	makespan float64
	reports  []diet.ExecResponse
	requeues int
	errMsg   string
	// remaining lists the scenario IDs with no completed chunk, ascending.
	remaining []int
	// rounds counts the repartition rounds started — stamped when a round's
	// planned record is journaled — and is therefore the next round's
	// index. Rounds run sequentially, so the campaign makespan is the sum of
	// per-round chunk maxima.
	rounds int
	// scenariosDone counts scenarios with a finished chunk report, the Done
	// gauge of progress frames.
	scenariosDone int
	// queueWait is the admission-to-dispatch wait, frozen when a dispatcher
	// takes the campaign (dispatched flips true).
	queueWait  time.Duration
	dispatched bool
	// history keeps every progress frame published so far, so a subscriber
	// that attaches after dispatch started still sees the full story. Frames
	// are shared by pointer: one published frame serves every subscriber and
	// every attach replay, and carries its wire encoding computed at most
	// once (see progressFrame).
	history []*progressFrame
	subs    map[chan *progressFrame]struct{}

	// done closes when the campaign reaches a terminal state; submit-wait
	// connections and pollers block on it.
	done chan struct{}
}

// progressFrame is one published (or journal-replayed) progress update,
// serialized at most once per protocol version however many subscribers
// receive it: every stream and every Attach replay at that version shares
// the one cached encoding.
type progressFrame struct {
	u  diet.ProgressUpdate
	mu sync.Mutex
	// enc holds the encoding stamped with each version, at index version −
	// ProtocolFloor; nil until a stream at that version asks for it.
	enc [diet.ProtocolVersion - diet.ProtocolFloor + 1][]byte
}

// encoded returns the frame's wire bytes stamped with version ver (one the
// stream negotiated, so within [ProtocolFloor, ProtocolVersion]), computing
// them on first use. A stream's every header carries its own version, so
// each version gets its own encoding even where the payloads agree.
func (f *progressFrame) encoded(ver int) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := &f.enc[ver-diet.ProtocolFloor]
	if *e == nil {
		b, err := diet.AppendResponseFrame(nil, &diet.Response{Version: ver, Progress: &f.u})
		if err != nil {
			return nil, err
		}
		*e = b
	}
	return *e, nil
}

// submitMeta carries a campaign's per-submit options (control plane v2).
type submitMeta struct {
	priority int
	labels   map[string]string
	deadline time.Duration
	key      diet.SubmitKey
}

// newCampaign builds a fresh campaign with every scenario remaining.
func newCampaign(id uint64, app core.Application, heuristic string, meta submitMeta) *campaign {
	c := &campaign{
		id:        id,
		app:       app,
		heuristic: heuristic,
		priority:  meta.priority,
		labels:    meta.labels,
		deadline:  meta.deadline,
		key:       meta.key,
		abortCh:   make(chan struct{}),
		status:    diet.CampaignQueued,
		remaining: make([]int, app.Scenarios),
		done:      make(chan struct{}),
	}
	for i := range c.remaining {
		c.remaining[i] = i
	}
	return c
}

// recoveredCampaign rebuilds a campaign from its journal records: the
// admission record opens it, apply folds the rest.
func recoveredCampaign(rc *store.Campaign) *campaign {
	recs := rc.Records()
	adm := &recs[0]
	c := newCampaign(adm.ID, core.Application{Scenarios: adm.Scenarios, Months: adm.Months}, adm.Heuristic,
		submitMeta{priority: adm.Priority, labels: adm.Labels, deadline: adm.Deadline, key: adm.Key})
	for i := range recs[1:] {
		c.apply(&recs[1+i])
	}
	if c.claimed {
		close(c.done)
	}
	return c
}

// apply folds one journal record into the campaign. It is the only place
// that says what a record means: what it does to the campaign's progress
// and which progress frame it implies — appended to the history and fanned
// out, without blocking, to whoever is subscribed (nobody, at replay). The
// terminal claim is the cut: once it is taken — by the live path before it
// journals the terminal record, or here by a replayed terminal record — no
// other record has any effect, so a verdict is never followed by a chunk
// frame and a straggler journaled around a cancel never resurfaces. apply
// reports whether rec took effect. It leaves c.done to the caller, who
// settles the campaign table first. Callers hold c.mu (replay works on a
// campaign nobody else sees yet).
//
//oalint:hotpath
func (c *campaign) apply(rec *store.Record) bool {
	switch rec.Kind {
	case store.KindDone, store.KindCancelled:
		if c.ended() {
			return false
		}
		c.claimLocked()
		c.makespan, c.errMsg = rec.Makespan, rec.Err
		switch {
		case rec.Kind == store.KindCancelled:
			c.status = diet.CampaignCancelled
		case rec.Status == diet.CampaignDone:
			c.status, c.requeues = diet.CampaignDone, rec.Requeues
		default: // a done record says done or failed
			c.status, c.requeues = diet.CampaignFailed, rec.Requeues
		}
		// Chunk records are journaled in arrival order; a terminal snapshot
		// has one canonical order, whatever the interleaving and whatever the
		// outcome.
		sortReports(c.reports)
		return true // terminal state travels on the result, not as a frame
	}
	if c.claimed {
		return false
	}
	frame := diet.ProgressUpdate{ID: c.id, Total: c.app.Scenarios}
	switch rec.Kind {
	case store.KindPlanned:
		if rec.Round >= c.rounds {
			c.rounds = rec.Round + 1
		}
		frame.Stage = diet.StagePlanned
		frame.Planned = rec.Planned
	case store.KindChunk:
		if rec.Chunk == nil {
			return false
		}
		c.reports = append(c.reports, *rec.Chunk)
		c.scenariosDone += rec.Chunk.Scenarios
		c.remaining = without(c.remaining, rec.IDs)
		frame.Stage = diet.StageChunk
		frame.Chunk = rec.Chunk
	case store.KindRequeue:
		c.requeues++
		frame.Stage = diet.StageRequeue
		frame.Requeued = rec.Requeued
	default:
		return false
	}
	frame.Done = c.scenariosDone
	f := &progressFrame{u: frame}
	c.history = append(c.history, f)
	for ch := range c.subs {
		select {
		case ch <- f:
		default: // slow subscriber: drop the frame, keep the dispatcher live
		}
	}
	return true
}

// without returns remaining minus ids, preserving order.
func without(remaining []int, ids []int) []int {
	drop := make(map[int]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	out := remaining[:0]
	for _, id := range remaining {
		if !drop[id] {
			out = append(out, id)
		}
	}
	return out
}

// ended reports whether a terminal record was applied. Callers hold c.mu.
func (c *campaign) ended() bool {
	return c.status == diet.CampaignDone || c.status == diet.CampaignFailed || c.status == diet.CampaignCancelled
}

// claim reserves the campaign's terminal transition and stops its work:
// whatever is still in flight aborts on the closed abort channel. Exactly
// one caller wins and must then journal and apply the terminal record.
func (c *campaign) claim() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.claimLocked()
}

// claimLocked is claim for callers that hold c.mu.
func (c *campaign) claimLocked() bool {
	if c.claimed {
		return false
	}
	c.claimed = true
	close(c.abortCh)
	return true
}

// aborted reports whether a terminal transition has ended the campaign's
// work; the run loop, which only checks between its own steps, reads it as
// "ended from outside".
func (c *campaign) aborted() bool {
	select {
	case <-c.abortCh:
		return true
	default:
		return false
	}
}

// takePause consumes the paused flag for a late Cancel: the campaign flips
// to cancelled exactly once, and the caller owes the journal the terminal
// record.
func (c *campaign) takePause() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.paused {
		return false
	}
	c.paused = false
	c.status = diet.CampaignCancelled
	c.errMsg = ""
	return true
}

// timedOut words the failure of a campaign whose deadline passed.
func (c *campaign) timedOut() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("grid: campaign %d timed out with %d scenarios unplaced", c.id, len(c.remaining))
}

// info snapshots the campaign's control-plane view.
func (c *campaign) info() diet.CampaignInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The wait gauge ticks while the campaign queues and freezes at its
	// dispatch point; a campaign cancelled in the queue keeps the zero wait
	// (it never dispatched).
	wait := c.queueWait
	if !c.dispatched && c.status == diet.CampaignQueued && !c.enqueuedAt.IsZero() {
		wait = time.Since(c.enqueuedAt)
	}
	return diet.CampaignInfo{
		ID:        c.id,
		Found:     true,
		Status:    c.status,
		Priority:  c.priority,
		Labels:    c.labels,
		Heuristic: c.heuristic,
		Scenarios: c.app.Scenarios,
		Months:    c.app.Months,
		Done:      c.scenariosDone,
		Total:     c.app.Scenarios,
		Rounds:    c.rounds,
		Requeues:  c.requeues,
		Makespan:  c.makespan,
		Err:       c.errMsg,
		Tenant:    c.tenant,
		WaitMs:    float64(wait) / float64(time.Millisecond),
	}
}

// subscribe registers a progress listener and replays the frames published
// so far into it. The channel is buffered; fan-out never blocks the
// dispatcher — a subscriber that stops draining loses frames, not the
// campaign (the final result travels separately on c.done).
func (c *campaign) subscribe() chan *progressFrame {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Room for the full replay plus a generous live allowance: 4 frames per
	// scenario covers chunk + requeue across several repartition rounds.
	ch := make(chan *progressFrame, len(c.history)+4*c.app.Scenarios+16)
	for _, f := range c.history {
		ch <- f // buffer holds at least len(history); cannot block
	}
	if c.subs == nil {
		c.subs = make(map[chan *progressFrame]struct{})
	}
	c.subs[ch] = struct{}{}
	return ch
}

// unsubscribe detaches a listener.
func (c *campaign) unsubscribe(ch chan *progressFrame) {
	c.mu.Lock()
	delete(c.subs, ch)
	c.mu.Unlock()
}

// snapshot copies the campaign's client-visible state, including the
// scenario-level progress gauges a polling client needs to see motion
// before the terminal state.
func (c *campaign) snapshot() *diet.CampaignResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := &diet.CampaignResult{
		ID:       c.id,
		Status:   c.status,
		Makespan: c.makespan,
		Requeues: c.requeues,
		Done:     c.scenariosDone,
		Total:    c.app.Scenarios,
		Err:      c.errMsg,
	}
	out.Reports = append(out.Reports, c.reports...)
	return out
}

// setStatus records a non-terminal transition. It yields to a terminal
// claim: a dispatcher that popped a campaign an instant before a cancel
// claimed it must not stamp "running" over the terminal status its waiters
// are about to read.
func (c *campaign) setStatus(status string) {
	c.mu.Lock()
	if !c.claimed {
		c.status = status
	}
	c.mu.Unlock()
}

// sortReports puts chunk reports in their stable, deterministic final
// order, whatever the arrival interleaving was. The sort must be stable
// with a total-order key: the same cluster can serve equal-sized chunks in
// two rounds, and an unstable (Cluster, Scenarios) sort would order those
// ties by interleaving — flaking the bit-identity tests. Round is the
// public tiebreak (a cluster serves at most one chunk per round);
// FirstScenario — unique across completed chunks, whose scenario sets are
// disjoint — backstops the key into a total order.
//
//oalint:deterministic
func sortReports(reports []diet.ExecResponse) {
	sort.SliceStable(reports, func(i, j int) bool {
		if reports[i].Cluster != reports[j].Cluster {
			return reports[i].Cluster < reports[j].Cluster
		}
		if reports[i].Scenarios != reports[j].Scenarios {
			return reports[i].Scenarios < reports[j].Scenarios
		}
		if reports[i].Round != reports[j].Round {
			return reports[i].Round < reports[j].Round
		}
		return reports[i].FirstScenario < reports[j].FirstScenario
	})
}
