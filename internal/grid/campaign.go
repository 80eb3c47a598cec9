package grid

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/store"
)

// campaign is one submitted protocol round moving through the queue. The
// progress fields (remaining, reports, round, ...) live on the campaign
// rather than in runCampaign's frame so a journal replay can rebuild a
// half-finished campaign and the dispatcher can resume it mid-flight.
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
	// tenant is the campaign's fair-queueing tenant, derived from labels at
	// admission (and re-derived on journal replay); enqueuedAt is when its
	// queue slot was taken. Both are immutable once the campaign is visible.
	tenant     string
	enqueuedAt time.Time

	// cancelCh closes when a cancel claims the campaign: in-flight SeD round
	// trips abort on it and the dispatcher stops at the next chunk boundary.
	cancelCh chan struct{}

	mu sync.Mutex
	// claimed marks the terminal transition as owned: exactly one path —
	// completion, failure, or cancel — wins claim() and drives the campaign
	// terminal; every frame publish after the claim is dropped, so a cancel
	// verdict is never followed by a chunk frame.
	claimed  bool
	status   string
	makespan float64
	reports  []diet.ExecResponse
	requeues int
	errMsg   string
	// remaining lists the scenario IDs with no completed chunk, ascending.
	remaining []int
	// round is the next repartition round's index; rounds run sequentially,
	// so the campaign makespan is the sum of per-round chunk maxima.
	round int
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
// serialized at most once however many subscribers receive it: every stream
// and every Attach replay shares the one cached encoding.
type progressFrame struct {
	u      diet.ProgressUpdate
	once   sync.Once
	enc    []byte
	encErr error
}

// encoded returns the frame's wire bytes, computing them on first use. The
// progress layout is identical across v4-v7 and decoders accept any frame
// stamped at or below their own version — so the one v4 encoding serves
// every subscriber whatever it negotiated.
func (f *progressFrame) encoded() ([]byte, error) {
	f.once.Do(func() {
		f.enc, f.encErr = diet.AppendResponseFrame(nil, &diet.Response{Version: diet.ProtocolV4, Progress: &f.u})
	})
	return f.enc, f.encErr
}

// submitMeta carries a campaign's per-submit options (control plane v2).
type submitMeta struct {
	priority int
	labels   map[string]string
	deadline time.Duration
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
		cancelCh:  make(chan struct{}),
		status:    diet.CampaignQueued,
		remaining: make([]int, app.Scenarios),
		done:      make(chan struct{}),
	}
	for i := range c.remaining {
		c.remaining[i] = i
	}
	return c
}

// recoveredCampaign rebuilds a campaign from its replayed journal state.
func recoveredCampaign(rc *store.Campaign) *campaign {
	c := &campaign{
		id:            rc.ID,
		app:           core.Application{Scenarios: rc.Scenarios, Months: rc.Months},
		heuristic:     rc.Heuristic,
		priority:      rc.Priority,
		labels:        rc.Labels,
		deadline:      rc.Deadline,
		cancelCh:      make(chan struct{}),
		status:        diet.CampaignQueued,
		makespan:      rc.Makespan,
		reports:       rc.Reports,
		requeues:      rc.Requeues,
		errMsg:        rc.Err,
		remaining:     rc.Remaining,
		round:         rc.Rounds,
		scenariosDone: rc.ScenariosDone,
		done:          make(chan struct{}),
	}
	for i := range rc.History {
		c.history = append(c.history, &progressFrame{u: rc.History[i]})
	}
	if rc.Terminal() {
		// Chunk records are journaled in arrival order; the terminal result
		// the original process served was sorted. Re-sort so a recovered
		// snapshot is byte-for-byte the one clients saw before the restart.
		sortReports(c.reports)
		c.status = rc.Status
		c.claimed = true
		if rc.Status == diet.CampaignCancelled {
			close(c.cancelCh)
		}
		close(c.done)
	}
	return c
}

// claim reserves the campaign's terminal transition; exactly one caller
// wins and must then journal the terminal record and call complete.
func (c *campaign) claim() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.claimed {
		return false
	}
	c.claimed = true
	return true
}

// signalCancel aborts the campaign's in-flight work: SeD round trips tied to
// cancelCh return immediately and the dispatcher stops at the next chunk
// boundary. Only the cancel path (which holds the terminal claim) calls it.
func (c *campaign) signalCancel() {
	close(c.cancelCh)
}

// cancelledNow reports whether a cancel has claimed the campaign.
func (c *campaign) cancelledNow() bool {
	select {
	case <-c.cancelCh:
		return true
	default:
		return false
	}
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
		Rounds:    c.round,
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

// publish records one progress frame and fans it out without blocking. A
// frame racing the terminal claim is dropped: once a cancel (or any other
// terminal transition) owns the campaign, nothing may follow its verdict on
// any stream.
//
//oalint:hotpath
func (c *campaign) publish(u diet.ProgressUpdate) {
	u.ID = c.id
	u.Total = c.app.Scenarios
	c.mu.Lock()
	if c.claimed {
		c.mu.Unlock()
		return
	}
	u.Done = c.scenariosDone
	f := &progressFrame{u: u}
	c.history = append(c.history, f)
	for ch := range c.subs {
		select {
		case ch <- f:
		default: // slow subscriber: drop the frame, keep the dispatcher live
		}
	}
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

// complete publishes the terminal state and wakes every waiter.
func (c *campaign) complete(status string, makespan float64, reports []diet.ExecResponse, requeues int, errMsg string) {
	c.mu.Lock()
	c.status = status
	c.makespan = makespan
	c.reports = reports
	c.requeues = requeues
	c.errMsg = errMsg
	c.mu.Unlock()
	close(c.done)
}

// dispatchLoop pops campaigns off the priority queue and runs them. A
// campaign cancelled while still queued is popped as a corpse: its terminal
// transition already happened on the cancel path, so the dispatcher only
// releases the queue slot.
func (s *Scheduler) dispatchLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			s.drainQueue()
			return
		case <-s.tokens:
			c := s.dequeue()
			if c.cancelledNow() {
				continue
			}
			s.noteDispatched(c)
			c.setStatus(diet.CampaignRunning)
			if !s.runCampaign(c) {
				// Cancelled mid-run: the cancel path owned the terminal
				// transition and the retention bookkeeping; release only the
				// running gauges.
				s.releaseRunning(c)
			}
		}
	}
}

// drainQueue fails everything still queued at shutdown.
func (s *Scheduler) drainQueue() {
	for {
		select {
		case <-s.tokens:
			c := s.dequeue()
			if c.cancelledNow() {
				continue
			}
			// Not a dispatch: enter the running gauges (failCampaign's finish
			// decrements them) but record no queue wait — a shutdown drain
			// must not inflate the fairness wait moments.
			s.bumpRunning(c)
			if !s.failCampaign(c, "grid: scheduler shut down", false) {
				s.releaseRunning(c)
			}
		default:
			return
		}
	}
}

// failCampaign drives a campaign to the failed state. journal records the
// failure as terminal; shutdown failures pass false, because with a state
// dir a shutdown is a pause — the journal keeps the campaign non-terminal
// and a restarted daemon re-admits it. It reports false when a cancel beat
// it to the terminal claim: the campaign is already cancelled and the
// caller backs out of its gauges.
func (s *Scheduler) failCampaign(c *campaign, msg string, journal bool) bool {
	if !c.claim() {
		return false
	}
	c.mu.Lock()
	reports := append([]diet.ExecResponse(nil), c.reports...)
	requeues := c.requeues
	c.mu.Unlock()
	// Sort the partial reports like the success path does, so a failed
	// snapshot — and its journal-recovered twin — have one canonical order.
	sortReports(reports)
	if journal {
		s.journal(store.Record{Kind: store.KindDone, ID: c.id, Status: diet.CampaignFailed, Requeues: requeues, Err: msg})
	}
	c.complete(diet.CampaignFailed, 0, reports, requeues, msg)
	s.finish(c, true)
	return true
}

// chunkReport is one dispatched chunk's outcome.
type chunkReport struct {
	ref  sedRef
	ids  []int
	resp *diet.ExecResponse
	err  error
}

// runCampaign drives one campaign to a terminal state: repartition the
// remaining scenarios over the live SeDs, dispatch the chunks under the
// per-SeD in-flight limits, and requeue chunks lost to dead daemons until
// nothing remains or the campaign deadline passes. Recovered campaigns
// resume here with their journaled remaining set and completed reports.
// It reports false when a cancel claimed the campaign out from under the
// dispatcher: in-flight chunks were abandoned, their reports discarded, and
// the caller releases the running gauge.
func (s *Scheduler) runCampaign(c *campaign) bool {
	timeout := c.deadline
	if timeout <= 0 {
		timeout = s.cfg.CampaignTimeout
	}
	deadline := time.Now().Add(timeout)

	// abortCtx aborts in-flight SeD round trips the moment the campaign is
	// cancelled — cancellation propagates to the wire, not just to the
	// dispatch loop's checkpoints. Scheduler shutdown deliberately does NOT
	// abort in-flight exchanges: a graceful Close lets them finish and bank
	// their chunks (shutdown is a pause), and aborting would shunt healthy
	// SeDs onto the death/requeue path.
	abortCtx, abort := context.WithCancel(context.Background())
	defer abort()
	go func() {
		select {
		case <-c.cancelCh:
			abort()
		case <-abortCtx.Done():
		}
	}()

	for {
		c.mu.Lock()
		remaining := append([]int(nil), c.remaining...)
		round := c.round
		c.mu.Unlock()
		if len(remaining) == 0 {
			break
		}
		if c.cancelledNow() {
			return false
		}
		select {
		case <-s.done:
			return s.failCampaign(c, "grid: scheduler shut down", false)
		default:
		}
		if time.Now().After(deadline) {
			return s.failCampaign(c, fmt.Sprintf("grid: campaign %d timed out with %d scenarios unplaced", c.id, len(remaining)), true)
		}

		if cont, ok := s.runRound(abortCtx, c, remaining, round); !cont {
			return ok
		}
	}

	if !c.claim() {
		// A cancel won the race against the last chunk boundary.
		return false
	}
	c.mu.Lock()
	reports := append([]diet.ExecResponse(nil), c.reports...)
	requeues := c.requeues
	c.mu.Unlock()

	sortReports(reports)
	makespan := diet.CampaignMakespan(reports)
	s.journal(store.Record{Kind: store.KindDone, ID: c.id, Status: diet.CampaignDone, Makespan: makespan, Requeues: requeues})
	c.complete(diet.CampaignDone, makespan, reports, requeues, "")
	s.finish(c, false)
	return true
}

// runRound runs one repartition-and-dispatch round for c over the current
// live fleet. It returns (true, _) when the outer loop should continue —
// after a completed round or an empty-pool retry backoff — and (false, ok)
// when runCampaign must return ok. The fleet snapshot is leased for exactly
// this round: the deferred releaseSeDs is what lets a draining SeD know
// when the last round that might still dispatch to it has fully processed
// its results, so scale-down can deregister without orphaning a chunk.
func (s *Scheduler) runRound(abortCtx context.Context, c *campaign, remaining []int, round int) (cont, ok bool) {
	// Steps 1-3: performance vectors from every live SeD. A daemon that
	// fails the exchange drops out of this attempt's pool.
	seds := s.aliveSeDs()
	defer s.releaseSeDs(seds)
	var pool []sedRef
	var perf [][]float64
	for _, ref := range seds {
		vec, err := s.vector(ref, len(remaining), c.app.Months, c.heuristic)
		if err != nil {
			s.markDead(ref.st, ref.info.Addr)
			continue
		}
		pool = append(pool, ref)
		perf = append(perf, vec)
	}
	if len(pool) == 0 {
		select {
		case <-s.done:
			return false, s.failCampaign(c, "grid: scheduler shut down", false)
		case <-c.cancelCh:
			return false, false
		case <-time.After(s.cfg.RetryEvery):
		}
		return true, false
	}

	// Step 4: Algorithm-1 repartition of the remaining scenarios.
	rep, err := core.Repartition(perf)
	if err != nil {
		return false, s.failCampaign(c, err.Error(), true)
	}
	chunks := make([][]int, len(pool))
	for slot, cl := range rep.Assignment {
		chunks[cl] = append(chunks[cl], remaining[slot])
	}
	planned := make([]diet.PlannedChunk, 0, len(pool))
	for i, ref := range pool {
		if len(chunks[i]) > 0 {
			planned = append(planned, diet.PlannedChunk{Cluster: ref.info.Cluster, Scenarios: len(chunks[i])})
		}
	}
	s.journal(store.Record{Kind: store.KindPlanned, ID: c.id, Round: round, Planned: planned})
	c.publish(diet.ProgressUpdate{Stage: diet.StagePlanned, Planned: planned})

	// Steps 5-6: dispatch every chunk concurrently, each behind its
	// SeD's in-flight semaphore.
	results := make(chan chunkReport, len(pool))
	launched := 0
	for i, ref := range pool {
		if len(chunks[i]) == 0 {
			continue
		}
		launched++
		go s.dispatchChunk(abortCtx, c, ref, chunks[i], results)
	}
	cancelled := false
	for ; launched > 0; launched-- {
		r := <-results
		if c.cancelledNow() {
			// Cancelled mid-round: drain the remaining chunks (their
			// round trips abort on abortCtx) and discard everything —
			// including genuine results, which must not surface as chunk
			// frames after the cancel verdict. The SeD is not marked
			// dead for an abort-induced error.
			cancelled = true
			continue
		}
		if r.err != nil {
			// The chunk's scenarios stay on the campaign's plate and
			// will be re-repartitioned over the survivors. WAL first:
			// the requeue is fsynced before it shows up in snapshots.
			s.markDead(r.ref.st, r.ref.info.Addr)
			s.journal(store.Record{Kind: store.KindRequeue, ID: c.id, Requeued: len(r.ids)})
			c.mu.Lock()
			if c.claimed {
				c.mu.Unlock()
				cancelled = true
				continue
			}
			c.requeues++
			c.mu.Unlock()
			s.mu.Lock()
			s.requeues++
			s.mu.Unlock()
			c.publish(diet.ProgressUpdate{Stage: diet.StageRequeue, Requeued: len(r.ids)})
			continue
		}
		// Stamp the chunk with its provenance: the round (makespan
		// accounting) and its lowest scenario ID (the report-order
		// tiebreak). IDs are dispatched ascending, so ids[0] is the
		// minimum. WAL discipline: the chunk is fsynced before it
		// becomes visible to snapshots or subscribers, so progress a
		// polling client observed can never regress across a restart.
		// The acceptance is claim-guarded under c.mu: once a cancel owns
		// the campaign, snapshots are frozen — a straggler's journal
		// record is harmless on replay (terminal status wins), but its
		// report must never surface after the cancel verdict.
		r.resp.Round = round
		r.resp.FirstScenario = r.ids[0]
		s.journal(store.Record{Kind: store.KindChunk, ID: c.id, Chunk: r.resp, IDs: r.ids})
		c.mu.Lock()
		if c.claimed {
			c.mu.Unlock()
			cancelled = true
			continue
		}
		c.reports = append(c.reports, *r.resp)
		c.scenariosDone += r.resp.Scenarios
		c.remaining = store.Without(c.remaining, r.ids)
		c.mu.Unlock()
		c.publish(diet.ProgressUpdate{Stage: diet.StageChunk, Chunk: r.resp})
	}
	if cancelled || c.cancelledNow() {
		return false, false
	}
	c.mu.Lock()
	c.round++
	c.mu.Unlock()
	return true, false
}

// sortReports puts chunk reports in their stable, deterministic final
// order, whatever the arrival interleaving was. The sort must be stable
// with a total-order key: the same cluster can serve equal-sized chunks in
// two rounds, and an unstable (Cluster, Scenarios) sort would order those
// ties by interleaving — flaking the bit-identity tests. Round is the
// public tiebreak (a cluster serves at most one chunk per round, and the
// Local runner sorts its reports the same way); FirstScenario — unique
// across completed chunks, whose scenario sets are disjoint — backstops
// the key into a total order.
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

// dispatchChunk sends one cluster its scenario share (protocol step 5) and
// reports the execution answer (step 6). ctx aborts the round trip when the
// campaign is cancelled or the scheduler shuts down, so a cancel never waits
// out a slow SeD.
func (s *Scheduler) dispatchChunk(ctx context.Context, c *campaign, ref sedRef, ids []int, out chan<- chunkReport) {
	select {
	case ref.st.sem <- struct{}{}:
		defer func() { <-ref.st.sem }()
	case <-ctx.Done():
		out <- chunkReport{ref: ref, ids: ids, err: fmt.Errorf("grid: chunk dispatch aborted: %w", ctx.Err())}
		return
	case <-s.done:
		out <- chunkReport{ref: ref, ids: ids, err: fmt.Errorf("grid: scheduler shut down")}
		return
	}
	resp, err := diet.RoundTripContext(ctx, ref.info.Addr, &diet.Request{Version: diet.ProtocolVersion, Kind: diet.KindExec, Exec: &diet.ExecRequest{
		ScenarioIDs: ids,
		Months:      c.app.Months,
		Heuristic:   c.heuristic,
	}}, sedCallTimeout)
	if err != nil {
		out <- chunkReport{ref: ref, ids: ids, err: err}
		return
	}
	if resp.Exec == nil {
		out <- chunkReport{ref: ref, ids: ids, err: fmt.Errorf("grid: SeD %s returned no execution report", ref.info.Cluster)}
		return
	}
	out <- chunkReport{ref: ref, ids: ids, resp: resp.Exec}
}
