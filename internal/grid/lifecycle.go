package grid

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/store"
)

// target is one place a repartition round can put a chunk: a SeD of the
// daemon's pool, or a cluster of the in-process fleet.
type target interface {
	// cluster names the target. Names order a round's targets (the
	// repartition's tie-break), label its planned and chunk records, and key
	// the vector cache.
	cluster() string
}

// executor is the one seam between the campaign lifecycle and the place
// its evaluation happens. It answers only what differs between a daemon's
// SeD pool and the in-process engine; everything else — admission record,
// claim-guarded terminal transitions, round loop, chunk acceptance,
// journal, vector cache, report order, retention — is the lifecycle's and
// exists once. Tests substitute a scripted executor here.
type executor interface {
	// lease snapshots the targets the next round may use, in cluster-name
	// order. release is called once, after the round has fully processed
	// its results.
	lease() (targets []target, release func())
	// perf evaluates t's performance vector for n scenarios (Figure 9,
	// steps 1-3).
	perf(ctx context.Context, t target, n, months int, heuristic string) ([]float64, error)
	// run evaluates the scenarios ids on t (steps 5-6).
	run(ctx context.Context, t target, ids []int, months int, heuristic string) (*diet.ExecResponse, error)
	// lost classifies a failed perf or run. True: t is gone — the executor
	// has taken it out of future leases — and the work goes back to the
	// campaign to be re-repartitioned over the rest. False: the failure is
	// the campaign's own and ends it.
	lost(t target, err error) bool
}

// vecKey identifies a cached performance vector of one target. Entry k-1
// of a vector is the makespan of k scenarios — independent of how many
// scenarios the campaign that fetched it had — so the cache keys on
// (months, heuristic) and keeps the longest vector seen per target.
type vecKey struct {
	months    int
	heuristic string
}

// shutdownMsg is the failure reason of a campaign this process stopped
// serving without ending it.
const shutdownMsg = "grid: scheduler shut down"

// lifecycle is the campaign core: the campaign table with its retention
// order, the journal, the vector cache and the Figure-9 round loop, run
// against an executor. A Scheduler is a lifecycle behind a listener, an
// admission queue and a dispatcher pool, with its SeD table as the
// executor; a Local is a lifecycle that runs every admitted campaign at
// once on the in-process engine.
type lifecycle struct {
	exec  executor
	store *store.Store // nil without a state dir
	// walErrors counts mid-run journal appends that failed and were
	// swallowed (see journal).
	walErrors atomic.Uint64
	// keepFinished caps how many terminal campaigns stay in the table.
	keepFinished int
	// timeout bounds a campaign that carries no deadline of its own; zero
	// leaves it unbounded.
	timeout time.Duration
	// retryEvery paces a campaign's retries while a lease comes back empty.
	retryEvery time.Duration
	// onSettle, when set, is told each campaign's terminal status by the
	// path that won its terminal claim, with mu held.
	onSettle func(c *campaign, status string)

	// mu guards the fields below — and, in a Scheduler, its queue, tenant
	// and SeD tables too: one lock, never held across a journal append.
	mu        sync.Mutex
	campaigns map[uint64]*campaign
	// keys indexes the table's keyed campaigns by submission key. A live
	// admission enters it before its record is journaled and the table
	// after, so a resent submit that races the journal write finds it
	// there and waits (Scheduler.byKey).
	keys      map[diet.SubmitKey]*campaign
	doneOrder []uint64
	nextID    uint64
	requeues  uint64
	// vectors is the performance-vector cache, by target name. A target
	// whose capability changes is invalidated by name (Scheduler.register).
	vectors map[string]map[vecKey][]float64
}

// tenantOf resolves a campaign's tenant from its labels under the given
// label key.
func tenantOf(labels map[string]string, key string) string {
	if name := labels[key]; name != "" {
		return name
	}
	return DefaultTenant
}

// rotateBytes is the live journal segment's size past which the next append
// checkpoints it down to the retained campaigns' records, so a long-lived
// process's campaigns.wal stays bounded between restarts, not just across
// them.
const rotateBytes = 4 << 20

// recover opens the journal under dir and replays it into the campaign
// table: terminal campaigns come back under their original IDs, the
// retention cap is applied, and the journal is compacted down to what
// survived and armed for online rotation. Tenants are re-derived from the
// journaled labels under tenantKey. It returns the non-terminal campaigns in
// admission order for the caller to re-admit. It must run before anything
// can append: a campaign admitted while the table is still filling would be
// missing from the compaction's retention set.
func (k *lifecycle) recover(dir string, tenantKey string) ([]*campaign, error) {
	st, byID, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	k.store = st
	k.nextID = store.MaxID(byID)
	recovered := store.ByID(byID)
	var live []*campaign
	for _, rc := range recovered {
		c := recoveredCampaign(rc)
		c.tenant = tenantOf(c.labels, tenantKey)
		k.install(c)
		if rc.Terminal() {
			k.retire(c)
		} else {
			live = append(live, c)
		}
	}
	// Retention prunes the table, rotation prunes the file: without the
	// prune above, replay would resurrect campaigns forgotten before the
	// restart; without a rotation now, the WAL would grow without bound
	// across restarts. The retain snapshot takes mu, which is safe because
	// nothing appends to the journal while holding it.
	st.AutoRotate(rotateBytes, k.retainedIDs)
	if len(recovered) > 0 {
		// Best-effort: a failed rewrite leaves the previous journal in place,
		// which replays to at least this state.
		_ = st.Rotate()
	}
	return live, nil
}

// journalAdmission makes c's admission durable. Unlike every later record
// its error is returned: an ID the client holds must always be recoverable,
// so an admission that cannot be journaled is refused. The submit options
// ride along, so re-admission after a restart keeps them.
func (k *lifecycle) journalAdmission(c *campaign) error {
	if k.store == nil {
		return nil
	}
	return k.store.Append(store.Record{
		Kind:      store.KindAdmitted,
		ID:        c.id,
		Scenarios: c.app.Scenarios,
		Months:    c.app.Months,
		Heuristic: c.heuristic,
		Priority:  c.priority,
		Labels:    c.labels,
		Deadline:  c.deadline,
		Key:       c.key,
	})
}

// journal appends one mid-run record to the campaign WAL; a no-op without a
// state dir. A failed append is counted and otherwise swallowed: losing a
// journal line only costs re-execution of the affected scenarios after a
// restart, while failing the live campaign would turn a disk hiccup into
// lost work now.
func (k *lifecycle) journal(rec store.Record) {
	if k.store == nil {
		return
	}
	if err := k.store.Append(rec); err != nil {
		k.walErrors.Add(1)
	}
}

// record is the live path of every transition after admission: WAL first —
// rec is fsynced before it shows up in snapshots or on any stream, so
// progress a polling client observed can never regress across a restart —
// then the one fold. It reports whether rec took effect; false means a
// terminal transition owns the campaign and rec's journal line is a
// straggler every replay drops.
func (k *lifecycle) record(c *campaign, rec store.Record) bool {
	k.journal(rec)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.apply(&rec)
}

// retainedIDs snapshots the campaign table's keys — the journal rotation's
// retention set. Runs under the store's lock; safe because nothing journals
// while holding mu.
func (k *lifecycle) retainedIDs() []uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	ids := make([]uint64, 0, len(k.campaigns))
	for id := range k.campaigns {
		ids = append(ids, id)
	}
	return ids
}

// install puts c in the campaign table and its submission key in the key
// index: the one way into the table for a live admission, a recovered
// campaign and an adopted one, so the three rebuild the index alike. An
// entry leaves the index when retention prunes its campaign from the table
// (retire). Callers hold mu.
func (k *lifecycle) install(c *campaign) {
	k.campaigns[c.id] = c
	k.index(c)
}

// index files c under its key, unless it has none or the key already names
// a campaign. Callers hold mu.
func (k *lifecycle) index(c *campaign) {
	if c.key.IsZero() {
		return
	}
	if k.keys == nil {
		k.keys = make(map[diet.SubmitKey]*campaign)
	}
	if k.keys[c.key] == nil {
		k.keys[c.key] = c
	}
}

// unindex drops c's key entry if it is c's. Callers hold mu.
func (k *lifecycle) unindex(c *campaign) {
	if !c.key.IsZero() && k.keys[c.key] == c {
		delete(k.keys, c.key)
	}
}

// lookup returns a campaign by ID.
func (k *lifecycle) lookup(id uint64) *campaign {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.campaigns[id]
}

// retire appends a terminal campaign to the retention order and prunes past
// the cap. Callers hold mu.
func (k *lifecycle) retire(c *campaign) {
	k.doneOrder = append(k.doneOrder, c.id)
	for len(k.doneOrder) > k.keepFinished {
		if old := k.campaigns[k.doneOrder[0]]; old != nil {
			k.unindex(old)
		}
		delete(k.campaigns, k.doneOrder[0])
		k.doneOrder = k.doneOrder[1:]
	}
}

// settle closes the books on a campaign that just reached status; the
// winner of the campaign's terminal claim calls it, once.
func (k *lifecycle) settle(c *campaign, status string) {
	k.mu.Lock()
	if k.onSettle != nil {
		k.onSettle(c, status)
	}
	k.retire(c)
	k.mu.Unlock()
}

// vector returns t's performance vector for n scenarios, from the cache
// when it holds one long enough.
func (k *lifecycle) vector(ctx context.Context, t target, n, months int, heuristic string) ([]float64, error) {
	name := t.cluster()
	key := vecKey{months: months, heuristic: heuristic}
	k.mu.Lock()
	if v := k.vectors[name][key]; len(v) >= n {
		k.mu.Unlock()
		return v[:n:n], nil
	}
	k.mu.Unlock()

	vec, err := k.exec.perf(ctx, t, n, months, heuristic)
	if err != nil {
		return nil, err
	}
	if len(vec) < n {
		return nil, fmt.Errorf("grid: %s returned a short vector", name)
	}
	k.mu.Lock()
	cached := k.vectors[name]
	if cached == nil {
		cached = make(map[vecKey][]float64)
		k.vectors[name] = cached
	}
	if len(vec) > len(cached[key]) {
		cached[key] = vec
	}
	k.mu.Unlock()
	return vec[:n:n], nil
}

// end is the one terminal transition: it drives c to status from wherever
// that was decided — the run loop once nothing remains or at a round
// boundary, a cancel, an in-process pause or deadline. Exactly one caller
// per campaign wins the claim, which stops the campaign's work. The winner
// makes the outcome durable, settles the campaign table, and only then
// applies the terminal record and wakes the waiters — so whoever sees the
// outcome, on a result or in a poll, finds retention already applied.
// journal is false for a pause: the terminal record is applied but not
// written, so this process stops serving the campaign while its journal
// stays non-terminal and the next open resumes it. end reports false when
// another terminal transition beat it to the claim.
func (k *lifecycle) end(c *campaign, status, msg string, journal bool) bool {
	if !c.claim() {
		return false
	}
	c.mu.Lock()
	rec := store.Record{Kind: store.KindDone, ID: c.id, Status: status, Requeues: c.requeues, Err: msg}
	if status == diet.CampaignDone {
		rec.Makespan = diet.CampaignMakespan(c.reports)
	}
	c.mu.Unlock()
	if status == diet.CampaignCancelled {
		rec = store.Record{Kind: store.KindCancelled, ID: c.id}
	}
	if journal {
		k.journal(rec)
	}
	k.settle(c, status)
	c.mu.Lock()
	c.paused = !journal
	c.apply(&rec)
	c.mu.Unlock()
	close(c.done)
	return true
}

// Cancel ends a campaign by ID: a queued campaign never dispatches, a
// running one stops cooperatively at the next chunk boundary — its in-flight
// exchanges are abandoned and their reports discarded, so no chunk frame
// follows the verdict. The cancellation is journaled terminally before the
// verdict is returned (WAL-before-ack): a cancelled campaign stays cancelled
// across a kill -9 restart and is never re-admitted by replay. found=false
// means the ID is unknown; status is the campaign's state after the verdict
// — cancelling an already-terminal campaign is a no-op that reports the
// terminal state that won.
func (k *lifecycle) Cancel(id uint64) (found bool, status string) {
	c := k.lookup(id)
	if c == nil {
		return false, ""
	}
	if k.end(c, diet.CampaignCancelled, "", true) {
		return true, diet.CampaignCancelled
	}
	// Some other terminal transition owns the campaign; its status is the
	// verdict. The loser of a claim race may observe the winner's fields
	// only after its terminal record is applied, so wait for the terminal
	// state.
	<-c.done
	if c.takePause() {
		// Terminal only in this process: the journal is non-terminal and the
		// next open would resume the campaign. The cancel must still make
		// the stop durable.
		k.journal(store.Record{Kind: store.KindCancelled, ID: id})
	}
	return true, c.snapshot().Status
}

// table snapshots the campaign table in admission (ID) order.
func (k *lifecycle) table() []*campaign {
	k.mu.Lock()
	all := make([]*campaign, 0, len(k.campaigns))
	for _, c := range k.campaigns {
		all = append(all, c)
	}
	k.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	return all
}

// list enumerates the campaign table, filtered by status and label subset
// when the request carries them. queuePos gives the queued campaigns'
// dispatch positions (nil where nothing queues).
func (k *lifecycle) list(req *diet.ListCampaignsRequest, queuePos map[uint64]int) []diet.CampaignInfo {
	all := k.table()
	out := make([]diet.CampaignInfo, 0, len(all))
	for _, c := range all {
		info := c.info()
		info.QueuePos = queuePos[c.id]
		if req != nil && req.Status != "" && info.Status != req.Status {
			continue
		}
		if req != nil && !diet.LabelsMatch(info.Labels, req.Labels) {
			continue
		}
		out = append(out, info)
	}
	return out
}

// follow delivers c's progress frames from sub to onProgress until the
// campaign ends, then returns its terminal snapshot with the matching typed
// error. ctx abandons only the following, not the campaign.
func (k *lifecycle) follow(ctx context.Context, c *campaign, sub chan *progressFrame, onProgress func(*diet.ProgressUpdate)) (*diet.CampaignResult, error) {
	if onProgress == nil {
		onProgress = func(*diet.ProgressUpdate) {}
	}
	for {
		select {
		case f := <-sub:
			onProgress(&f.u)
		case <-c.done:
			// Drain the frames published before completion so the stream is
			// gapless (this is sub's only receiver, so len is a safe bound).
			for len(sub) > 0 {
				onProgress(&(<-sub).u)
			}
			res := c.snapshot()
			return res, resultErr(res)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// resultErr types a terminal campaign snapshot: nil for a finished
// campaign, the matching sentinel for a failed or cancelled one.
func resultErr(res *diet.CampaignResult) error {
	switch res.Status {
	case diet.CampaignFailed:
		return fmt.Errorf("%w: campaign %d: %s", ErrCampaignFailed, res.ID, res.Err)
	case diet.CampaignCancelled:
		return fmt.Errorf("%w: campaign %d", ErrCampaignCancelled, res.ID)
	}
	return nil
}

// chunkReport is one dispatched chunk's outcome.
type chunkReport struct {
	t    target
	ids  []int
	resp *diet.ExecResponse
	err  error
}

// runCampaign drives one campaign to a terminal state: repartition the
// remaining scenarios over the leased targets, dispatch the chunks, and
// requeue chunks lost with their target until nothing remains or the
// campaign deadline passes. Recovered campaigns resume here with their
// journaled remaining set and completed reports. pause closes when this
// process stops serving campaigns (nil: never); it is honoured at round
// boundaries, so exchanges already in flight finish and bank their chunks.
// runCampaign returns with the campaign terminal — driven there by itself
// or by whichever path claimed it first.
func (k *lifecycle) runCampaign(c *campaign, pause <-chan struct{}) {
	timeout := c.deadline
	if timeout <= 0 {
		timeout = k.timeout
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}

	// abortCtx aborts in-flight exchanges the moment the campaign is ended
	// from outside this loop. A pause deliberately does NOT abort them:
	// aborting would shunt healthy SeDs onto the death/requeue path.
	abortCtx, abort := context.WithCancel(context.Background())
	defer abort()
	go func() {
		select {
		case <-c.abortCh:
			abort()
		case <-abortCtx.Done():
		}
	}()

	for {
		c.mu.Lock()
		remaining := append([]int(nil), c.remaining...)
		round := c.rounds
		c.mu.Unlock()
		if len(remaining) == 0 {
			break
		}
		if c.aborted() {
			return
		}
		select {
		case <-pause:
			k.end(c, diet.CampaignFailed, shutdownMsg, false)
			return
		default:
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			k.end(c, diet.CampaignFailed, c.timedOut(), true)
			return
		}
		if !k.runRound(abortCtx, c, pause, remaining, round) {
			return
		}
	}

	// Nothing remains: done — unless an outside transition won the race
	// against the last chunk boundary.
	k.end(c, diet.CampaignDone, "", true)
}

// runRound runs one repartition-and-dispatch round for c over the leased
// targets. It reports whether the outer loop should continue — after a
// completed round or an empty-lease retry backoff; false means the campaign
// is terminal. The lease lasts exactly this round: the deferred release is
// what lets a draining SeD know when the last round that might still
// dispatch to it has fully processed its results, so scale-down can
// deregister without orphaning a chunk.
func (k *lifecycle) runRound(abortCtx context.Context, c *campaign, pause <-chan struct{}, remaining []int, round int) bool {
	// Steps 1-3: performance vectors from every leased target. A target
	// lost in the exchange drops out of this attempt's pool.
	targets, release := k.exec.lease()
	defer release()
	var pool []target
	var perf [][]float64
	for _, t := range targets {
		vec, err := k.vector(abortCtx, t, len(remaining), c.app.Months, c.heuristic)
		if err != nil {
			if k.exec.lost(t, err) {
				continue
			}
			k.end(c, diet.CampaignFailed, err.Error(), true)
			return false
		}
		pool = append(pool, t)
		perf = append(perf, vec)
	}
	if len(pool) == 0 {
		select {
		case <-pause:
			k.end(c, diet.CampaignFailed, shutdownMsg, false)
			return false
		case <-c.abortCh:
			return false
		case <-time.After(k.retryEvery):
		}
		return true
	}

	// Step 4: Algorithm-1 repartition of the remaining scenarios, slots
	// assigned in ascending ID order.
	rep, err := core.Repartition(perf)
	if err != nil {
		k.end(c, diet.CampaignFailed, err.Error(), true)
		return false
	}
	chunks := make([][]int, len(pool))
	for slot, cl := range rep.Assignment {
		chunks[cl] = append(chunks[cl], remaining[slot])
	}
	planned := make([]diet.PlannedChunk, 0, len(pool))
	for i, t := range pool {
		if len(chunks[i]) > 0 {
			planned = append(planned, diet.PlannedChunk{Cluster: t.cluster(), Scenarios: len(chunks[i])})
		}
	}
	k.record(c, store.Record{Kind: store.KindPlanned, ID: c.id, Round: round, Planned: planned})

	// Steps 5-6: run every chunk concurrently, one goroutine per loaded
	// target.
	results := make(chan chunkReport, len(pool))
	launched := 0
	for i, t := range pool {
		if len(chunks[i]) == 0 {
			continue
		}
		launched++
		go k.runChunk(abortCtx, c, t, chunks[i], results)
	}
	for ; launched > 0; launched-- {
		r := <-results
		if c.aborted() {
			// Ended mid-round: drain the remaining chunks (their exchanges
			// abort on abortCtx) and discard everything — including genuine
			// results, which must not surface as chunk frames after the
			// verdict. No target is blamed for an abort-induced error.
			continue
		}
		if r.err != nil {
			if !k.exec.lost(r.t, r.err) {
				k.end(c, diet.CampaignFailed, r.err.Error(), true)
				continue
			}
			// The chunk's scenarios stay on the campaign's plate and will be
			// re-repartitioned over the survivors.
			if k.record(c, store.Record{Kind: store.KindRequeue, ID: c.id, Requeued: len(r.ids)}) {
				k.mu.Lock()
				k.requeues++
				k.mu.Unlock()
			}
			continue
		}
		// Stamp the chunk with its provenance: the round (makespan
		// accounting) and its lowest scenario ID (the report-order
		// tiebreak). IDs are dispatched ascending, so ids[0] is the minimum.
		r.resp.Round = round
		r.resp.FirstScenario = r.ids[0]
		k.record(c, store.Record{Kind: store.KindChunk, ID: c.id, Chunk: r.resp, IDs: r.ids})
	}
	// A record dropped because a terminal transition claimed the campaign
	// closed the abort channel with that claim.
	return !c.aborted()
}

// runChunk hands one target its scenario share (protocol step 5) and
// reports the execution answer (step 6). ctx aborts the exchange when the
// campaign is ended from outside its run loop.
func (k *lifecycle) runChunk(ctx context.Context, c *campaign, t target, ids []int, out chan<- chunkReport) {
	resp, err := k.exec.run(ctx, t, ids, c.app.Months, c.heuristic)
	out <- chunkReport{t: t, ids: ids, resp: resp, err: err}
}
