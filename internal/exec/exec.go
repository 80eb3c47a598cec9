// Package exec is the event-driven executor behind every measured makespan:
// it replays an allocation on a virtual cluster with the dispatch rule of the
// paper's §4.3 — "sorting the ready time of each group of processors and when
// a group becomes ready, the month of the less advanced simulation waiting is
// scheduled on this group" — and lets post tasks run on dedicated processors,
// on processors of transiently idle groups (the model's Rleft absorption),
// and after the main tasks.
//
// The executor is the ground truth the analytical model (internal/core) is
// validated against, and the evaluator used to build the performance vectors
// of the grid repartition.
//
// A run's state lives in an engine taken from a package-level pool and fully
// reset before use, so a warm run allocates nothing that grows with the
// allocation or the months, and its Result is bit-identical to that of a
// fresh engine whatever the previous run left behind.
//
//oalint:deterministic
package exec

import (
	"fmt"
	"math"
	"sync"

	"oagrid/internal/core"
	"oagrid/internal/platform"
	"oagrid/internal/trace"
)

// Policy selects which ready scenario an idle group serves next.
type Policy int

const (
	// LeastAdvanced is the paper's fairness rule: serve the scenario with the
	// fewest completed months (ties by scenario index).
	LeastAdvanced Policy = iota
	// RoundRobin serves ready scenarios in first-ready-first-served order.
	RoundRobin
	// MostAdvanced serves the scenario with the most completed months; it
	// finishes scenarios one after the other and exists for the fairness
	// ablation.
	MostAdvanced
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case LeastAdvanced:
		return "least-advanced"
	case RoundRobin:
		return "round-robin"
	case MostAdvanced:
		return "most-advanced"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options tunes a run.
type Options struct {
	// Policy is the scenario dispatch rule; the zero value is the paper's.
	Policy Policy
	// Jitter, when positive, perturbs every task duration by a deterministic
	// pseudo-random factor in [1−Jitter, 1+Jitter]. The perturbation of a
	// task depends only on (Seed, scenario, month, kind), so different
	// heuristics face identical noise — the ablation A4 relies on this.
	// It must lie in [0, 1]: a factor below 0 would end a task before it
	// starts (Validate).
	Jitter float64
	// Seed selects the jitter stream.
	Seed uint64
	// RecordTrace enables span recording (costs memory on large runs).
	RecordTrace bool
	// NoIdleSteal forbids idle group processors from absorbing post tasks,
	// leaving posts to dedicated processors and the end-of-run drain only.
	NoIdleSteal bool
	// Failures injects group outages: while a window is open the group's
	// processors are down, and a main task caught running is lost and
	// re-executed from the recovery point — the behaviour of a node crash
	// with restart-file recovery on the real grid. Post tasks are short and
	// assumed to be retried for free.
	Failures []Failure
	// StickyDispatch switches to the literal reading of the paper's rule
	// where a scenario finishing at the very instant a group frees competes
	// immediately. With unequal group sizes that reading is pathological:
	// the scenario that just left the slow group is the least advanced, so
	// the slow group re-takes it forever and its serial chain dominates the
	// makespan. The default therefore serves scenarios that were already
	// waiting before the group freed ("the less advanced simulation
	// *waiting*", §4.3) and falls back to same-instant arrivals only when no
	// earlier one exists. See the scheduling-pathology note in EXPERIMENTS.md.
	StickyDispatch bool
}

// Validate reports an option set Run cannot execute: a Jitter that is not a
// finite number in [0, 1], or a failure window that does not end (a main
// caught by it would never finish).
func (o Options) Validate() error {
	if !(o.Jitter >= 0 && o.Jitter <= 1) {
		return fmt.Errorf("exec: jitter %g outside [0, 1]", o.Jitter)
	}
	for _, f := range o.Failures {
		if end := f.At + f.Duration; math.IsNaN(end) || math.IsInf(end, 0) {
			return fmt.Errorf("exec: failure window [%g, +%g] on group %d does not end", f.At, f.Duration, f.Group)
		}
	}
	return nil
}

// Failure is one group outage window.
type Failure struct {
	// Group indexes the allocation's group list.
	Group int
	// At is the outage start in seconds; Duration its length.
	At, Duration float64
}

// Result summarizes a run.
type Result struct {
	// Makespan is the completion time of the last task.
	Makespan float64
	// MainsDone is the completion time of the last main task.
	MainsDone float64
	// BusyProcSeconds accumulates processors × seconds of actual work.
	BusyProcSeconds float64
	// Utilization is BusyProcSeconds / (procs × Makespan).
	Utilization float64
	// RestartedMains counts main tasks lost to injected failures and re-run.
	RestartedMains int
	// Trace is non-nil when Options.RecordTrace was set.
	Trace *trace.Trace
}

type scenarioState struct {
	monthsDone int
	readyAt    float64 // when the next main may start
	running    bool
	finished   bool
	readySeq   int // FIFO ticket for the round-robin policy
	postsTaken int // posts dequeued so far: the month of the next one
}

type group struct {
	id      int
	size    int
	mainDur float64   // unperturbed duration of a main task on this group
	freeAt  float64   // when the group finishes its current main
	busy    bool      // a main task is committed to the group
	procEnd []float64 // per-processor end of borrowed post work
	idleSeq int       // FIFO ticket: order in which groups went idle
}

// borrowEnd returns when the latest borrowed post on the group finishes.
func (g *group) borrowEnd() float64 {
	end := 0.0
	for _, e := range g.procEnd {
		if e > end {
			end = e
		}
	}
	return end
}

// eventKind says what a popped event completes.
type eventKind uint8

const (
	mainDone eventKind = iota // scenario s's running main finished on group g
	postDone                  // a post task finished
	wakeUp                    // a waiting scenario became ready
)

// event is one pending completion, held by value in the engine's heap.
type event struct {
	at   float64
	seq  uint64 // push order: same-time events fire first-in first-out
	kind eventKind
	g, s int
}

// before is the heap order: by time, then by push order. seq is unique, so
// the order is total and every run pops the same sequence.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// engine is one run's state. Engines are pooled (enginePool): every slice
// keeps its backing array, at its high-water mark, from one run to the next,
// and reset rebuilds every other field.
type engine struct {
	app    core.Application
	opt    Options
	groups []group
	// slots holds every processor's busy-until time: the dedicated post
	// processors (postEnd) first, then each group's processors (procEnd).
	slots   []float64
	postEnd []float64 // dedicated post processors: busy-until times
	scen    []scenarioState
	// queue holds one scenario index per ready post task, FIFO from
	// queueHead on. A scenario's posts are queued in month order, so its
	// next one is post(s, postsTaken): four bytes per entry, since under
	// post-processor contention the backlog grows with the run.
	queue []int32
	// queueHead is the FIFO's consumed prefix: popping advances the index
	// instead of re-slicing. The backing array outlives the run: it is
	// rewound when the queue drains and at the next run's reset, so a
	// backlog reallocates only past the largest one a pooled engine has
	// held.
	queueHead int
	tr        *trace.Trace

	// The event loop: a binary min-heap of event values in (at, seq) order,
	// the clock (time of the last popped event) and the push counter.
	events []event
	now    float64
	seq    uint64

	mainsLeft  int // mains not yet dispatched
	postsLeft  int // posts not yet completed
	restarts   int // mains lost to injected failures
	idleTicket int
	readySeq   int
	busyAccum  float64
	mainsDone  float64
	postDur    float64

	idleScratch []*group // reused by idleGroups across dispatches
}

// enginePool holds engines between runs; reset makes a pooled engine
// indistinguishable from a new one.
var enginePool = sync.Pool{New: func() any { return new(engine) }}

// Run executes the allocation and returns the measured makespan. Its state
// comes from enginePool and goes back to it: the Result, Trace included,
// never aliases pooled memory.
//
//oalint:hotpath
func Run(app core.Application, t platform.Timing, procs int, alloc core.Allocation, opt Options) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	if err := alloc.Validate(app, t, procs); err != nil {
		return Result{}, err
	}
	e := enginePool.Get().(*engine)
	res, err := e.exec(app, t, procs, alloc, opt)
	// Drop what the caller owns (the failure windows, the returned trace)
	// so the idle engine pins nothing of theirs.
	e.opt, e.tr = Options{}, nil
	enginePool.Put(e)
	return res, err
}

// exec resets e for one run of the allocation and runs it.
//
//oalint:hotpath
func (e *engine) exec(app core.Application, t platform.Timing, procs int, alloc core.Allocation, opt Options) (Result, error) {
	e.reset(app, t, alloc, opt)
	off := alloc.PostProcs
	for i, size := range alloc.Groups {
		dur, err := t.MainSeconds(size)
		if err != nil {
			return Result{}, err
		}
		e.groups[i] = group{
			id:      i,
			size:    size,
			mainDur: dur,
			procEnd: e.slots[off : off+size : off+size],
		}
		off += size
	}
	e.dispatch(0)
	end := e.run()
	if e.mainsLeft != 0 || e.postsLeft != 0 {
		return Result{}, fmt.Errorf("exec: deadlock with %d mains and %d posts outstanding", e.mainsLeft, e.postsLeft)
	}
	res := Result{
		Makespan:        end,
		MainsDone:       e.mainsDone,
		BusyProcSeconds: e.busyAccum,
		RestartedMains:  e.restarts,
		Trace:           e.tr,
	}
	if end > 0 {
		res.Utilization = e.busyAccum / (float64(procs) * end)
	}
	return res, nil
}

// reset readies e for a run: every field a run reads is rebuilt from the
// arguments or zeroed, and only the slices' backing arrays survive, cleared.
// The groups are filled by exec.
//
//oalint:hotpath
func (e *engine) reset(app core.Application, t platform.Timing, alloc core.Allocation, opt Options) {
	slots := resize(e.slots, alloc.UsedProcs())
	groups := resize(e.groups, len(alloc.Groups))
	*e = engine{
		app:         app,
		opt:         opt,
		groups:      groups,
		slots:       slots,
		postEnd:     slots[:alloc.PostProcs:alloc.PostProcs],
		scen:        resize(e.scen, app.Scenarios),
		queue:       e.queue[:0],
		events:      e.events[:0],
		mainsLeft:   app.Tasks(),
		postsLeft:   app.Tasks(),
		postDur:     t.PostSeconds(),
		idleScratch: resize(e.idleScratch, len(groups))[:0],
	}
	if opt.RecordTrace {
		e.tr = &trace.Trace{}
	}
}

// resize returns s with length n and every element zero, reusing its
// backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		//oalint:allow hotpath a pooled engine grows past its high-water mark once
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// run fires events in (at, seq) order until none remain and returns the
// clock: the time of the last event, or 0 when none fired.
//
//oalint:hotpath
func (e *engine) run() float64 {
	for len(e.events) > 0 {
		ev := e.pop()
		switch ev.kind {
		case mainDone:
			e.finishMain(ev.at, &e.groups[ev.g], ev.s)
		case postDone:
			e.postsLeft--
			e.dispatch(ev.at)
		case wakeUp:
			e.dispatch(ev.at)
		}
	}
	return e.now
}

// push schedules ev. An event before the clock, or at a NaN or infinite
// time, breaks an invariant: task durations are finite and non-negative
// once Options.Validate has passed.
//
//oalint:hotpath
func (e *engine) push(ev event) {
	if ev.at < e.now || math.IsNaN(ev.at) || math.IsInf(ev.at, 0) {
		panic(fmt.Errorf("exec: event at %g scheduled at now %g", ev.at, e.now))
	}
	ev.seq = e.seq
	e.seq++
	//oalint:allow hotpath the pooled heap grows only past its high-water mark
	h := append(e.events, ev)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.events = h
}

// pop removes the earliest event and advances the clock to it.
//
//oalint:hotpath
func (e *engine) pop() event {
	h := e.events
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(&h[m]) {
			m = r
		}
		if !h[m].before(&h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.events = h
	e.now = ev.at
	return ev
}

// record appends one span to the trace, if one is recorded, naming its
// resource the way trace.Validate reads it: "g3" for a main on group 3,
// "p1" for dedicated post processor 1 (g < 0), "g3.2" for processor 2 of
// group 3 lent to a post. Names are formatted only here, so a run without
// RecordTrace builds none.
func (e *engine) record(kind trace.Kind, g, proc, s, month int, start, end float64) {
	if e.tr == nil {
		return
	}
	var res string
	switch {
	case kind == trace.Main:
		res = fmt.Sprintf("g%d", g)
	case g < 0:
		res = fmt.Sprintf("p%d", proc)
	default:
		res = fmt.Sprintf("g%d.%d", g, proc)
	}
	e.tr.Add(trace.Span{Resource: res, Kind: kind, Scenario: s, Month: month, Start: start, End: end})
}

// mainDuration returns the (possibly jittered) duration of main(s,m) on g.
func (e *engine) mainDuration(g *group, s, m int) float64 {
	return g.mainDur * e.jitterFactor(s, m, 0)
}

// postDuration returns the (possibly jittered) duration of post(s,m).
func (e *engine) postDuration(s, m int) float64 {
	return e.postDur * e.jitterFactor(s, m, 1)
}

// jitterFactor derives the deterministic perturbation of one task. Each
// float64 conversion rounds a product (the compiler turns the division into
// one), so no GOARCH fuses it into a multiply-add: the factor is
// bit-identical on every architecture.
func (e *engine) jitterFactor(s, m, kind int) float64 {
	if e.opt.Jitter <= 0 {
		return 1
	}
	x := e.opt.Seed ^ uint64(s)<<40 ^ uint64(m)<<8 ^ uint64(kind)
	// splitmix64 finalizer.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(float64(x>>11) / float64(1<<53)) // uniform in [0,1)
	return 1 + float64(e.opt.Jitter*(float64(2*u)-1))
}

// pickScenario returns the index of the ready scenario to serve, or -1.
// Scenarios that were already waiting before now are preferred over ones
// that became ready at this very instant (see Options.StickyDispatch).
//
//oalint:hotpath
func (e *engine) pickScenario(now float64) int {
	if !e.opt.StickyDispatch {
		if s := e.pickAmong(now, true); s >= 0 {
			return s
		}
	}
	return e.pickAmong(now, false)
}

// pickAmong applies the dispatch policy over the scenarios ready at now:
// ready strictly before now when strict, at or before now otherwise.
//
//oalint:hotpath
func (e *engine) pickAmong(now float64, strict bool) int {
	best := -1
	for i := range e.scen {
		st := &e.scen[i]
		if st.finished || st.running || st.readyAt > now || strict && st.readyAt == now {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := &e.scen[best]
		switch e.opt.Policy {
		case LeastAdvanced:
			if st.monthsDone < b.monthsDone {
				best = i
			}
		case MostAdvanced:
			if st.monthsDone > b.monthsDone {
				best = i
			}
		case RoundRobin:
			if st.readySeq < b.readySeq {
				best = i
			}
		}
	}
	return best
}

// idleGroups returns groups without a committed main, ordered by the time
// they went idle (the paper's "sorting the ready time of each group"), ties
// by group index. The returned slice is a scratch buffer reused across
// dispatches, kept sorted by insertion: there are at most R groups.
//
//oalint:hotpath
func (e *engine) idleGroups() []*group {
	idle := e.idleScratch[:0]
	for i := range e.groups {
		g := &e.groups[i]
		if g.busy {
			continue
		}
		// Groups arrive in index order, so moving g only past later idleSeqs
		// keeps ties in index order.
		idle = append(idle, g)
		for j := len(idle) - 1; j > 0 && idle[j].idleSeq < idle[j-1].idleSeq; j-- {
			idle[j], idle[j-1] = idle[j-1], idle[j]
		}
	}
	e.idleScratch = idle
	return idle
}

// dispatch assigns ready mains to idle groups, then ready posts to free
// processors. It is invoked after every completion event.
//
//oalint:hotpath
func (e *engine) dispatch(now float64) {
	// Phase 1: mains to idle groups.
	if e.mainsLeft > 0 {
		for _, g := range e.idleGroups() {
			s := e.pickScenario(now)
			if s < 0 {
				break
			}
			e.startMain(now, g, s)
		}
	}
	// Phase 2: posts to free processors.
	e.drainPosts(now)
	// Phase 3: if mains remain but nothing is running on some idle group,
	// wake up when the next scenario becomes ready.
	if e.mainsLeft > 0 {
		e.scheduleWakeup(now)
	}
}

// applyFailures pushes a task interval through the group's outage windows:
// a start inside a window waits for recovery; a window opening mid-task
// kills the attempt and re-runs it after recovery. It returns the final
// start and end plus the number of lost attempts.
func (e *engine) applyFailures(gid int, start, dur float64) (s, end float64, restarts int) {
	end = start + dur
	for changed := true; changed; {
		changed = false
		for _, f := range e.opt.Failures {
			if f.Group != gid || f.Duration <= 0 {
				continue
			}
			recover := f.At + f.Duration
			switch {
			case start >= f.At && start < recover:
				// Waiting out an outage loses no work.
				start = recover
				end = start + dur
				changed = true
			case f.At > start && f.At < end:
				// The attempt dies at f.At; re-run from recovery.
				restarts++
				start = recover
				end = start + dur
				changed = true
			}
		}
	}
	return start, end, restarts
}

// startMain commits scenario s to group g at the current time; the start is
// delayed past any borrowed post work still running on the group.
//
//oalint:hotpath
func (e *engine) startMain(now float64, g *group, s int) {
	st := &e.scen[s]
	start := now
	if be := g.borrowEnd(); be > start {
		start = be
	}
	dur := e.mainDuration(g, s, st.monthsDone)
	if len(e.opt.Failures) > 0 {
		var restarts int
		start, _, restarts = e.applyFailures(g.id, start, dur)
		e.restarts += restarts
	}
	end := start + dur
	month := st.monthsDone
	st.running = true
	g.busy = true
	g.freeAt = end
	e.mainsLeft--
	e.busyAccum += float64(dur * float64(g.size)) // rounded: never a fused multiply-add
	e.record(trace.Main, g.id, 0, s, month, start, end)
	e.push(event{at: end, kind: mainDone, g: g.id, s: s})
}

// finishMain handles a main-task completion: advances the scenario, enqueues
// the post task, releases the group.
//
//oalint:hotpath
func (e *engine) finishMain(now float64, g *group, s int) {
	st := &e.scen[s]
	st.running = false
	st.monthsDone++
	st.readyAt = now
	e.readySeq++
	st.readySeq = e.readySeq
	if st.monthsDone >= e.app.Months {
		st.finished = true
	}
	g.busy = false
	e.idleTicket++
	g.idleSeq = e.idleTicket
	if now > e.mainsDone {
		e.mainsDone = now
	}
	//oalint:allow hotpath the pooled FIFO grows only past its high-water backlog
	e.queue = append(e.queue, int32(s))
	e.dispatch(now)
}

// drainPosts starts as many queued posts as free processors allow: dedicated
// post processors first, then individual processors of idle groups.
//
//oalint:hotpath
func (e *engine) drainPosts(now float64) {
	if e.postDur <= 0 {
		// Zero-length posts complete immediately.
		e.postsLeft -= len(e.queue) - e.queueHead
		e.queue = e.queue[:0]
		e.queueHead = 0
		return
	}
	for e.queueHead < len(e.queue) {
		procEnd, g, proc := e.freePostSlot(now)
		if procEnd == nil {
			return
		}
		s := int(e.queue[e.queueHead])
		month := e.scen[s].postsTaken
		e.scen[s].postsTaken++
		e.queueHead++
		if e.queueHead == len(e.queue) {
			e.queue = e.queue[:0]
			e.queueHead = 0
		}
		dur := e.postDuration(s, month)
		end := now + dur
		*procEnd = end
		e.busyAccum += dur
		e.record(trace.Post, g, proc, s, month, now, end)
		e.push(event{at: end, kind: postDone})
	}
}

// freePostSlot finds a processor free at time now for a post task:
// dedicated post processor proc (g = -1) or processor proc of idle group g.
// It returns a pointer to the processor's busy-until slot, or nil.
//
//oalint:hotpath
func (e *engine) freePostSlot(now float64) (procEnd *float64, g, proc int) {
	for i := range e.postEnd {
		if e.postEnd[i] <= now {
			return &e.postEnd[i], -1, i
		}
	}
	if e.opt.NoIdleSteal && e.mainsLeft > 0 {
		// Strict mode: groups keep their processors for main tasks until no
		// main remains to dispatch; the end-of-run drain still uses them.
		return nil, 0, 0
	}
	for gi := range e.groups {
		grp := &e.groups[gi]
		if grp.busy {
			continue
		}
		// A group that could immediately serve a waiting main must not steal
		// posts; dispatch() runs mains first, so reaching here means no main
		// is ready for it right now.
		for i := range grp.procEnd {
			if grp.procEnd[i] <= now && grp.freeAt <= now {
				return &grp.procEnd[i], gi, i
			}
		}
	}
	return nil, 0, 0
}

// scheduleWakeup arms an event at the earliest future scenario readiness so
// idle groups re-attempt dispatch. Completions normally drive dispatch; the
// wake-up covers the corner where a group sits idle while every unfinished
// scenario is mid-flight.
//
//oalint:hotpath
func (e *engine) scheduleWakeup(now float64) {
	idle := false
	for i := range e.groups {
		if !e.groups[i].busy {
			idle = true
			break
		}
	}
	if !idle {
		return
	}
	next := math.Inf(1)
	for i := range e.scen {
		st := &e.scen[i]
		if st.finished || st.running {
			continue
		}
		if st.readyAt > now && st.readyAt < next {
			next = st.readyAt
		}
	}
	if !math.IsInf(next, 1) {
		e.push(event{at: next, kind: wakeUp})
	}
}
