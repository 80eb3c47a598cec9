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
//oalint:deterministic
package exec

import (
	"fmt"
	"math"
	"sort"

	"oagrid/internal/core"
	"oagrid/internal/platform"
	"oagrid/internal/sim"
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

type postTask struct {
	scenario, month int
}

type engine struct {
	app     core.Application
	timing  platform.Timing
	procs   int
	opt     Options
	simr    *sim.Simulator
	groups  []*group
	postEnd []float64 // dedicated post processors: busy-until times
	scen    []scenarioState
	queue   []postTask // ready post tasks, FIFO from queueHead on
	// queueHead is the FIFO's consumed prefix: popping advances the index
	// instead of re-slicing, so the backing array is reused once the queue
	// drains rather than reallocated on every completion event.
	queueHead int
	tr        *trace.Trace

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

// Run executes the allocation and returns the measured makespan.
func Run(app core.Application, t platform.Timing, procs int, alloc core.Allocation, opt Options) (Result, error) {
	if err := alloc.Validate(app, t, procs); err != nil {
		return Result{}, err
	}
	e := &engine{
		app:       app,
		timing:    t,
		procs:     procs,
		opt:       opt,
		simr:      sim.New(),
		postEnd:   make([]float64, alloc.PostProcs),
		scen:      make([]scenarioState, app.Scenarios),
		mainsLeft: app.Tasks(),
		postsLeft: app.Tasks(),
		postDur:   t.PostSeconds(),
	}
	if opt.RecordTrace {
		e.tr = &trace.Trace{}
	}
	for i, size := range alloc.Groups {
		dur, err := t.MainSeconds(size)
		if err != nil {
			return Result{}, err
		}
		e.groups = append(e.groups, &group{
			id:      i,
			size:    size,
			mainDur: dur,
			procEnd: make([]float64, size),
		})
	}
	e.dispatch(0)
	end := e.simr.Run()
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

// mainDuration returns the (possibly jittered) duration of main(s,m) on g.
func (e *engine) mainDuration(g *group, s, m int) float64 {
	return g.mainDur * e.jitterFactor(s, m, 0)
}

// postDuration returns the (possibly jittered) duration of post(s,m).
func (e *engine) postDuration(s, m int) float64 {
	return e.postDur * e.jitterFactor(s, m, 1)
}

// jitterFactor derives the deterministic perturbation of one task.
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
	u := float64(x>>11) / float64(1<<53) // uniform in [0,1)
	return 1 + e.opt.Jitter*(2*u-1)
}

// pickScenario returns the index of the ready scenario to serve, or -1.
// Scenarios that were already waiting before now are preferred over ones
// that became ready at this very instant (see Options.StickyDispatch).
func (e *engine) pickScenario(now float64) int {
	if !e.opt.StickyDispatch {
		if s := e.pickAmong(func(st *scenarioState) bool { return st.readyAt < now }); s >= 0 {
			return s
		}
	}
	return e.pickAmong(func(st *scenarioState) bool { return st.readyAt <= now })
}

// pickAmong applies the dispatch policy over the eligible ready scenarios.
func (e *engine) pickAmong(eligible func(*scenarioState) bool) int {
	best := -1
	for i := range e.scen {
		st := &e.scen[i]
		if st.finished || st.running || !eligible(st) {
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
// they went idle (the paper's "sorting the ready time of each group"). The
// returned slice is a scratch buffer reused across dispatches — it runs once
// per completion event, so under service traffic (thousands of concurrent
// executor runs behind the grid daemon) the per-event allocation shows up.
func (e *engine) idleGroups() []*group {
	idle := e.idleScratch[:0]
	for _, g := range e.groups {
		if !g.busy {
			idle = append(idle, g)
		}
	}
	e.idleScratch = idle
	sort.Slice(idle, func(i, j int) bool {
		if idle[i].idleSeq != idle[j].idleSeq {
			return idle[i].idleSeq < idle[j].idleSeq
		}
		return idle[i].id < idle[j].id
	})
	return idle
}

// dispatch assigns ready mains to idle groups, then ready posts to free
// processors. It is invoked after every completion event.
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
	e.busyAccum += dur * float64(g.size)
	if e.tr != nil {
		e.tr.Add(trace.Span{
			Resource: fmt.Sprintf("g%d", g.id),
			Kind:     trace.Main,
			Scenario: s,
			Month:    month,
			Start:    start,
			End:      end,
		})
	}
	_, err := e.simr.At(end, func(t2 float64) { e.finishMain(t2, g, s, month) })
	if err != nil {
		panic(err) // end >= now by construction
	}
}

// finishMain handles a main-task completion: advances the scenario, enqueues
// the post task, releases the group.
func (e *engine) finishMain(now float64, g *group, s, month int) {
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
	e.queue = append(e.queue, postTask{scenario: s, month: month})
	e.dispatch(now)
}

// drainPosts starts as many queued posts as free processors allow: dedicated
// post processors first, then individual processors of idle groups.
func (e *engine) drainPosts(now float64) {
	if e.postDur <= 0 {
		// Zero-length posts complete immediately.
		e.postsLeft -= len(e.queue) - e.queueHead
		e.queue = e.queue[:0]
		e.queueHead = 0
		return
	}
	for e.queueHead < len(e.queue) {
		res, procEnd := e.freePostSlot(now)
		if procEnd == nil {
			return
		}
		pt := e.queue[e.queueHead]
		e.queueHead++
		if e.queueHead == len(e.queue) {
			e.queue = e.queue[:0]
			e.queueHead = 0
		}
		dur := e.postDuration(pt.scenario, pt.month)
		end := now + dur
		*procEnd = end
		e.busyAccum += dur
		if e.tr != nil {
			e.tr.Add(trace.Span{
				Resource: res,
				Kind:     trace.Post,
				Scenario: pt.scenario,
				Month:    pt.month,
				Start:    now,
				End:      end,
			})
		}
		if _, err := e.simr.At(end, func(t2 float64) {
			e.postsLeft--
			e.dispatch(t2)
		}); err != nil {
			panic(err)
		}
	}
}

// freePostSlot finds a processor free at time now for a post task. It
// returns the resource name and a pointer to its busy-until slot, or nil.
func (e *engine) freePostSlot(now float64) (string, *float64) {
	for i := range e.postEnd {
		if e.postEnd[i] <= now {
			return fmt.Sprintf("p%d", i), &e.postEnd[i]
		}
	}
	if e.opt.NoIdleSteal && e.mainsLeft > 0 {
		// Strict mode: groups keep their processors for main tasks until no
		// main remains to dispatch; the end-of-run drain still uses them.
		return "", nil
	}
	for _, g := range e.groups {
		if g.busy {
			continue
		}
		// A group that could immediately serve a waiting main must not steal
		// posts; dispatch() runs mains first, so reaching here means no main
		// is ready for it right now.
		for i := range g.procEnd {
			if g.procEnd[i] <= now && g.freeAt <= now {
				return fmt.Sprintf("g%d.%d", g.id, i), &g.procEnd[i]
			}
		}
	}
	return "", nil
}

// scheduleWakeup arms an event at the earliest future scenario readiness so
// idle groups re-attempt dispatch. Completions normally drive dispatch; the
// wake-up covers the corner where a group sits idle while every unfinished
// scenario is mid-flight.
func (e *engine) scheduleWakeup(now float64) {
	idle := false
	for _, g := range e.groups {
		if !g.busy {
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
		if _, err := e.simr.At(next, e.dispatch); err != nil {
			panic(err)
		}
	}
}
