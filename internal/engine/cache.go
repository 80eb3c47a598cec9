package engine

import (
	"fmt"
	"sync"

	"oagrid/internal/core"
	"oagrid/internal/platform"
)

// MemoTiming is a platform.Timing with every MainSeconds value of the
// moldable range precomputed into a dense slice. The executor asks for task
// durations on every dispatch and the Amdahl model recomputes a division each
// time; a sweep over thousands of jobs asks millions of times, so Sweep
// memoizes each distinct cluster's timing once up front.
type MemoTiming struct {
	lo, hi int
	main   []float64
	post   float64
}

var _ platform.Timing = (*MemoTiming)(nil)

// Memoize returns a cached view of t. Timings that are already memoized come
// back unchanged; timings whose range cannot be tabulated (holes, empty
// range) fall back to the original model.
func Memoize(t platform.Timing) platform.Timing {
	if t == nil {
		return nil
	}
	if m, ok := t.(*MemoTiming); ok {
		return m
	}
	lo, hi := t.Range()
	if lo > hi {
		return t
	}
	m := &MemoTiming{lo: lo, hi: hi, post: t.PostSeconds(), main: make([]float64, hi-lo+1)}
	for g := lo; g <= hi; g++ {
		s, err := t.MainSeconds(g)
		if err != nil {
			return t
		}
		m.main[g-lo] = s
	}
	return m
}

// MainSeconds implements platform.Timing.
func (m *MemoTiming) MainSeconds(g int) (float64, error) {
	if g < m.lo || g > m.hi {
		return 0, fmt.Errorf("platform: group size %d outside moldable range [%d,%d]", g, m.lo, m.hi)
	}
	return m.main[g-m.lo], nil
}

// PostSeconds implements platform.Timing.
func (m *MemoTiming) PostSeconds() float64 { return m.post }

// Range implements platform.Timing.
func (m *MemoTiming) Range() (int, int) { return m.lo, m.hi }

// planKey identifies one planning problem. The cluster enters by pointer
// identity: callers that should share a plan must share the *Cluster
// (Matrix and PerformanceVectors arrange this inside a sweep; a SeD and
// grid's in-process fleet hold one *Cluster per target for their lifetime).
type planKey struct {
	cluster           *platform.Cluster
	scenarios, months int
	procs             int
	heuristic         string
}

// planEntry is a single-flight cache slot: the goroutine that inserts it
// plans and closes ready; every other caller of the key waits on ready and
// reuses the plan.
type planEntry struct {
	ready chan struct{}
	alloc core.Allocation
	err   error
}

// maxPlans bounds a Plans. The busiest benchmark workload inserts at most
// NS=10 entries per distinct NM per SeD, and it never draws more than 602
// distinct NMs in one process (599 novel plus 3 popular), so 6,020 keys at
// most: it never reaches the bound.
const maxPlans = 1 << 13

// Plans memoizes heuristic plans. Planning is pure — a (heuristic, app,
// cluster) triple always yields the same allocation — so whoever owns a
// cluster plans each shape on it once: a sweep across its policies, jitter
// amplitudes and seeds, and a SeD (or grid's in-process fleet) across every
// campaign it serves, where PerfVector fills the cache and ExecChunk reads
// it. Plans made on a memoized timing equal those made on the raw one bit
// for bit (MemoTiming tabulates the same values), so the two share entries.
//
// There is no invalidation path. An owner's clusters are immutable for its
// lifetime; a SeD whose capability changes is a new SeD process with a new
// cache, and the scheduler already drops its vectors when it re-registers.
// A Plans holds at most maxPlans entries and starts over empty when full:
// every entry can be recomputed, so dropping entries is always safe.
//
// A cached Allocation is shared by every caller that gets it and must never
// be mutated; a copy that leaves the process's ownership (a public report)
// clones Groups first.
type Plans struct {
	mu sync.Mutex
	m  map[planKey]*planEntry
}

// NewPlans returns an empty cache.
func NewPlans() *Plans { return &Plans{m: make(map[planKey]*planEntry)} }

// Plan returns the allocation the heuristic named heuristic gives app's
// scenarios on all of cluster's processors, planned on cluster.Timing. A
// shape planned before — by Plan or by a sweep over p — costs one map
// lookup: the name is resolved only on a miss.
//
//oalint:hotpath
func (p *Plans) Plan(cluster *platform.Cluster, app core.Application, heuristic string) (core.Allocation, error) {
	return p.plan(planKey{
		cluster:   cluster,
		scenarios: app.Scenarios,
		months:    app.Months,
		procs:     cluster.Procs,
		heuristic: heuristic,
	}, nil, app, cluster.Timing)
}

// plan returns key's allocation from the cache or runs the planner once. h
// nil resolves key.heuristic by name on a miss.
//
//oalint:hotpath
func (p *Plans) plan(key planKey, h core.Heuristic, app core.Application, t platform.Timing) (core.Allocation, error) {
	p.mu.Lock()
	e := p.m[key]
	if e != nil {
		p.mu.Unlock()
		<-e.ready
		return e.alloc, e.err
	}
	if len(p.m) >= maxPlans {
		p.m = make(map[planKey]*planEntry)
	}
	e = &planEntry{ready: make(chan struct{})}
	p.m[key] = e
	p.mu.Unlock()
	defer close(e.ready)
	if h == nil {
		h, e.err = core.ByName(key.heuristic)
	}
	if e.err == nil {
		e.alloc, e.err = h.Plan(app, t, key.procs)
	}
	return e.alloc, e.err
}
