package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"
)

// workload is one traffic mix. Names are fixed: later issues cite them.
type workload struct {
	name string
	why  string
	// local runs oagrid.Local over the first seds cluster profiles instead
	// of dialing a fabric of seds SeDs.
	local bool
	seds  int
	// wal journals to a state dir on the checkout's filesystem.
	wal bool
	ns  int
	// popular lists the NM values users repeat, each as often as it is
	// popular: the scheduler's perf-vector cache holds them after warm-up.
	popular []int
	// novelEvery makes one campaign in novelEvery draw an NM nobody has
	// submitted before in this invocation — a guaranteed vector-cache miss.
	// 0 means every campaign is popular.
	novelEvery int
	// rate is the open-loop arrival rate in campaigns per second: an
	// absolute number, never calibrated at run time, chosen at 10–20 % of the
	// closed-loop capacity measured when the benchmark was defined.
	rate float64
}

// clusterProcs is the processor count of every served cluster.
const clusterProcs = 30

// Novel NM values come from [novelLo, novelHi] without replacement across a
// whole invocation; none of them is a popular value.
const (
	novelLo = 121
	novelHi = 719
)

var workloads = []workload{
	{
		name: "small-mem", seds: 3, ns: 4, popular: []int{12}, rate: 300,
		why: "Dial to 3 SeDs, NS=4 NM=12, no journal, open 300/s: engine idle and vector cache always hits, so wire, codec and Scheduler.mu are the cost; WAL work must show nothing",
	},
	{
		name: "small-wal", seds: 3, wal: true, ns: 4, popular: []int{12}, rate: 100,
		why: "small-mem plus a StateDir on the real disk, open 100/s: the delta to small-mem is the durability cost (4+ fsyncs per campaign); transport-only work should move little",
	},
	{
		// Popularity falls with length, 3:2:1. With equal thirds the median
		// campaign would sit on the edge between the NM=1200 and NM=1800
		// modes and jump between them from one repetition to the next; this
		// way it sits inside the NM=1200 mode.
		name: "large-mixed", seds: 5, ns: 10, popular: []int{600, 1200, 600, 1800, 1200, 600}, novelEvery: 4, rate: 8,
		why: "Dial to 5 SeDs, NS=10, open 8/s: 3 in 4 campaigns repeat NM 600/1200/1800 (3:2:1, vector-cache hits), 1 in 4 has a never-seen NM (miss): engine/exec/core dominate; transport and WAL predict no change",
	},
	{
		name: "local-wal", local: true, seds: 3, wal: true, ns: 10, popular: []int{120}, rate: 10,
		why: "oagrid.Local with WithStateDir, NS=10 NM=120, open 10/s: same store/core/engine without wire or vector cache, one serial appender; guards the one-campaign-core collapse",
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// shape is one campaign's size.
type shape struct {
	ns, nm int
	novel  bool
}

// arrival is one open-loop campaign: when it is due, counted from the start
// of the phase, and what it asks for.
type arrival struct {
	due time.Duration
	shape
}

// generator makes every input of one workload from the seed before any clock
// starts; the program under test sees only the generated campaigns.
type generator struct {
	w   *workload
	rng *rand.Rand
	// unused holds the novel NM values nobody has drawn yet, ascending.
	unused []int
}

func newGenerator(seed uint64, w *workload) *generator {
	var salt uint64
	for _, c := range w.name {
		salt = salt*131 + uint64(c)
	}
	g := &generator{w: w, rng: rand.New(rand.NewPCG(seed, salt))}
	if w.novelEvery > 0 {
		popular := make(map[int]bool, len(w.popular))
		for _, nm := range w.popular {
			popular[nm] = true
		}
		for nm := novelLo; nm <= novelHi; nm++ {
			if !popular[nm] {
				g.unused = append(g.unused, nm)
			}
		}
	}
	return g
}

// takeNovel draws k never-used NM values, one from each of k equal strata of
// what is left, so every repetition sees the whole range of miss costs and
// the spread between seeds comes from the system, not from the draw.
func (g *generator) takeNovel(k int) ([]int, error) {
	if k > len(g.unused) {
		return nil, fmt.Errorf("%s: novel NM pool exhausted (%d left, %d wanted): shorten -seconds", g.w.name, len(g.unused), k)
	}
	picked := make([]int, 0, k)
	idx := make(map[int]bool, k)
	for s := 0; s < k; s++ {
		lo, hi := s*len(g.unused)/k, (s+1)*len(g.unused)/k
		i := lo + g.rng.IntN(hi-lo)
		idx[i] = true
		picked = append(picked, g.unused[i])
	}
	rest := g.unused[:0]
	for i, nm := range g.unused {
		if !idx[i] {
			rest = append(rest, nm)
		}
	}
	g.unused = rest
	return picked, nil
}

// mix returns n shapes with the workload's exact composition — n/novelEvery
// novel ones, the rest dealt in turn from the popular list — in seeded order.
func (g *generator) mix(n int) ([]shape, error) {
	out := make([]shape, 0, n)
	if g.w.novelEvery > 0 {
		novel, err := g.takeNovel(n / g.w.novelEvery)
		if err != nil {
			return nil, err
		}
		for _, nm := range novel {
			out = append(out, shape{ns: g.w.ns, nm: nm, novel: true})
		}
	}
	for i := 0; len(out) < n; i++ {
		out = append(out, shape{ns: g.w.ns, nm: g.w.popular[i%len(g.w.popular)]})
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// warmup returns the set-up campaigns: popular shapes only, so the caches a
// user does not pay for per campaign are full before the clock starts.
func (g *generator) warmup(n int) []shape {
	out := make([]shape, n)
	for i := range out {
		out[i] = shape{ns: g.w.ns, nm: g.w.popular[i%len(g.w.popular)]}
	}
	return out
}

// openSchedule returns a Poisson arrival schedule at the workload's rate
// over d: round(rate·d) arrivals at sorted uniform times, which is a Poisson
// process conditioned on its count — every seed offers the same number of
// campaigns, so per-campaign means compare across seeds.
func (g *generator) openSchedule(d time.Duration) ([]arrival, error) {
	n := int(g.w.rate*d.Seconds() + 0.5)
	if n < 1 {
		n = 1
	}
	shapes, err := g.mix(n)
	if err != nil {
		return nil, err
	}
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(g.rng.Float64() * float64(d))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{due: due[i], shape: shapes[i]}
	}
	return out, nil
}

// closedBlocks is how many mix blocks a closed-loop phase may consume on a
// workload with novel shapes: 20 blocks of 24 is several times what a phase
// completed when the benchmark was defined, and four repetitions of it plus
// their open-loop draws still fit the pool of novel values.
const closedBlocks = 20

// closedSequence returns the shapes closed-loop clients take in turn. A
// single-shape workload needs one entry (clients wrap around); a mixed one
// gets a bounded sequence of exact-composition blocks, because a novel NM
// must never repeat.
func (g *generator) closedSequence() ([]shape, error) {
	if g.w.novelEvery == 0 {
		return g.warmup(len(g.w.popular)), nil
	}
	block := g.w.novelEvery * len(g.w.popular)
	var out []shape
	for b := 0; b < closedBlocks; b++ {
		shapes, err := g.mix(block)
		if err != nil {
			return nil, err
		}
		out = append(out, shapes...)
	}
	return out, nil
}
