package platform

// The original study benchmarked the application "on numerous clusters of
// Grid'5000 ... located all around France", reporting only two anchors: the
// fastest cluster ran one main task on 11 processors in 1177 s and the
// slowest in 1622 s, with the reference Figure-1 benchmark at 1260 s. The
// five profiles below span exactly that range with the reference model in the
// middle, standing in for the five cluster speeds behind Figure 8's averages.
// Names follow Grid'5000 clusters of the era; the speed assignment is
// synthetic (the paper does not publish per-cluster numbers).

// Paper anchor values (seconds for the main task on MaxGroup processors).
const (
	FastestMainSeconds = 1177.0
	SlowestMainSeconds = 1622.0
)

// referenceMainAtMax is T(11) of the reference profile: Seq + Par/MaxPar + Pre.
func referenceMainAtMax() float64 {
	r := ReferenceTiming()
	v, err := r.MainSeconds(MaxGroup)
	if err != nil {
		panic(err) // unreachable: MaxGroup is in range by construction
	}
	return v
}

// speedFor returns the Speed factor that makes T(MaxGroup) equal the wanted
// anchor duration.
func speedFor(wantSeconds float64) float64 {
	return wantSeconds / referenceMainAtMax()
}

// scaledReference returns a reference-shaped Amdahl profile rescaled so that
// the main task on MaxGroup processors takes want seconds.
func scaledReference(wantSeconds float64) Amdahl {
	a := ReferenceTiming()
	a.Speed = speedFor(wantSeconds)
	return a
}

// defaultLink models a 2008-era gigabit cluster interconnect.
var defaultLink = Link{LatencySeconds: 0.1, BytesPerSecond: 100 << 20}

// benchmarkJitter is the relative amplitude of the per-(cluster, group-size)
// irregularity applied to the five profiles. Real benchmark tables are not
// smooth speedup curves — cache sizes, network topology and node placement
// bend individual entries — and those kinks are what the knapsack heuristic
// exploits against the uniform grouping. The value is small enough that the
// tables stay strictly decreasing in the group size.
const benchmarkJitter = 0.035

// kink returns a deterministic perturbation factor in [1-a, 1+a] for one
// (cluster, group) entry, using a splitmix64 hash so profiles are stable
// across runs. The float64 conversions round each product, so no GOARCH
// fuses one into a multiply-add and the profiles are bit-identical on every
// architecture.
func kink(cluster, g int, a float64) float64 {
	x := uint64(cluster)<<32 ^ uint64(g)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(float64(x>>11) / float64(1<<53))
	return 1 + float64(a*(float64(2*u)-1))
}

// benchmarkTable builds a cluster's measured-style timing table: the
// reference curve rescaled to the anchor, bent by the cluster's kinks, with
// the MaxGroup entry pinned exactly to the anchor and strict monotonicity
// (more processors never slower) restored.
func benchmarkTable(cluster int, anchorSeconds float64) Table {
	a := scaledReference(anchorSeconds)
	tbl := Table{Main: make(map[int]float64, MaxGroup-MinGroup+1), Post: a.PostSeconds()}
	for g := MinGroup; g <= MaxGroup; g++ {
		s, err := a.MainSeconds(g)
		if err != nil {
			panic(err) // unreachable: g is in range by construction
		}
		if g != MaxGroup {
			s *= kink(cluster, g, benchmarkJitter)
		}
		tbl.Main[g] = s
	}
	// Restore strict decrease from the anchored top end downwards.
	for g := MaxGroup - 1; g >= MinGroup; g-- {
		if tbl.Main[g] <= tbl.Main[g+1] {
			tbl.Main[g] = tbl.Main[g+1] * 1.01
		}
	}
	return tbl
}

// FiveClusters returns the five cluster speed profiles used to reproduce
// Figure 8 (gains averaged over "5 simulations done on clusters with
// different computing powers") and Figure 10 (2 to 5 clusters). Each profile
// is a benchmark-style table: a speed-scaled reference curve with
// per-cluster kinks (see benchmarkTable). Processor counts are placeholders;
// the figure harness resizes them per experiment.
func FiveClusters() []*Cluster {
	anchors := []struct {
		name string
		main float64
	}{
		{"sagittaire", FastestMainSeconds}, // fastest anchor: 1177 s on 11 procs
		{"capricorne", 1262.0},             // reference-shaped: pcr 1260 s + 2 s pre
		{"chicon", 1355.0},
		{"grelon", 1480.0},
		{"azur", SlowestMainSeconds}, // slowest anchor: 1622 s on 11 procs
	}
	clusters := make([]*Cluster, len(anchors))
	for i, a := range anchors {
		clusters[i] = &Cluster{
			Name:   a.name,
			Procs:  64,
			Timing: benchmarkTable(i, a.main),
			Link:   defaultLink,
		}
	}
	return clusters
}

// ReferenceCluster returns the calibration cluster (Figure 1 durations) with
// the given processor count.
func ReferenceCluster(procs int) *Cluster {
	return &Cluster{
		Name:   "reference",
		Procs:  procs,
		Timing: ReferenceTiming(),
		Link:   defaultLink,
	}
}
