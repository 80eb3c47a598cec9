package platform

import (
	"errors"
	"fmt"
	"sort"
)

// Cluster is one homogeneous pool of processors with a benchmarked timing
// profile, the scheduling unit of the paper's heterogeneous-grid adaptation
// ("Grid'5000 is a grid composed of several clusters. Each cluster is
// composed of homogeneous resources but differs from one another.").
type Cluster struct {
	Name   string
	Procs  int
	Timing Timing

	// Link describes intra-cluster data staging. The scheduling model folds
	// staging into task durations (paper §4.1), so no schedule reads it;
	// Link.TransferSeconds prices a transfer, such as a scenario's 120 MB
	// monthly restart, for a caller that wants the cost.
	Link Link
}

// Link is a simple latency/bandwidth pipe model.
type Link struct {
	LatencySeconds float64
	BytesPerSecond float64
}

// TransferSeconds returns the staging time of size bytes over the link. A
// zero-valued link transfers instantly, matching the paper's assumption that
// "data on a site are available to all of its nodes".
func (l Link) TransferSeconds(size int64) float64 {
	if l.BytesPerSecond <= 0 {
		return l.LatencySeconds
	}
	return l.LatencySeconds + float64(size)/l.BytesPerSecond
}

// Validate checks the cluster is usable for scheduling.
func (c *Cluster) Validate() error {
	if c == nil {
		return errors.New("platform: nil cluster")
	}
	if c.Name == "" {
		return errors.New("platform: cluster without a name")
	}
	if c.Procs <= 0 {
		return fmt.Errorf("platform: cluster %s has %d processors", c.Name, c.Procs)
	}
	if c.Timing == nil {
		return fmt.Errorf("platform: cluster %s has no timing model", c.Name)
	}
	lo, hi := c.Timing.Range()
	if lo > hi {
		return fmt.Errorf("platform: cluster %s has an empty moldable range", c.Name)
	}
	for g := lo; g <= hi; g++ {
		s, err := c.Timing.MainSeconds(g)
		if err != nil {
			return fmt.Errorf("platform: cluster %s: %w", c.Name, err)
		}
		if s <= 0 {
			return fmt.Errorf("platform: cluster %s: non-positive main duration at g=%d", c.Name, g)
		}
	}
	if c.Timing.PostSeconds() < 0 {
		return fmt.Errorf("platform: cluster %s: negative post duration", c.Name)
	}
	return nil
}

// WithProcs returns a copy of the cluster resized to n processors. The figure
// harness uses it to sweep resource counts over fixed speed profiles.
func (c *Cluster) WithProcs(n int) *Cluster {
	cp := *c
	cp.Procs = n
	return &cp
}

// Grid is an ordered set of clusters.
type Grid struct {
	Clusters []*Cluster
}

// NewGrid assembles and validates a grid.
func NewGrid(clusters ...*Cluster) (*Grid, error) {
	if len(clusters) == 0 {
		return nil, errors.New("platform: grid needs at least one cluster")
	}
	seen := make(map[string]bool, len(clusters))
	for _, c := range clusters {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("platform: duplicate cluster name %q", c.Name)
		}
		seen[c.Name] = true
	}
	return &Grid{Clusters: append([]*Cluster(nil), clusters...)}, nil
}

// TotalProcs sums processors over all clusters.
func (g *Grid) TotalProcs() int {
	n := 0
	for _, c := range g.Clusters {
		n += c.Procs
	}
	return n
}

// ByName returns the cluster with the given name, or nil.
func (g *Grid) ByName(name string) *Cluster {
	for _, c := range g.Clusters {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Names returns the cluster names in grid order.
func (g *Grid) Names() []string {
	names := make([]string, len(g.Clusters))
	for i, c := range g.Clusters {
		names[i] = c.Name
	}
	return names
}

// SortBySpeed orders clusters from fastest to slowest reference main task
// (T[MaxGroup]), the order in which the repartition discussion of the paper
// presents them ("The faster, the more DAGs it has to execute").
func (g *Grid) SortBySpeed() {
	sort.SliceStable(g.Clusters, func(i, j int) bool {
		ti, erri := g.Clusters[i].Timing.MainSeconds(MaxGroup)
		tj, errj := g.Clusters[j].Timing.MainSeconds(MaxGroup)
		if erri != nil || errj != nil {
			return false
		}
		return ti < tj
	})
}
