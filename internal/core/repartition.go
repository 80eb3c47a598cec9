package core

import (
	"errors"
	"fmt"
	"math"
)

// RepartitionResult is the output of the scenario-to-cluster distribution.
type RepartitionResult struct {
	// Counts[c] is the number of scenarios assigned to cluster c.
	Counts []int
	// Assignment[s] is the cluster index chosen for scenario s, in the order
	// Algorithm 1 assigns them.
	Assignment []int
	// Makespan is the resulting global makespan: the maximum over clusters of
	// perf[c][Counts[c]-1].
	Makespan float64
}

// validatePerf checks the performance matrix is rectangular and positive.
func validatePerf(perf [][]float64) (scenarios int, err error) {
	if len(perf) == 0 {
		return 0, errors.New("core: repartition needs at least one cluster")
	}
	ns := len(perf[0])
	if ns == 0 {
		return 0, errors.New("core: empty performance vector")
	}
	for c, row := range perf {
		if len(row) != ns {
			return 0, fmt.Errorf("core: performance vector of cluster %d has length %d, want %d", c, len(row), ns)
		}
		for k, v := range row {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("core: invalid makespan %g for cluster %d at k=%d", v, c, k+1)
			}
		}
	}
	return ns, nil
}

// Repartition implements the paper's Algorithm 1 ("DAGs repartition on
// several clusters"): scenarios are assigned one at a time to the cluster
// whose makespan after receiving one more scenario is smallest. For
// non-decreasing performance vectors this greedy rule minimizes the global
// (max-over-clusters) makespan; TestRepartitionOptimal verifies it against
// exhaustive search.
func Repartition(perf [][]float64) (RepartitionResult, error) {
	ns, err := validatePerf(perf)
	if err != nil {
		return RepartitionResult{}, err
	}
	n := len(perf)
	res := RepartitionResult{
		Counts:     make([]int, n),
		Assignment: make([]int, ns),
	}
	for dag := 0; dag < ns; dag++ {
		msMin := math.Inf(1)
		clusterMin := -1
		for c := 0; c < n; c++ {
			if res.Counts[c] >= ns {
				continue // vector exhausted; cannot take more
			}
			if temp := perf[c][res.Counts[c]]; temp < msMin {
				msMin = temp
				clusterMin = c
			}
		}
		if clusterMin < 0 {
			return RepartitionResult{}, errors.New("core: no cluster can accept another scenario")
		}
		res.Counts[clusterMin]++
		res.Assignment[dag] = clusterMin
	}
	for c := 0; c < n; c++ {
		if res.Counts[c] == 0 {
			continue
		}
		if ms := perf[c][res.Counts[c]-1]; ms > res.Makespan {
			res.Makespan = ms
		}
	}
	return res, nil
}
