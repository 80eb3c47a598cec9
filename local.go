package oagrid

import (
	"fmt"

	"oagrid/internal/core"
	"oagrid/internal/engine"
	"oagrid/internal/exec"
	"oagrid/internal/grid"
)

// Local builds a Runner over the in-process engine and the given clusters:
// the grid scheduler's own campaign core — same admission record, journal,
// round loop, vector cache and report order, the same code — with an
// executor that evaluates on the engine instead of dispatching to SeDs, and
// with no listener or admission queue in front: a campaign runs the moment
// it is admitted. Clusters are ordered by name internally (the daemon's
// tie-break order), so a Local run of a campaign is bit-identical to a Dial
// run against a daemon serving the same cluster profiles, at default
// options. The clusters must form a valid grid (NewGrid), so their names
// are distinct, and a WithJitter amplitude must be finite and in [0, 1];
// ErrInvalidConfig otherwise.
//
// With WithStateDir, Local replays the journal found there first: terminal
// campaigns come back attachable under their original IDs with their full
// event history (a cancelled campaign stays cancelled), and non-terminal
// campaigns (a previous process died mid-run, or its caller's ctx ended)
// are resumed in the background, re-running only the scenarios without a
// completed chunk. Records live for the runner's lifetime.
func Local(clusters []*Cluster, opts ...RunnerOption) (Runner, error) {
	if _, err := NewGrid(clusters...); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	cfg := newRunnerConfig(opts)
	if _, err := core.ByName(cfg.heuristic); err != nil {
		return nil, err
	}
	execOpts := exec.Options{Jitter: cfg.jitter, Seed: cfg.seed, RecordTrace: cfg.trace}
	if err := execOpts.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	local, err := grid.NewLocal(clusters, grid.LocalConfig{
		Backend:  cfg.backend,
		Options:  engine.Options{Exec: execOpts},
		Workers:  cfg.workers,
		StateDir: cfg.stateDir,
	})
	if err != nil {
		return nil, err
	}
	return &runner{service: local, local: true, cfg: cfg}, nil
}
