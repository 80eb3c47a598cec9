package oagrid

import "time"

// RunnerOption configures a Runner at construction (Local, Dial). Options
// that have no meaning for a runner flavour are documented as such and
// silently ignored there, so a configuration can be shared between a local
// and a remote runner.
type RunnerOption func(*runnerConfig)

// runnerConfig is the resolved option set of a runner.
type runnerConfig struct {
	backend   Evaluator
	heuristic string
	workers   int
	jitter    float64
	seed      uint64
	trace     bool
	timeout   time.Duration
	stateDir  string
}

func newRunnerConfig(opts []RunnerOption) runnerConfig {
	cfg := runnerConfig{
		backend:   DESBackend,
		heuristic: KnapsackName,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithBackend selects the evaluator a Local runner uses (ModelBackend,
// DESBackend, or a realrun backend). The default is DESBackend, the
// event-driven ground truth. Remote runners ignore it: the daemon's SeDs
// own their backend. A Local runner caches each cluster's performance
// vector per (months, heuristic), exactly as the daemon does per SeD: for
// ModelBackend and DESBackend a vector is a pure function of the cluster
// and the runner's fixed options, so the cache is invisible; for a realrun
// backend a cached vector is a remembered measurement, not a fresh one.
func WithBackend(ev Evaluator) RunnerOption {
	return func(cfg *runnerConfig) {
		if ev != nil {
			cfg.backend = ev
		}
	}
}

// WithHeuristic sets the runner's default planning heuristic, used by
// campaigns that leave Campaign.Heuristic empty. The default is "knapsack",
// the paper's best performer.
func WithHeuristic(name string) RunnerOption {
	return func(cfg *runnerConfig) {
		if name != "" {
			cfg.heuristic = name
		}
	}
}

// WithWorkers bounds the Local runner's sweep pool (0 or less uses
// GOMAXPROCS). Results are bit-identical whatever the worker count. Remote
// runners ignore it.
func WithWorkers(n int) RunnerOption {
	return func(cfg *runnerConfig) { cfg.workers = n }
}

// WithJitter perturbs every task duration of a Local evaluation by a
// deterministic pseudo-random factor in [1−amp, 1+amp], stream selected by
// seed. amp must be finite and in [0, 1] (Local returns ErrInvalidConfig
// otherwise). Jittered campaigns are reproducible but no longer
// bit-identical to a remote run. Remote runners ignore it.
func WithJitter(amp float64, seed uint64) RunnerOption {
	return func(cfg *runnerConfig) { cfg.jitter, cfg.seed = amp, seed }
}

// WithTrace records per-task spans on Local evaluations; each
// ClusterReport.Result then carries a trace (costs memory on large runs).
// Remote runners ignore it: traces do not travel the wire.
func WithTrace() RunnerOption {
	return func(cfg *runnerConfig) { cfg.trace = true }
}

// WithTimeout bounds one protocol frame of a remote campaign: the dial and
// every streamed frame (verdict, progress, result) must arrive within d.
// Progress frames refresh the deadline, so a streamed campaign may run
// longer than d in total — it fails only when the daemon goes silent for d
// (default 2m). Local runners ignore it: cancel the Run context instead.
func WithTimeout(d time.Duration) RunnerOption {
	return func(cfg *runnerConfig) { cfg.timeout = d }
}

// SubmitOption configures one campaign at submission (Runner.Run) — the
// per-campaign half of the option surface, next to the per-runner
// RunnerOption. Submit options travel with the campaign: a remote runner
// sends them to the daemon on the wire, a durable runner
// journals them with the admission record, and both report them back
// through Runner.Info and Runner.List.
type SubmitOption func(*submitConfig)

// submitConfig is the resolved option set of one submission.
type submitConfig struct {
	priority  int
	labels    map[string]string
	deadline  time.Duration
	heuristic string
}

func newSubmitConfig(opts []SubmitOption) submitConfig {
	var cfg submitConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithPriority orders the campaign in the scheduler's admission queue:
// higher-priority campaigns dispatch first, ties run in admission order.
// The default is 0; negative priorities yield to everything. A Local runner
// is the scheduler's campaign core without the queue in front: it records
// the priority (Info/List report it) and runs the campaign at once.
func WithPriority(p int) SubmitOption {
	return func(cfg *submitConfig) { cfg.priority = p }
}

// WithLabels tags the campaign with operator-facing key/value labels,
// matched as a subset by ListFilter.Labels. Later options merge over
// earlier ones.
func WithLabels(labels map[string]string) SubmitOption {
	return func(cfg *submitConfig) {
		if len(labels) == 0 {
			return
		}
		if cfg.labels == nil {
			cfg.labels = make(map[string]string, len(labels))
		}
		for k, v := range labels {
			cfg.labels[k] = v
		}
	}
}

// WithDeadline bounds this one campaign end to end (including requeue
// rounds), overriding the scheduler's default campaign timeout. A campaign
// past its deadline fails with ErrCampaignFailed. Zero keeps the runner's
// default.
func WithDeadline(d time.Duration) SubmitOption {
	return func(cfg *submitConfig) { cfg.deadline = d }
}

// WithCampaignHeuristic overrides the planning heuristic for this one
// campaign — the submit-level equivalent of Campaign.Heuristic, taking
// precedence over it and over the runner's WithHeuristic default.
func WithCampaignHeuristic(name string) SubmitOption {
	return func(cfg *submitConfig) { cfg.heuristic = name }
}

// WithStateDir makes a Local runner durable, by the same code that makes
// the daemon durable: every campaign transition is journaled to an
// append-only WAL under dir before it is acknowledged, and a new Local
// runner (or a daemon) opened on the same directory replays the journal —
// finished campaigns stay attachable (Runner.Attach) under their original
// IDs with their full event history, and campaigns a crash cut short are
// automatically resumed, re-running only the scenarios without a completed
// chunk. Remote runners ignore it: durability is the daemon's (start it
// with `oarun -daemon -state DIR`). Journal-recovered reports carry no
// backend Result (ClusterReport.Result is nil); makespans and allocations
// round-trip bit-exact.
func WithStateDir(dir string) RunnerOption {
	return func(cfg *runnerConfig) { cfg.stateDir = dir }
}
