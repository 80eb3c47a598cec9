package grid

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/engine"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
)

// Fabric is a scheduler daemon plus an in-process SeD fleet on loopback
// ports — the self-hosted deployment shape shared by the daemon CLI
// (cmd/oarun -daemon), examples/campaignclient and the end-to-end tests.
type Fabric struct {
	Sched *Scheduler
	// SeDs holds the daemons in cluster-profile order: index 0 serves the
	// fastest cluster and therefore always carries the largest scenario
	// share — the natural victim for failure injection.
	SeDs []*diet.SeD
	// Clusters maps cluster name to the served profile, the inputs a
	// Verifier needs to replay chunk reports serially.
	Clusters map[string]*platform.Cluster
}

// StartFabric starts a scheduler with cfg plus seds in-process daemons over
// the paper's five Grid'5000 cluster profiles (procs processors each), each
// heartbeating every hbEvery.
func StartFabric(cfg Config, seds, procs int, hbEvery time.Duration) (*Fabric, error) {
	return StartFabricSpeeds(cfg, seds, procs, hbEvery, nil)
}

// StartFabricSpeeds is StartFabric for a heterogeneous fleet: SeD i runs at
// speeds[i%len(speeds)] (1.0 = the profile's reference speed, 0.5 = twice as
// slow). A nil or empty speeds slice is the homogeneous fleet. The speed
// factor scales only the advertised performance vectors — chunk execution
// stays on the profile's base timing, so serial verification is unchanged.
func StartFabricSpeeds(cfg Config, seds, procs int, hbEvery time.Duration, speeds []float64) (*Fabric, error) {
	sched, err := Start(cfg)
	if err != nil {
		return nil, err
	}
	f := &Fabric{Sched: sched, Clusters: map[string]*platform.Cluster{}}
	profiles := platform.FiveClusters()
	if seds > len(profiles) {
		seds = len(profiles)
	}
	for i, cl := range profiles[:seds] {
		cl.Procs = procs
		speed := 1.0
		if len(speeds) > 0 {
			speed = speeds[i%len(speeds)]
		}
		sed, err := diet.StartSeDSpeed("127.0.0.1:0", cl, exec.Options{}, speed)
		if err != nil {
			f.Close()
			return nil, err
		}
		sed.StartHeartbeats(sched.Addr(), hbEvery)
		f.SeDs = append(f.SeDs, sed)
		f.Clusters[cl.Name] = cl
	}
	return f, nil
}

// WaitAlive blocks until the scheduler sees n live SeDs.
func (f *Fabric) WaitAlive(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		alive := 0
		for _, sd := range f.Sched.Stats().SeDs {
			if sd.Alive {
				alive++
			}
		}
		if alive >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("grid: only %d SeDs alive after %v, want %d", alive, timeout, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Close stops the SeDs and the scheduler.
func (f *Fabric) Close() {
	for _, sed := range f.SeDs {
		sed.Close()
	}
	f.Sched.Close()
}

// Verifier replays campaign chunk reports serially in-process and demands
// bit-identical makespans: the service must be an exact distributed replay
// of engine.Evaluate, even across failure-driven requeues. Safe for
// concurrent use; replays are memoized per (cluster, scenarios, months).
type Verifier struct {
	clusters  map[string]*platform.Cluster
	heuristic core.Heuristic

	mu   sync.Mutex
	memo map[verifyKey]float64
}

type verifyKey struct {
	cluster           string
	scenarios, months int
}

// NewVerifier builds a verifier over the given cluster profiles.
func NewVerifier(clusters map[string]*platform.Cluster, heuristic string) (*Verifier, error) {
	h, err := core.ByName(heuristic)
	if err != nil {
		return nil, err
	}
	return &Verifier{clusters: clusters, heuristic: h, memo: map[verifyKey]float64{}}, nil
}

// SerialMakespan evaluates (scenarios, months) on the named cluster the way
// a SeD does, but fully serial: plan with the heuristic, run the
// event-driven executor.
//
//oalint:deterministic
func (v *Verifier) SerialMakespan(cluster string, scenarios, months int) (float64, error) {
	key := verifyKey{cluster: cluster, scenarios: scenarios, months: months}
	v.mu.Lock()
	want, ok := v.memo[key]
	v.mu.Unlock()
	if ok {
		return want, nil
	}
	cl := v.clusters[cluster]
	if cl == nil {
		// Autoscale-spawned SeDs serve clones named "<base>#<seq>" that
		// share the base profile's timing and processor count, so the base
		// profile replays them exactly.
		if i := strings.IndexByte(cluster, '#'); i > 0 {
			cl = v.clusters[cluster[:i]]
		}
		if cl == nil {
			return 0, fmt.Errorf("grid: verifier knows no cluster %q", cluster)
		}
	}
	app := core.Application{Scenarios: scenarios, Months: months}
	alloc, err := v.heuristic.Plan(app, cl.Timing, cl.Procs)
	if err != nil {
		return 0, err
	}
	res, err := engine.DES{}.Evaluate(app, cl, alloc, engine.Options{})
	if err != nil {
		return 0, err
	}
	v.mu.Lock()
	v.memo[key] = res.Makespan
	v.mu.Unlock()
	return res.Makespan, nil
}

// Verify checks one completed campaign: every chunk report bit-identical to
// its serial replay, all scenarios accounted for, and the campaign makespan
// equal to the slowest report.
//
//oalint:deterministic
func (v *Verifier) Verify(app core.Application, res *diet.CampaignResult) error {
	if res.Status != diet.CampaignDone {
		return fmt.Errorf("grid: campaign %d status %q: %s", res.ID, res.Status, res.Err)
	}
	chunks := make([]ChunkReport, len(res.Reports))
	for i, rep := range res.Reports {
		chunks[i] = ChunkReport{Cluster: rep.Cluster, Scenarios: rep.Scenarios, Makespan: rep.Makespan, Round: rep.Round}
	}
	if err := v.VerifyChunks(app, res.Makespan, chunks); err != nil {
		return fmt.Errorf("grid: campaign %d: %w", res.ID, err)
	}
	return nil
}

// ChunkReport is the transport-agnostic chunk record VerifyChunks checks —
// the shape shared by diet.ExecResponse and the public client API's cluster
// reports. Round is the repartition round that dispatched the chunk.
type ChunkReport struct {
	Cluster   string
	Scenarios int
	Makespan  float64
	Round     int
}

// VerifyChunks checks a campaign outcome given as chunk records: every
// chunk bit-identical to its serial replay, all scenarios accounted for,
// and the campaign makespan equal to the sum of per-round chunk maxima
// (repartition rounds run sequentially after a requeue, so a multi-round
// campaign takes longer than its slowest single chunk).
//
//oalint:deterministic
func (v *Verifier) VerifyChunks(app core.Application, makespan float64, chunks []ChunkReport) error {
	total := 0
	folded := make([]diet.ExecResponse, 0, len(chunks))
	for _, rep := range chunks {
		want, err := v.SerialMakespan(rep.Cluster, rep.Scenarios, app.Months)
		if err != nil {
			return err
		}
		if math.Float64bits(rep.Makespan) != math.Float64bits(want) {
			return fmt.Errorf("grid: cluster %s with %d scenarios reported %g, serial evaluation %g",
				rep.Cluster, rep.Scenarios, rep.Makespan, want)
		}
		total += rep.Scenarios
		folded = append(folded, diet.ExecResponse{Makespan: rep.Makespan, Round: rep.Round})
	}
	if total != app.Scenarios {
		return fmt.Errorf("grid: executed %d scenarios, want %d", total, app.Scenarios)
	}
	// The shared fold keeps the comparison bit-exact with the scheduler's
	// own accounting.
	wantMs := diet.CampaignMakespan(folded)
	if math.Float64bits(makespan) != math.Float64bits(wantMs) {
		return fmt.Errorf("grid: campaign makespan %g is not the per-round sum %g", makespan, wantMs)
	}
	return nil
}
