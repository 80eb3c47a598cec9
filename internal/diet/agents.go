package diet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/engine"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
)

// SeD is the per-cluster server daemon: it computes performance vectors
// (protocol step 2) and executes assigned scenario sets (step 6) on its
// cluster, using the event-driven executor as the cluster's compute fabric.
type SeD struct {
	cluster *platform.Cluster
	opts    exec.Options
	// plans holds every plan the daemon made for its cluster: PerfVector
	// fills it and ExecChunk reads it, so step 6 replans nothing step 2
	// planned. It lives as long as the daemon, like the cluster it keys on.
	plans *engine.Plans
	ln    net.Listener
	// srv tracks the connections the daemon keeps open for the scheduler;
	// transport keeps the one its heartbeats ride.
	srv       Server
	transport *Transport
	// speed is the daemon's relative speed factor: 1.0 is the reference,
	// 0.5 advertises every performance-vector entry doubled so the
	// repartition hands this daemon proportionally smaller chunks.
	// Immutable after start. Execution itself stays on the cluster's base
	// timing — the factor shifts placement, never a chunk's reported
	// makespan, which keeps results bit-identical to serial replay.
	speed float64

	// inFlight gauges the requests currently being served. A typed atomic:
	// a bare int64 field here is not 64-bit aligned on 32-bit platforms.
	inFlight atomic.Int64
	// served counts the requests ever handed to handle.
	served atomic.Uint64
	// draining is set once Drain() ran: the daemon advertises the flag on
	// every beat so the scheduler stops placing new chunks on it.
	draining atomic.Bool

	hbMu   sync.Mutex
	hbStop chan struct{}
	// hbAddr remembers the scheduler a heartbeat loop beacons to, so
	// Drain() can push an immediate flagged beat instead of waiting out the
	// ticker interval.
	hbAddr string
}

// StartSeD listens on addr and serves the cluster at the reference speed.
func StartSeD(addr string, cluster *platform.Cluster, opts exec.Options) (*SeD, error) {
	return StartSeDSpeed(addr, cluster, opts, 1.0)
}

// StartSeDSpeed is StartSeD with an explicit relative speed factor; values
// <= 0 read as 1.0 (the reference speed).
func StartSeDSpeed(addr string, cluster *platform.Cluster, opts exec.Options, speed float64) (*SeD, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if speed <= 0 {
		speed = 1.0
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("diet: SeD %s listen: %w", cluster.Name, err)
	}
	s := &SeD{cluster: cluster, opts: opts, plans: engine.NewPlans(), ln: ln, speed: speed, transport: NewTransport(1)}
	go s.srv.serve(ln, s.handle)
	return s, nil
}

// Addr returns the daemon's listen address.
func (s *SeD) Addr() string { return s.ln.Addr().String() }

// Close stops the daemon and its heartbeat loop. Connections the scheduler
// had kept open are closed with the listener: a closed daemon answers
// nothing, it does not linger as a zombie until heartbeat eviction.
func (s *SeD) Close() error {
	s.StopHeartbeats()
	err := s.ln.Close()
	s.srv.Close()
	s.transport.Close()
	return err
}

// Cluster returns the served cluster.
func (s *SeD) Cluster() *platform.Cluster { return s.cluster }

// InFlight reports how many requests the daemon is serving right now.
func (s *SeD) InFlight() int { return int(s.inFlight.Load()) }

// Served reports how many requests the daemon has taken up since it started.
func (s *SeD) Served() uint64 { return s.served.Load() }

// Speed reports the daemon's relative speed factor.
func (s *SeD) Speed() float64 { return s.speed }

// Draining reports whether Drain() has run.
func (s *SeD) Draining() bool { return s.draining.Load() }

// Drain flips the daemon into graceful-drain mode: every subsequent
// heartbeat carries the Draining flag, so the scheduler stops placing new
// chunks while in-flight work finishes and banks. One flagged beat goes out
// immediately — a scale-down must not wait out the ticker interval to take
// effect. The daemon keeps serving until Close.
func (s *SeD) Drain() {
	s.draining.Store(true)
	s.hbMu.Lock()
	addr := s.hbAddr
	s.hbMu.Unlock()
	if addr != "" {
		s.beat(addr)
	}
}

// StartHeartbeats begins beaconing liveness to the scheduler at addr every
// interval. A beat carries the registration payload, so the first one — and
// any beat after an eviction — (re)registers the daemon. Successive calls
// replace the previous loop.
func (s *SeD) StartHeartbeats(schedAddr string, every time.Duration) {
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	s.hbAddr = schedAddr
	if s.hbStop != nil {
		close(s.hbStop)
	}
	stop := make(chan struct{})
	s.hbStop = stop
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			s.beat(schedAddr)
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
}

// StopHeartbeats halts the heartbeat loop, simulating a silent daemon death
// for the scheduler's eviction logic (also called by Close).
func (s *SeD) StopHeartbeats() {
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	if s.hbStop != nil {
		close(s.hbStop)
		s.hbStop = nil
	}
}

// beat sends one heartbeat; delivery is best-effort, the scheduler's
// deadline eviction handles sustained silence.
func (s *SeD) beat(schedAddr string) {
	_, _ = s.transport.RoundTrip(context.Background(), schedAddr, &Request{Kind: KindHeartbeat, Heartbeat: &HeartbeatRequest{
		Cluster:  s.cluster.Name,
		Addr:     s.Addr(),
		Procs:    s.cluster.Procs,
		InFlight: s.InFlight(),
		Speed:    s.speed,
		Draining: s.Draining(),
	}}, dialTimeout)
}

func (s *SeD) handle(req *Request) *Response {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	s.served.Add(1)
	switch req.Kind {
	case KindPerf:
		return s.handlePerf(req.Perf)
	case KindExec:
		return s.handleExec(req.Exec)
	default:
		return &Response{Err: fmt.Sprintf("SeD %s: unsupported request %q", s.cluster.Name, req.Kind)}
	}
}

// PerfVector is protocol step 2 on one cluster: the makespans of 1..n
// scenarios of the given length, planned by the named heuristic and
// evaluated on ev as one batched sweep (memoized timing shared across the k
// values; the sweep is bit-identical to a serial loop whatever the worker
// count). Every plan it makes lands in plans, the cache of whoever owns the
// cluster — a SeD, or grid's in-process fleet — so the chunks the vector
// leads to plan nothing in ExecChunk. A SeD answers KindPerf with it and
// the in-process campaign executor calls it directly, so the two cannot
// drift.
func PerfVector(ctx context.Context, ev engine.Evaluator, cluster *platform.Cluster, n, months int, heuristic string, opts engine.Options, workers int, plans *engine.Plans) ([]float64, error) {
	h, err := core.ByName(heuristic)
	if err != nil {
		return nil, err
	}
	app := core.Application{Scenarios: n, Months: months}
	vecs, err := engine.PerformanceVectors(ctx, ev, app, []*platform.Cluster{cluster}, h, opts, workers, plans)
	if err != nil {
		return nil, err
	}
	return vecs[0], nil
}

// ExecChunk is protocol step 6 on one cluster: plan the chunk's scenarios
// with the named heuristic and evaluate the plan on ev. The plan comes from
// plans, the cluster owner's cache, when PerfVector (or an earlier chunk)
// planned the shape before; the evaluation always runs. The returned
// Allocation may be shared with the cache and must not be mutated. The
// backend's full report comes back beside the wire-shaped one because it
// never travels the wire: a SeD drops it, the in-process executor hangs it
// on ExecResponse.Result.
func ExecChunk(ctx context.Context, ev engine.Evaluator, cluster *platform.Cluster, ids []int, months int, heuristic string, opts engine.Options, plans *engine.Plans) (ExecResponse, engine.Result, error) {
	app := core.Application{Scenarios: len(ids), Months: months}
	alloc, err := plans.Plan(cluster, app, heuristic)
	if err != nil {
		return ExecResponse{}, engine.Result{}, err
	}
	res, err := engine.EvaluateContext(ctx, ev, app, cluster, alloc, opts)
	if err != nil {
		return ExecResponse{}, engine.Result{}, err
	}
	return ExecResponse{
		Cluster:    cluster.Name,
		Makespan:   res.Makespan,
		Allocation: alloc,
		Scenarios:  len(ids),
	}, res, nil
}

func (s *SeD) handlePerf(req *PerfRequest) *Response {
	if req == nil {
		return &Response{Err: "perf: empty payload"}
	}
	vec, err := PerfVector(context.Background(), engine.DES{}, s.cluster, req.Scenarios, req.Months, req.Heuristic, engine.Options{Exec: s.opts}, 0, s.plans)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	// A non-reference speed factor scales the advertised makespans (half
	// speed doubles them) so the repartition hands this daemon a
	// proportionally smaller share. Only the advertisement is scaled:
	// execution runs on the base timing, so chunk reports stay bit-identical
	// to their serial replay whatever the fleet's speed mix.
	if s.speed != 1.0 {
		scaled := make([]float64, len(vec))
		for i, v := range vec {
			scaled[i] = v / s.speed
		}
		vec = scaled
	}
	return &Response{Perf: &PerfResponse{
		Cluster: s.cluster.Name,
		Procs:   s.cluster.Procs,
		Vector:  vec,
	}}
}

func (s *SeD) handleExec(req *ExecRequest) *Response {
	if req == nil {
		return &Response{Err: "exec: empty payload"}
	}
	if len(req.ScenarioIDs) == 0 {
		return &Response{Exec: &ExecResponse{Cluster: s.cluster.Name}}
	}
	resp, _, err := ExecChunk(context.Background(), engine.DES{}, s.cluster, req.ScenarioIDs, req.Months, req.Heuristic, engine.Options{Exec: s.opts}, s.plans)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	return &Response{Exec: &resp}
}
