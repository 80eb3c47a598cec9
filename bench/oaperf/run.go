package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"oagrid"
	"oagrid/internal/diet"
	"oagrid/internal/grid"
	"oagrid/internal/platform"
)

const (
	// warmupCampaigns fill lazy init, the codec negotiation cache and the
	// perf-vector cache during set-up.
	warmupCampaigns = 50
	// queueCap keeps admission from refusing campaigns on a stall shorter
	// than a few seconds; a refusal counts as a failed operation.
	queueCap = 1024
	// heartbeatEvery keeps the SeDs alive (eviction is at 3 s) at a frame
	// rate that stays small next to the slowest workload's campaign frames.
	heartbeatEvery = time.Second
	// opTimeout bounds a phase's drain: a campaign still running this long
	// after the phase ended is cut off and counted as failed.
	opTimeout = 30 * time.Second
	// monitorEvery is the period of the read stream beside the writes; each
	// tick reads infosPerTick campaigns back to back, the way a dashboard
	// refreshes several rows at once.
	monitorEvery = 50 * time.Millisecond
	infosPerTick = 4
	// spinWithin is how close to a due time the pacer stops sleeping.
	spinWithin = 500 * time.Microsecond
)

// env is one fresh runner with everything it stands on.
type env struct {
	runner   oagrid.Runner
	fabric   *grid.Fabric // nil on the local workload
	clusters map[string]*platform.Cluster
}

func startEnv(ctx context.Context, w *workload, stateDir string) (*env, error) {
	if w.local {
		profiles := platform.FiveClusters()[:w.seds]
		clusters := make(map[string]*platform.Cluster, len(profiles))
		for _, cl := range profiles {
			cl.Procs = clusterProcs
			clusters[cl.Name] = cl
		}
		var opts []oagrid.RunnerOption
		if stateDir != "" {
			opts = append(opts, oagrid.WithStateDir(stateDir))
		}
		r, err := oagrid.Local(profiles, opts...)
		if err != nil {
			return nil, err
		}
		return &env{runner: r, clusters: clusters}, nil
	}
	fabric, err := grid.StartFabric(grid.Config{Addr: "127.0.0.1:0", QueueCap: queueCap, StateDir: stateDir},
		w.seds, clusterProcs, heartbeatEvery)
	if err != nil {
		return nil, err
	}
	if err := fabric.WaitAlive(w.seds, 10*time.Second); err != nil {
		fabric.Close()
		return nil, err
	}
	r, err := oagrid.Dial(ctx, fabric.Sched.Addr(), oagrid.WithTimeout(opTimeout))
	if err != nil {
		fabric.Close()
		return nil, err
	}
	return &env{runner: r, fabric: fabric, clusters: fabric.Clusters}, nil
}

func (e *env) close() error {
	err := e.runner.Close()
	if e.fabric != nil {
		e.fabric.Close()
	}
	return err
}

// stage indexes the timestamps a traced campaign collects from the public
// event stream, in the order a campaign passes them.
const (
	atRun = iota
	atAdmitted
	atPlanned
	atLastChunk
	atResult
	numStages
)

// opResult is what one campaign gave back to its caller.
type opResult struct {
	id  uint64
	res *oagrid.CampaignResult
	err error
	// marks and events are filled on traced campaigns only.
	marks  [numStages]time.Time
	events int
}

// outcome is one campaign as the harness accounts for it.
type outcome struct {
	opResult
	shape shape
	// latency runs from the campaign's due time to its result; lag is how
	// late the generator started it.
	latency, lag time.Duration
}

// campaignOp runs one campaign through the public API. A traced campaign
// also subscribes to the handle's events and stamps each stage as it sees it.
func campaignOp(ctx context.Context, r oagrid.Runner, sh shape, traced bool) opResult {
	var out opResult
	if traced {
		out.marks[atRun] = time.Now()
	}
	h, err := r.Run(ctx, oagrid.NewCampaign(sh.ns, sh.nm))
	if err != nil {
		out.err = err
		return out
	}
	if traced {
		for ev := range h.Events() {
			now := time.Now()
			out.events++
			switch ev.(type) {
			case oagrid.EventAdmitted:
				out.marks[atAdmitted] = now
			case oagrid.EventPlanned:
				if out.marks[atPlanned].IsZero() {
					out.marks[atPlanned] = now
				}
			case oagrid.EventChunkDone:
				out.marks[atLastChunk] = now
			case oagrid.EventResult:
				out.marks[atResult] = now
			}
		}
	}
	out.res, out.err = h.Wait()
	out.id = h.ID()
	return out
}

// sleepUntil sleeps to within spinWithin of due and spins the rest, so the
// pacer is late only when the processor is taken from it.
func sleepUntil(due time.Time) {
	if d := time.Until(due) - spinWithin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(due) {
	}
}

// openLoop starts sched[i] on its own goroutine at start+due whatever the
// earlier campaigns are doing, and returns once every one has ended. Latency
// is timed from the due time, not from when the campaign was started, so a
// stall — in the system or in this generator — is charged to every campaign
// it delays.
func openLoop(start time.Time, sched []arrival, op func(arrival) opResult) (outs []outcome, inflightPeak int64) {
	outs = make([]outcome, len(sched))
	var wg sync.WaitGroup
	var inflight, peak atomic.Int64
	for i, a := range sched {
		due := start.Add(a.due)
		sleepUntil(due)
		outs[i].shape = a.shape
		outs[i].lag = time.Since(due)
		wg.Add(1)
		go func(o *outcome, a arrival, due time.Time) {
			defer wg.Done()
			n := inflight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			o.opResult = op(a)
			o.latency = time.Since(due)
			inflight.Add(-1)
		}(&outs[i], a, due)
	}
	wg.Wait()
	return outs, peak.Load()
}

// closedLoop runs clients callers for d: each submits its next campaign only
// after the previous result arrived, taking shapes from seq in turn. The
// rate is the sum over clients of completions ÷ the time to that client's
// last completion, so no client's count is cut at a phase boundary. With
// wrap unset (a sequence holding novel NMs, which must never repeat) running
// off the end of seq is an error.
func closedLoop(d time.Duration, clients int, seq []shape, wrap bool, op func(shape) opResult) (outs []outcome, perSecond float64, err error) {
	start := time.Now()
	var next atomic.Int64
	var exhausted atomic.Bool
	perClient := make([][]outcome, clients)
	rates := make([]float64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			done, last := 0, time.Duration(0)
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					if !wrap {
						exhausted.Store(true)
						break
					}
					i %= len(seq)
				}
				o := outcome{shape: seq[i], opResult: op(seq[i])}
				perClient[c] = append(perClient[c], o)
				if o.err == nil {
					done++
					last = time.Since(start)
				}
			}
			if done > 0 {
				rates[c] = float64(done) / last.Seconds()
			}
		}(c)
	}
	wg.Wait()
	for c := range perClient {
		outs = append(outs, perClient[c]...)
		perSecond += rates[c]
	}
	if exhausted.Load() {
		err = errors.New("closed-loop shape sequence exhausted: shorten -seconds")
	}
	return outs, perSecond, err
}

// idLog collects the IDs of campaigns finished in this repetition, for the
// monitor stream to read back.
type idLog struct {
	mu  sync.Mutex
	ids []uint64
}

func (l *idLog) add(id uint64) {
	l.mu.Lock()
	l.ids = append(l.ids, id)
	l.mu.Unlock()
}

func (l *idLog) pick(rng *rand.Rand) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ids) == 0 {
		return 0, false
	}
	return l.ids[rng.IntN(len(l.ids))], true
}

// monitorLog is what the read stream measured.
type monitorLog struct {
	infoMs, listMs, statsUs []float64
	rounds                  []float64
	attempted, failed       int
	heapPeakMB              float64
	goroutinesPeak          int
}

// monitor issues reads beside the writes until stop closes: each tick, Info
// on seeded-random campaigns already finished in this repetition, and every
// tenth tick a List of the running campaigns instead. Reads take the locks
// and the campaign index the submissions write. On a traced repetition each
// tick also times Scheduler.Stats (the wait for Scheduler.mu) and samples
// heap and goroutine counts.
func monitor(ctx context.Context, stop <-chan struct{}, e *env, rng *rand.Rand, finished *idLog, traced bool) *monitorLog {
	log := &monitorLog{}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(monitorEvery)
	defer tick.Stop()
	for n := 1; ; n++ {
		select {
		case <-stop:
			return log
		case <-tick.C:
		}
		if n%10 == 0 {
			t0 := time.Now()
			_, err := e.runner.List(ctx, oagrid.ListFilter{Status: oagrid.StatusRunning})
			log.listMs = append(log.listMs, ms(time.Since(t0)))
			log.attempted++
			if err != nil {
				log.failed++
			}
		} else {
			for i := 0; i < infosPerTick; i++ {
				id, ok := finished.pick(rng)
				if !ok {
					break
				}
				t0 := time.Now()
				info, err := e.runner.Info(ctx, id)
				d := time.Since(t0)
				log.attempted++
				if err != nil || info.Status != oagrid.StatusDone {
					log.failed++
					continue
				}
				log.infoMs = append(log.infoMs, ms(d))
				log.rounds = append(log.rounds, float64(info.Rounds))
			}
		}
		if !traced {
			continue
		}
		if e.fabric != nil {
			t0 := time.Now()
			e.fabric.Sched.Stats()
			log.statsUs = append(log.statsUs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		metrics.Read(heap)
		if mb := float64(heap[0].Value.Uint64()) / (1 << 20); mb > log.heapPeakMB {
			log.heapPeakMB = mb
		}
		if g := runtime.NumGoroutine(); g > log.goroutinesPeak {
			log.goroutinesPeak = g
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tallied is the accounting of a set of outcomes.
type tallied struct {
	attempted, failed int
	// mismatches lists campaigns whose results differ from serial
	// evaluation — wrong output, as opposed to a failed operation.
	mismatches []string
	// latMs, makespans and ok hold successful, verified campaigns only: a
	// failed one misses every latency figure.
	latMs     []float64
	makespans []float64
	ok        []*outcome
}

// tally verifies every completed campaign and sorts the outcomes into
// succeeded and failed. A refused, failed, timed-out or mismatched campaign
// counts in failed and contributes no sample.
func tally(outs []outcome, verify func(shape, *oagrid.CampaignResult) error) tallied {
	var t tallied
	for i := range outs {
		o := &outs[i]
		t.attempted++
		if o.err != nil || o.res == nil {
			t.failed++
			continue
		}
		if err := verify(o.shape, o.res); err != nil {
			t.failed++
			t.mismatches = append(t.mismatches, fmt.Sprintf("campaign %d (NS=%d NM=%d): %v", o.id, o.shape.ns, o.shape.nm, err))
			continue
		}
		t.latMs = append(t.latMs, ms(o.latency))
		t.makespans = append(t.makespans, o.res.Makespan)
		t.ok = append(t.ok, o)
	}
	return t
}

// verifier checks results bit for bit against serial evaluation over the
// clusters the runner served.
func verifier(clusters map[string]*platform.Cluster) (func(shape, *oagrid.CampaignResult) error, error) {
	v, err := grid.NewVerifier(clusters, oagrid.KnapsackName)
	if err != nil {
		return nil, err
	}
	return func(sh shape, res *oagrid.CampaignResult) error {
		chunks := make([]grid.ChunkReport, len(res.Reports))
		for i, rep := range res.Reports {
			chunks[i] = grid.ChunkReport{Cluster: rep.Cluster, Scenarios: rep.Scenarios, Makespan: rep.Makespan, Round: rep.Round}
		}
		return v.VerifyChunks(oagrid.NewExperiment(sh.ns, sh.nm), res.Makespan, chunks)
	}, nil
}

// phases sizes one repetition.
type phases struct {
	open, closed time.Duration
	clients      int
	warmup       int           // set-up campaigns
	ref          time.Duration // length of each reference window
}

// repResult is everything one repetition of one workload measured.
type repResult struct {
	setupS            float64
	attempted, failed int
	mismatches        []string

	latMs, lagMs  []float64
	makespanMeanH float64
	closedPerS    float64
	allocKB       float64
	mon           *monitorLog

	inflightPeak             int64
	framesPer, wireBytesPer  float64
	maxQueue, rejected       float64
	requeues                 float64
	cpuMsPer, gcPauseMs      float64
	eventsPer                float64
	novelQueuePlanSharePct   float64
	spans                    []span
	journalRecs, journalSize float64 // per campaign, from the journal left behind
	stateDir                 string  // kept for the layer probes when non-empty

	// refUs holds the reference exchange's median before set-up, before the
	// open-loop phase, between the phases and after the closed-loop phase.
	refUs [4]float64
}

// scale is the factor that carries a duration of this repetition to the
// nominal machine; rates divide by it. All four windows count for every
// phase: a quarter of a second reads the host's state less steadily than the
// state changes within the few seconds a repetition lasts.
func (rep *repResult) scale() float64 { return nominalRefUs / mean(rep.refUs[:]) }

// runRepetition measures one workload once on a fresh runner: set-up, the
// open-loop phase with the monitor stream beside it, then the closed-loop
// phase. Verification runs after the clocks have stopped. A traced
// repetition leaves its state dir behind (repResult.stateDir) for the layer
// probes; the caller removes it.
func runRepetition(ctx context.Context, w *workload, gen *generator, ref *reference, rng *rand.Rand, ph phases, traced bool, stateDir string) (*repResult, error) {
	sched, err := gen.openSchedule(ph.open)
	if err != nil {
		return nil, err
	}
	seq, err := gen.closedSequence()
	if err != nil {
		return nil, err
	}
	warm := gen.warmup(ph.warmup)
	if !w.wal {
		stateDir = ""
	}
	rep := &repResult{}
	refWindows := 0
	reference := func() error {
		us, err := ref.measure(ph.ref)
		rep.refUs[refWindows] = us
		refWindows++
		return err
	}

	if err := reference(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	e, err := startEnv(ctx, w, stateDir)
	if err != nil {
		return nil, fmt.Errorf("%s: starting runner: %w", w.name, err)
	}
	envOpen := true
	defer func() {
		if envOpen {
			_ = e.close() // an error path; the error being returned matters more
		}
	}()
	opCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	warmOuts := make([]outcome, len(warm))
	for i, sh := range warm {
		warmOuts[i] = outcome{shape: sh, opResult: campaignOp(opCtx, e.runner, sh, false)}
	}
	rep.setupS = time.Since(t0).Seconds()
	if err := reference(); err != nil {
		return nil, err
	}

	// Open-loop phase. The deadline cuts off campaigns that never answer.
	finished := &idLog{}
	op := func(a arrival) opResult {
		r := campaignOp(opCtx, e.runner, a.shape, traced)
		if r.err == nil {
			finished.add(r.id)
		}
		return r
	}
	stopMon := make(chan struct{})
	monDone := make(chan *monitorLog, 1)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpuBefore := processCPU()
	wireBefore := diet.WireStats()
	watchdog := time.AfterFunc(ph.open+opTimeout, cancel)
	go func() { monDone <- monitor(opCtx, stopMon, e, rng, finished, traced) }()
	openOuts, peak := openLoop(time.Now(), sched, op)
	close(stopMon)
	rep.mon = <-monDone
	watchdog.Stop()
	wireAfter := diet.WireStats()
	cpuAfter := processCPU()
	runtime.ReadMemStats(&after)

	n := float64(len(sched))
	rep.inflightPeak = peak
	rep.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n
	rep.gcPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	rep.cpuMsPer = ms(cpuAfter-cpuBefore) / n
	rep.framesPer = float64(wireAfter.FramesTx-wireBefore.FramesTx) / n
	rep.wireBytesPer = float64(wireAfter.BytesTx-wireBefore.BytesTx) / n
	if e.fabric != nil {
		st := e.fabric.Sched.Stats()
		rep.maxQueue, rep.rejected, rep.requeues = float64(st.MaxQueueDepth), float64(st.Rejected), float64(st.Requeues)
	}

	if err := reference(); err != nil {
		return nil, err
	}

	// Closed-loop phase.
	watchdog = time.AfterFunc(ph.closed+opTimeout, cancel)
	closedOuts, perS, err := closedLoop(ph.closed, ph.clients, seq, w.novelEvery == 0, func(sh shape) opResult {
		return campaignOp(opCtx, e.runner, sh, false)
	})
	watchdog.Stop()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rep.closedPerS = perS
	if err := reference(); err != nil {
		return nil, err
	}

	envOpen = false
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("%s: closing runner: %w", w.name, err)
	}

	// Accounting, with the clocks stopped.
	verify, err := verifier(e.clusters)
	if err != nil {
		return nil, err
	}
	open := tally(openOuts, verify)
	rep.latMs = open.latMs
	rep.makespanMeanH = mean(open.makespans) / 3600
	for _, o := range openOuts {
		rep.lagMs = append(rep.lagMs, ms(o.lag))
	}
	for _, t := range []tallied{tally(warmOuts, verify), open, tally(closedOuts, verify)} {
		rep.attempted += t.attempted
		rep.failed += t.failed
		rep.mismatches = append(rep.mismatches, t.mismatches...)
	}
	rep.attempted += rep.mon.attempted
	rep.failed += rep.mon.failed
	if traced {
		rep.spansFrom(w, open.ok)
	}

	if stateDir != "" {
		if err := rep.readJournal(stateDir); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if traced {
			rep.stateDir = stateDir
		} else if err := os.RemoveAll(stateDir); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// spansFrom turns the traced campaigns' stage marks into spans and the
// numbers derived from them.
func (rep *repResult) spansFrom(w *workload, ok []*outcome) {
	var events, novelPlan, novelRun float64
	for _, o := range ok {
		events += float64(o.events)
		spans := campaignSpans(w.name, o.id, o.marks)
		rep.spans = append(rep.spans, spans...)
		if o.shape.novel {
			novelRun += float64(spans[0].EndNs - spans[0].StartNs)
			novelPlan += float64(spans[2].EndNs - spans[2].StartNs)
		}
	}
	if len(ok) > 0 {
		rep.eventsPer = events / float64(len(ok))
	}
	if novelRun > 0 {
		rep.novelQueuePlanSharePct = 100 * novelPlan / novelRun
	}
}

// journalFile is the WAL inside a state dir.
func journalFile(stateDir string) string { return filepath.Join(stateDir, "campaigns.wal") }
