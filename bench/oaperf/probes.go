package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
	"oagrid/internal/engine"
	"oagrid/internal/exec"
	"oagrid/internal/knapsack"
	"oagrid/internal/platform"
	"oagrid/internal/store"
)

// prober replays a workload's own shapes straight into each layer's public
// functions and times the calls from outside. Every call is also a span
// named after the function, so the traced report lists the layers next to
// the campaign stages.
type prober struct {
	w *workload
	// sh is the shape the probes replay: a never-seen NM on a workload that
	// has them (what a miss costs), the popular shape otherwise.
	sh shape
	// chunk is the typical number of scenarios one cluster receives.
	chunk    int
	clusters []*platform.Cluster
	// budget bounds each probe loop; minCalls of them run whatever it says.
	budget time.Duration
	// seq numbers the probe spans, starting above any campaign ID.
	seq   uint64
	out   map[string]float64
	spans []span
}

const minCalls = 3

// loop calls fn until the budget is spent and returns each call's duration
// in nanoseconds.
func (p *prober) loop(name string, fn func() error) ([]float64, error) {
	var ns []float64
	var ferr error
	for start := time.Now(); len(ns) < minCalls || time.Since(start) < p.budget; {
		p.seq++
		s := timed(p.w.name, p.seq, name, func() { ferr = fn() })
		if ferr != nil {
			return nil, fmt.Errorf("%s probe %s: %w", p.w.name, name, ferr)
		}
		p.spans = append(p.spans, s)
		ns = append(ns, float64(s.dur()))
	}
	return ns, nil
}

// concurrent runs fn from n goroutines for the budget and returns calls per
// second.
func (p *prober) concurrent(n int, fn func(worker int) error) (float64, error) {
	var wg sync.WaitGroup
	counts := make([]int, n)
	errs := make([]error, n)
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Since(start) < p.budget {
				if errs[g] = fn(g); errs[g] != nil {
					return
				}
				counts[g]++
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	total := 0
	for g := range counts {
		if errs[g] != nil {
			return 0, errs[g]
		}
		total += counts[g]
	}
	return float64(total) / elapsed, nil
}

// runProbes fills p.out with every probe metric of the workload. stateDir is
// the journal a WAL workload's traced repetition left behind ("" otherwise).
func runProbes(ctx context.Context, w *workload, gen *generator, budget time.Duration, stateDir string) (*prober, error) {
	p := &prober{w: w, budget: budget, seq: 1 << 32, out: map[string]float64{}, sh: shape{ns: w.ns, nm: w.popular[0]}}
	if w.novelEvery > 0 {
		nm, err := gen.takeNovel(1)
		if err != nil {
			return nil, err
		}
		p.sh.nm = nm[0]
	}
	p.chunk = (w.ns + w.seds - 1) / w.seds
	p.clusters = platform.FiveClusters()[:w.seds]
	for _, cl := range p.clusters {
		cl.Procs = clusterProcs
	}
	steps := []func(context.Context) error{p.engineAndCore}
	if !w.local {
		steps = append(steps, p.transport, p.codec, p.sed)
	}
	if stateDir != "" {
		steps = append(steps, func(context.Context) error { return p.journal(stateDir) })
	}
	for _, step := range steps {
		if err := step(ctx); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// engineAndCore probes the compute layers every workload stands on.
func (p *prober) engineAndCore(context.Context) error {
	cl := p.clusters[0]
	h := core.Knapsack{}
	app := core.Application{Scenarios: p.sh.ns, Months: p.sh.nm}
	share := core.Application{Scenarios: p.chunk, Months: p.sh.nm}

	vecs := make([][]float64, len(p.clusters))
	ns, err := p.loop("engine.PerformanceVector", func() (err error) {
		vecs[0], err = engine.PerformanceVector(engine.DES{}, app, cl, h, engine.Options{}, 0)
		return err
	})
	if err != nil {
		return err
	}
	p.out["engine.perf_vector_ms"] = median(ns) / 1e6
	for i := 1; i < len(p.clusters); i++ {
		if vecs[i], err = engine.PerformanceVector(engine.DES{}, app, p.clusters[i], h, engine.Options{}, 0); err != nil {
			return err
		}
	}
	if ns, err = p.loop("core.Repartition", func() error { _, err := core.Repartition(vecs); return err }); err != nil {
		return err
	}
	p.out["core.repartition_us"] = median(ns) / 1e3
	// A fleet-sized matrix: 64 clusters of differing speed, 100 scenarios.
	rng := rand.New(rand.NewPCG(64, 100))
	wide := make([][]float64, 64)
	for c := range wide {
		wide[c] = make([]float64, 100)
		speed := 1 + rng.Float64()
		for k := range wide[c] {
			wide[c][k] = speed * float64(k+1)
		}
	}
	if ns, err = p.loop("core.Repartition/64x100", func() error { _, err := core.Repartition(wide); return err }); err != nil {
		return err
	}
	p.out["core.repartition_64x100_us"] = median(ns) / 1e3

	var alloc core.Allocation
	if ns, err = p.loop("core.Knapsack.Plan", func() (err error) {
		alloc, err = h.Plan(share, cl.Timing, cl.Procs)
		return err
	}); err != nil {
		return err
	}
	p.out["core.plan_us"] = median(ns) / 1e3
	lo, hi := cl.Timing.Range()
	prob := knapsack.Problem{Capacity: cl.Procs, MaxItems: p.chunk}
	for g := lo; g <= hi; g++ {
		tg, err := cl.Timing.MainSeconds(g)
		if err != nil {
			return err
		}
		prob.Items = append(prob.Items, knapsack.Item{Cost: g, Value: 1 / tg})
	}
	if ns, err = p.loop("knapsack.Solve", func() error { _, err := knapsack.Solve(prob); return err }); err != nil {
		return err
	}
	p.out["knapsack.solve_us"] = median(ns) / 1e3

	if ns, err = p.loop("exec.Run", func() error {
		_, err := exec.Run(share, cl.Timing, cl.Procs, alloc, exec.Options{})
		return err
	}); err != nil {
		return err
	}
	p.out["exec.run_ms"] = median(ns) / 1e6
	for _, ev := range []engine.Evaluator{engine.DES{}, engine.Model{}} {
		if ns, err = p.loop("engine.Evaluate/"+ev.Name(), func() error {
			_, err := ev.Evaluate(share, cl, alloc, engine.Options{})
			return err
		}); err != nil {
			return err
		}
		p.out["engine."+ev.Name()+"_jobs_per_s"] = 1e9 / median(ns)
	}
	jobs := make([]engine.Job, 0, 4*p.sh.ns)
	for len(jobs) < cap(jobs) {
		jobs = append(jobs, engine.Job{App: core.Application{Scenarios: len(jobs)%p.sh.ns + 1, Months: p.sh.nm}, Cluster: cl, Heuristic: h})
	}
	var sweepNs [2]float64
	for i, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		if ns, err = p.loop(fmt.Sprintf("engine.Sweep/%dw", workers), func() error {
			return engine.FirstError(engine.Sweep(engine.DES{}, jobs, workers))
		}); err != nil {
			return err
		}
		sweepNs[i] = median(ns)
	}
	p.out["engine.sweep_scaling"] = sweepNs[0] / sweepNs[1]
	return nil
}

// transport probes the wire below the scheduler: a loopback diet.Serve echo,
// so the figure is dial + frame + reply and nothing else.
func (p *prober) transport(ctx context.Context) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		diet.Serve(ln, func(*diet.Request) *diet.Response { return &diet.Response{Stats: &diet.StatsResponse{}} })
	}()
	defer func() {
		ln.Close()
		<-served
	}()
	addr := ln.Addr().String()
	call := func() error {
		req := &diet.Request{Version: diet.ProtocolVersion, Kind: diet.KindStats, Stats: &diet.StatsRequest{}}
		_, err := diet.RoundTripContext(ctx, addr, req, opTimeout)
		return err
	}
	// The first exchange with any peer is legacy-coded; campaigns pay that
	// once per SeD during set-up, so the probe does not time it either.
	if err := call(); err != nil {
		return err
	}
	ns, err := p.loop("diet.RoundTrip", call)
	if err != nil {
		return err
	}
	p.out["diet.rtt_us"], p.out["diet.rtt_p95_us"] = median(ns)/1e3, percentile(ns, 95)/1e3
	p.out["diet.rtt_conc_per_s"], err = p.concurrent(runtime.GOMAXPROCS(0), func(int) error { return call() })
	return err
}

// codec times the binary codec over the frames one campaign of the
// workload's shape puts on the wire: submit, a perf exchange of NS floats,
// an exec exchange, a progress frame and the result.
func (p *prober) codec(context.Context) error {
	ids := make([]int, p.chunk)
	vec := make([]float64, p.sh.ns)
	for i := range vec {
		vec[i] = 1234.5625 * float64(i+1)
	}
	chunk := &diet.ExecResponse{
		Cluster: p.clusters[0].Name, Makespan: 1234.5625, Scenarios: p.chunk,
		Allocation: core.Allocation{Groups: []int{8, 8, 8}, PostProcs: 4, Heuristic: core.NameKnapsack},
	}
	reports := make([]diet.ExecResponse, len(p.clusters))
	for i := range reports {
		reports[i] = *chunk
	}
	const v = diet.ProtocolVersion
	reqs := []*diet.Request{
		{Version: v, Kind: diet.KindSubmit, Submit: &diet.SubmitRequest{Scenarios: p.sh.ns, Months: p.sh.nm, Heuristic: core.NameKnapsack, Wait: true, Progress: true}},
		{Version: v, Kind: diet.KindPerf, Perf: &diet.PerfRequest{Scenarios: p.sh.ns, Months: p.sh.nm, Heuristic: core.NameKnapsack}},
		{Version: v, Kind: diet.KindExec, Exec: &diet.ExecRequest{ScenarioIDs: ids, Months: p.sh.nm, Heuristic: core.NameKnapsack}},
	}
	resps := []*diet.Response{
		{Version: v, Submit: &diet.SubmitResponse{ID: 7, Accepted: true}},
		{Version: v, Perf: &diet.PerfResponse{Cluster: p.clusters[0].Name, Procs: clusterProcs, Vector: vec}},
		{Version: v, Exec: chunk},
		{Version: v, Progress: &diet.ProgressUpdate{ID: 7, Stage: diet.StageChunk, Done: p.chunk, Total: p.sh.ns, Chunk: chunk}},
		{Version: v, Result: &diet.CampaignResult{ID: 7, Status: diet.CampaignDone, Makespan: 1234.5625, Reports: reports, Done: p.sh.ns, Total: p.sh.ns}},
	}
	frames := float64(len(reqs) + len(resps))
	buf := make([]byte, 0, 4096)
	encode := func() (err error) {
		for _, r := range reqs {
			if buf, err = diet.AppendRequestFrame(buf[:0], r); err != nil {
				return err
			}
		}
		for _, r := range resps {
			if buf, err = diet.AppendResponseFrame(buf[:0], r); err != nil {
				return err
			}
		}
		return nil
	}
	type frame struct {
		hdr     diet.FrameHeader
		payload []byte
	}
	var encoded []frame
	for i := 0; i < len(reqs)+len(resps); i++ {
		var b []byte
		var err error
		if i < len(reqs) {
			b, err = diet.AppendRequestFrame(nil, reqs[i])
		} else {
			b, err = diet.AppendResponseFrame(nil, resps[i-len(reqs)])
		}
		if err != nil {
			return err
		}
		hdr, payload, err := diet.ParseFrame(b)
		if err != nil {
			return err
		}
		encoded = append(encoded, frame{hdr, payload})
	}
	dec := &diet.FrameDecoder{}
	decode := func() (err error) {
		for i, f := range encoded {
			if i < len(reqs) {
				_, err = dec.DecodeRequestFrame(f.hdr, f.payload)
			} else {
				_, err = dec.DecodeResponseFrame(f.hdr, f.payload)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	ns, err := p.loop("diet.AppendFrame", encode)
	if err != nil {
		return err
	}
	p.out["diet.encode_ns_per_frame"] = median(ns) / frames
	if ns, err = p.loop("diet.FrameDecoder", decode); err != nil {
		return err
	}
	p.out["diet.decode_ns_per_frame"] = median(ns) / frames
	p.out["diet.codec_allocs_per_frame"] = testing.AllocsPerRun(100, func() {
		_ = encode()
		_ = decode()
	}) / (2 * frames)
	return nil
}

// sed times the two exchanges the scheduler has with a real SeD: the perf
// vector of the workload's shape and the execution of a typical chunk.
func (p *prober) sed(ctx context.Context) error {
	sed, err := diet.StartSeD("127.0.0.1:0", p.clusters[0], exec.Options{})
	if err != nil {
		return err
	}
	defer sed.Close()
	perf := &diet.Request{Version: diet.ProtocolVersion, Kind: diet.KindPerf,
		Perf: &diet.PerfRequest{Scenarios: p.sh.ns, Months: p.sh.nm, Heuristic: core.NameKnapsack}}
	run := &diet.Request{Version: diet.ProtocolVersion, Kind: diet.KindExec,
		Exec: &diet.ExecRequest{ScenarioIDs: make([]int, p.chunk), Months: p.sh.nm, Heuristic: core.NameKnapsack}}
	call := func(req *diet.Request) func() error {
		return func() error {
			_, err := diet.RoundTripContext(ctx, sed.Addr(), req, opTimeout)
			return err
		}
	}
	if err := call(run)(); err != nil { // the legacy-coded first exchange
		return err
	}
	ns, err := p.loop("diet.RoundTrip/perf", call(perf))
	if err != nil {
		return err
	}
	p.out["diet.sed_perf_ms"] = median(ns) / 1e6
	if ns, err = p.loop("diet.RoundTrip/exec", call(run)); err != nil {
		return err
	}
	p.out["diet.sed_exec_ms"] = median(ns) / 1e6
	return nil
}

// journal probes the durability layer on the journal the traced repetition
// left: the write side replays that journal's own record sequence into a
// fresh store on the same filesystem, the read side opens and ships it.
func (p *prober) journal(stateDir string) error {
	campaigns, err := store.ReplayFile(journalFile(stateDir))
	if err != nil {
		return err
	}
	var recs []store.Record
	for _, c := range store.ByID(campaigns) {
		if recs = append(recs, c.Records()...); len(recs) >= 64 {
			break
		}
	}
	if len(recs) == 0 {
		return fmt.Errorf("journal %s holds no record", journalFile(stateDir))
	}
	scratch := stateDir + "-probe"
	defer os.RemoveAll(scratch)
	st, _, err := store.Open(scratch)
	if err != nil {
		return err
	}
	next := 0
	ns, err := p.loop("store.Append", func() error {
		next++
		return st.Append(recs[next%len(recs)])
	})
	if err != nil {
		st.Close()
		return err
	}
	p.out["store.append_us"], p.out["store.append_p95_us"] = median(ns)/1e3, percentile(ns, 95)/1e3
	p.out["store.append_conc_per_s"], err = p.concurrent(4, func(g int) error { return st.Append(recs[g%len(recs)]) })
	if err != nil {
		st.Close()
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}

	records := 0
	for _, c := range campaigns {
		records += len(c.Records())
	}
	var live *store.Store
	ns, err = p.loop("store.Open", func() (err error) {
		if live != nil {
			if err = live.Close(); err != nil {
				return err
			}
		}
		live, _, err = store.Open(stateDir)
		return err
	})
	if err != nil {
		return err
	}
	defer live.Close()
	p.out["store.open_replay_ms"] = median(ns) / 1e6
	p.out["store.replay_records_per_s"] = float64(records) / (median(ns) / 1e9)
	size := live.Size()
	if ns, err = p.loop("store.ReadSegment", func() error {
		for off := int64(0); off < size; {
			seg, err := live.ReadSegment(live.Generation(), off)
			if err != nil {
				return err
			}
			if seg.Offset <= off {
				return fmt.Errorf("ReadSegment made no progress at offset %d", off)
			}
			off = seg.Offset
		}
		return nil
	}); err != nil {
		return err
	}
	p.out["store.read_segment_mb_per_s"] = float64(size) / (1 << 20) / (median(ns) / 1e9)
	return nil
}

// readJournal counts what the repetition's campaigns left in the WAL.
func (rep *repResult) readJournal(stateDir string) error {
	campaigns, err := store.ReplayFile(journalFile(stateDir))
	if err != nil {
		return err
	}
	fi, err := os.Stat(journalFile(stateDir))
	if err != nil {
		return err
	}
	if len(campaigns) == 0 {
		return fmt.Errorf("journal %s holds no campaign", journalFile(stateDir))
	}
	records := 0
	for _, c := range campaigns {
		records += len(c.Records())
	}
	rep.journalRecs = float64(records) / float64(len(campaigns))
	rep.journalSize = float64(fi.Size()) / float64(len(campaigns))
	return nil
}
