package oagrid

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"oagrid/internal/diet"
	"oagrid/internal/grid"
	"oagrid/internal/platform"
	"oagrid/internal/store"
)

// testFleet returns the cluster profiles the grid test fabric serves: the
// first n of the paper's five Grid'5000 profiles at 30 processors.
func testFleet(n int) []*Cluster {
	clusters := platform.FiveClusters()[:n]
	for _, cl := range clusters {
		cl.Procs = 30
	}
	return clusters
}

// startTestFabric boots an in-process daemon plus SeD fleet matching
// testFleet(n).
func startTestFabric(t *testing.T, n int) *grid.Fabric {
	t.Helper()
	f, err := grid.StartFabric(grid.Config{Addr: "127.0.0.1:0"}, n, 30, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if err := f.WaitAlive(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestLocalAndDialBitIdentical is the acceptance criterion of the client
// API: the same Campaign through the same Runner interface, once in-process
// and once against a live daemon serving the same cluster profiles, must
// produce bit-identical Results.
func TestLocalAndDialBitIdentical(t *testing.T) {
	ctx := context.Background()
	campaign := NewCampaign(10, 24)

	local, err := Local(testFleet(3))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	fabric := startTestFabric(t, 3)
	remote, err := Dial(ctx, fabric.Sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	results := make(map[string]*CampaignResult, 2)
	for name, runner := range map[string]Runner{"local": local, "remote": remote} {
		h, err := runner.Run(ctx, campaign)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var planned, chunks int
		var lastProgress EventProgress
		for ev := range h.Events() {
			switch ev := ev.(type) {
			case EventPlanned:
				planned++
				if len(ev.Shares) == 0 {
					t.Errorf("%s: planned event without shares", name)
				}
			case EventChunkDone:
				chunks++
			case EventProgress:
				lastProgress = ev
			}
		}
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if planned == 0 || chunks == 0 {
			t.Errorf("%s: event stream missed stages: %d planned, %d chunks", name, planned, chunks)
		}
		if lastProgress.Done != campaign.Experiment.Scenarios || lastProgress.Total != campaign.Experiment.Scenarios {
			t.Errorf("%s: last progress %d/%d, want %d/%d", name,
				lastProgress.Done, lastProgress.Total, campaign.Experiment.Scenarios, campaign.Experiment.Scenarios)
		}
		results[name] = res
	}

	l, r := results["local"], results["remote"]
	if math.Float64bits(l.Makespan) != math.Float64bits(r.Makespan) {
		t.Fatalf("makespans differ: local %g, remote %g", l.Makespan, r.Makespan)
	}
	if len(l.Reports) != len(r.Reports) {
		t.Fatalf("report counts differ: local %d, remote %d", len(l.Reports), len(r.Reports))
	}
	for i := range l.Reports {
		lr, rr := l.Reports[i], r.Reports[i]
		if lr.Cluster != rr.Cluster || lr.Scenarios != rr.Scenarios {
			t.Fatalf("report %d differs: local %s×%d, remote %s×%d", i, lr.Cluster, lr.Scenarios, rr.Cluster, rr.Scenarios)
		}
		if math.Float64bits(lr.Makespan) != math.Float64bits(rr.Makespan) {
			t.Fatalf("report %d (%s) makespan differs: local %g, remote %g", i, lr.Cluster, lr.Makespan, rr.Makespan)
		}
		if lr.Allocation.String() != rr.Allocation.String() {
			t.Fatalf("report %d (%s) allocation differs: local %v, remote %v", i, lr.Cluster, lr.Allocation, rr.Allocation)
		}
	}

	// The campaign result must also be bit-identical to a serial engine
	// evaluation of each cluster's share.
	v, err := grid.NewVerifier(fabric.Clusters, KnapsackName)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range l.Reports {
		want, err := v.SerialMakespan(rep.Cluster, rep.Scenarios, campaign.Experiment.Months)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rep.Makespan) != math.Float64bits(want) {
			t.Fatalf("cluster %s: campaign makespan %g, serial evaluation %g", rep.Cluster, rep.Makespan, want)
		}
	}
}

// TestLocalRunnerCancellation: a ctx cancelled mid-campaign stops the sweep
// workers promptly and resolves the handle with ctx's error.
func TestLocalRunnerCancellation(t *testing.T) {
	// A big enough campaign that cancellation lands mid-sweep.
	runner, err := Local(testFleet(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h, err := runner.Run(ctx, NewCampaign(10, 1800))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	start := time.Now()
	res, err := h.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait returned %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled campaign returned a result: %+v", res)
	}
	if wait := time.Since(start); wait > 10*time.Second {
		t.Fatalf("cancellation took %v", wait)
	}
}

// TestDialRunnerCancellation: cancelling a remote campaign releases the
// client connection and does not wedge a daemon dispatcher — the daemon
// still serves subsequent campaigns.
func TestDialRunnerCancellation(t *testing.T) {
	fabric := startTestFabric(t, 3)
	ctx := context.Background()
	runner, err := Dial(ctx, fabric.Sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()

	runCtx, cancel := context.WithCancel(ctx)
	h, err := runner.Run(runCtx, NewCampaign(10, 240))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait returned %v, want context.Canceled", err)
	}

	// The daemon must still be fully operational: the abandoned campaign
	// keeps running (or finishes) server-side, and a fresh one completes.
	h2, err := runner.Run(ctx, NewCampaign(4, 12))
	if err != nil {
		t.Fatal(err)
	}
	res, err := h2.Wait()
	if err != nil {
		t.Fatalf("campaign after cancellation failed: %v", err)
	}
	if res.Makespan <= 0 {
		t.Fatal("non-positive makespan after cancellation")
	}
}

// TestCampaignFailedTyped: a daemon with no live SeD fails the campaign at
// its deadline, and the failure surfaces as ErrCampaignFailed.
func TestCampaignFailedTyped(t *testing.T) {
	sched, err := grid.Start(grid.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })

	runner, err := Dial(context.Background(), sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	h, err := runner.Run(context.Background(), NewCampaign(2, 6), WithDeadline(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); !errors.Is(err, ErrCampaignFailed) {
		t.Fatalf("Wait returned %v, want ErrCampaignFailed", err)
	}
}

// TestInvalidCampaignRejectedUpFront: malformed campaigns and unknown
// heuristics fail at Run, not through the handle; a malformed fleet fails
// at Local.
func TestInvalidCampaignRejectedUpFront(t *testing.T) {
	runner, err := Local(testFleet(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(context.Background(), NewCampaign(0, 12)); err == nil {
		t.Fatal("zero-scenario campaign accepted")
	}
	bad := NewCampaign(2, 12)
	bad.Heuristic = "no-such-heuristic"
	if _, err := runner.Run(context.Background(), bad); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
	if _, err := Local(nil); err == nil {
		t.Fatal("Local without clusters accepted")
	}
	// The vector cache keys on the cluster name: a second cluster of the
	// same name would be planned with the first one's vector.
	if _, err := Local([]*Cluster{ReferenceCluster(11), ReferenceCluster(60)}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("Local with a duplicate cluster name returned %v, want ErrInvalidConfig", err)
	}
	// A factor 1+amp·(2u−1) below 0 (or NaN) would end a task before it
	// starts, a panic in the campaign goroutine if Local accepted it.
	for _, amp := range []float64{1.5, math.NaN()} {
		r, err := Local(testFleet(1), WithJitter(amp, 7))
		if errors.Is(err, ErrInvalidConfig) {
			continue
		}
		if err == nil {
			var h *Handle
			if h, err = r.Run(context.Background(), NewCampaign(4, 12)); err == nil {
				_, err = h.Wait()
			}
		}
		t.Fatalf("Local with jitter %g returned %v, want ErrInvalidConfig", amp, err)
	}
}

// TestHandleAbandonedSubscriberDoesNotLeak: a consumer that breaks out of
// the event loop early must not strand the delivery goroutine — the
// buffered subscription lets the pump finish and exit.
func TestHandleAbandonedSubscriberDoesNotLeak(t *testing.T) {
	runner, err := Local(testFleet(3))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		h, err := runner.Run(context.Background(), NewCampaign(6, 12))
		if err != nil {
			t.Fatal(err)
		}
		for range h.Events() {
			break // abandon the subscription after one event
		}
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Pumps drain into their buffers and exit; allow them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after 8 abandoned subscriptions", before, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHandleLateSubscriber: Events called after completion still replays
// the full stream, terminated by the EventResult.
func TestHandleLateSubscriber(t *testing.T) {
	runner, err := Local(testFleet(2))
	if err != nil {
		t.Fatal(err)
	}
	h, err := runner.Run(context.Background(), NewCampaign(4, 12))
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// Two independent subscribers, both late: each must replay the complete
	// stream including the terminal event.
	for sub := 0; sub < 2; sub++ {
		var sawPlanned bool
		var events int
		var final *CampaignResult
		for ev := range h.Events() {
			events++
			switch ev := ev.(type) {
			case EventPlanned:
				sawPlanned = true
			case EventResult:
				final = ev.Result
			}
		}
		if !sawPlanned {
			t.Fatalf("subscriber %d missed the planned event", sub)
		}
		if events < 3 { // planned + ≥1 chunk/progress + result
			t.Fatalf("subscriber %d saw only %d events", sub, events)
		}
		if final == nil || math.Float64bits(final.Makespan) != math.Float64bits(want.Makespan) {
			t.Fatalf("subscriber %d result %+v does not match Wait %+v", sub, final, want)
		}
	}
}

// TestDialAttachReplaysHistory: Runner.Attach against a daemon returns a
// handle that replays the campaign's full event history — admission,
// planned shares, every chunk — and resolves to a result bit-identical to
// the one the original handle saw.
func TestDialAttachReplaysHistory(t *testing.T) {
	ctx := context.Background()
	fabric := startTestFabric(t, 3)
	runner, err := Dial(ctx, fabric.Sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()

	h, err := runner.Run(ctx, NewCampaign(6, 12))
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	id := h.ID()
	if id == 0 {
		t.Fatal("completed campaign has no ID")
	}

	ah, err := runner.Attach(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	var admitted, planned, chunks int
	var final *CampaignResult
	for ev := range ah.Events() {
		switch ev := ev.(type) {
		case EventAdmitted:
			admitted++
			if ev.ID != id {
				t.Fatalf("attached handle admitted as %d, want %d", ev.ID, id)
			}
		case EventPlanned:
			planned++
		case EventChunkDone:
			chunks++
		case EventResult:
			final = ev.Result
		}
	}
	if admitted != 1 || planned == 0 || chunks == 0 || final == nil {
		t.Fatalf("attach replay missed stages: %d admitted, %d planned, %d chunks, result %v",
			admitted, planned, chunks, final != nil)
	}
	got, err := ah.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if ah.ID() != id {
		t.Fatalf("attached handle ID %d, want %d", ah.ID(), id)
	}
	assertSameResult(t, want, got)

	// An unknown ID resolves the handle with the typed error.
	uh, err := runner.Attach(ctx, 424242)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uh.Wait(); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("attach to unknown campaign resolved with %v, want ErrUnknownCampaign", err)
	}
}

// assertSameResult compares two campaign results bit for bit on everything
// that travels wires and journals (the full backend Result does not).
func assertSameResult(t *testing.T, want, got *CampaignResult) {
	t.Helper()
	if math.Float64bits(want.Makespan) != math.Float64bits(got.Makespan) {
		t.Fatalf("makespan %g, want %g", got.Makespan, want.Makespan)
	}
	if got.Requeues != want.Requeues || len(got.Reports) != len(want.Reports) {
		t.Fatalf("result %+v, want %+v", got, want)
	}
	for i := range want.Reports {
		w, g := want.Reports[i], got.Reports[i]
		if w.Cluster != g.Cluster || w.Scenarios != g.Scenarios || w.Round != g.Round ||
			math.Float64bits(w.Makespan) != math.Float64bits(g.Makespan) ||
			w.Allocation.String() != g.Allocation.String() {
			t.Fatalf("report %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestLocalReportAllocationIsCallersOwn: a Local runner plans each shape
// once and shares the plan with every later chunk of the shape, so the
// allocations it reports must be copies. A caller that scribbles over every
// reported allocation — on the events and on the result — changes nothing
// about the next campaign of the shape.
func TestLocalReportAllocationIsCallersOwn(t *testing.T) {
	runner, err := Local(testFleet(3))
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	campaign := NewCampaign(10, 24)
	run := func() *CampaignResult {
		t.Helper()
		h, err := runner.Run(context.Background(), campaign)
		if err != nil {
			t.Fatal(err)
		}
		var chunks []ClusterReport
		for ev := range h.Events() {
			if ev, ok := ev.(EventChunkDone); ok {
				chunks = append(chunks, ev.Report)
			}
		}
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) == 0 {
			t.Fatal("no chunk events")
		}
		want := *res
		want.Reports = make([]ClusterReport, len(res.Reports))
		for i, rep := range res.Reports {
			rep.Allocation.Groups = append([]int(nil), rep.Allocation.Groups...)
			want.Reports[i] = rep
		}
		for _, rep := range append(chunks, res.Reports...) {
			for j := range rep.Allocation.Groups {
				rep.Allocation.Groups[j] = 1
			}
		}
		return &want
	}
	first := run()
	second := run()
	assertSameResult(t, first, second)
	for i := range first.Reports {
		if !reflect.DeepEqual(first.Reports[i].Allocation, second.Reports[i].Allocation) {
			t.Fatalf("report %d allocation %+v, first run %+v", i, second.Reports[i].Allocation, first.Reports[i].Allocation)
		}
	}
}

// TestLocalDurableRecoveryAndAttach: a Local runner with a state dir
// journals its campaigns; a new runner on the same dir serves them again —
// same IDs, same event history, bit-identical results.
func TestLocalDurableRecoveryAndAttach(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	r1, err := Local(testFleet(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	h, err := r1.Run(ctx, NewCampaign(6, 12))
	if err != nil {
		t.Fatal(err)
	}
	id := h.ID()
	if id == 0 {
		t.Fatal("durable local campaign has no ID")
	}
	want, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Local(testFleet(2), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	ah, err := r2.Attach(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ah.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, got)
	var admitted, planned, chunks int
	for ev := range ah.Events() {
		switch ev.(type) {
		case EventAdmitted:
			admitted++
		case EventPlanned:
			planned++
		case EventChunkDone:
			chunks++
		}
	}
	if admitted != 1 || planned == 0 || chunks == 0 {
		t.Fatalf("recovered handle replay missed stages: %d admitted, %d planned, %d chunks", admitted, planned, chunks)
	}
	// Unknown IDs resolve through the handle, the same shape as Dial.
	uh, err := r2.Attach(ctx, 999)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := uh.Wait(); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("attach to unknown local campaign resolved with %v, want ErrUnknownCampaign", err)
	}
}

// TestLocalResumesInterruptedCampaign: a journal with an admitted campaign
// and one completed chunk (the shape a crash mid-campaign leaves) is
// resumed on construction — only the remaining scenarios re-run, and every
// report stays bit-identical to serial evaluation.
func TestLocalResumesInterruptedCampaign(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fleet := testFleet(2)
	clusters := map[string]*Cluster{}
	for _, cl := range fleet {
		clusters[cl.Name] = cl
	}
	v, err := grid.NewVerifier(clusters, KnapsackName)
	if err != nil {
		t.Fatal(err)
	}

	// Forge the half-finished journal: scenarios 0 and 1 completed on the
	// first cluster with the exact serial makespan and plan a real run
	// would have journaled.
	const months = 12
	doneChunk := NewExperiment(2, months)
	alloc, err := Plan(Knapsack, doneChunk, fleet[0])
	if err != nil {
		t.Fatal(err)
	}
	ms, err := v.SerialMakespan(fleet[0].Name, 2, months)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []store.Record{
		{Kind: store.KindAdmitted, ID: 3, Scenarios: 5, Months: months, Heuristic: KnapsackName},
		{Kind: store.KindPlanned, ID: 3, Round: 0, Planned: []diet.PlannedChunk{{Cluster: fleet[0].Name, Scenarios: 2}, {Cluster: fleet[1].Name, Scenarios: 3}}},
		{Kind: store.KindChunk, ID: 3, IDs: []int{0, 1}, Chunk: &diet.ExecResponse{
			Cluster: fleet[0].Name, Makespan: ms, Allocation: alloc, Scenarios: 2, Round: 0, FirstScenario: 0,
		}},
	} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	r, err := Local(fleet, WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ah, err := r.Attach(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ah.Wait()
	if err != nil {
		t.Fatalf("resumed campaign failed: %v", err)
	}

	// All five scenarios accounted for, the journaled chunk kept verbatim,
	// the resumed work in round 1, and every chunk bit-identical to serial.
	total := 0
	sawRecovered, sawResumed := false, false
	for _, rep := range res.Reports {
		total += rep.Scenarios
		if rep.Round == 0 {
			if rep.Cluster != fleet[0].Name || rep.Scenarios != 2 ||
				math.Float64bits(rep.Makespan) != math.Float64bits(ms) {
				t.Fatalf("recovered chunk mangled: %+v", rep)
			}
			sawRecovered = true
		} else {
			sawResumed = true
		}
		wantMs, err := v.SerialMakespan(rep.Cluster, rep.Scenarios, months)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rep.Makespan) != math.Float64bits(wantMs) {
			t.Fatalf("resumed chunk %s×%d makespan %g, serial %g", rep.Cluster, rep.Scenarios, rep.Makespan, wantMs)
		}
	}
	if total != 5 || !sawRecovered || !sawResumed {
		t.Fatalf("resumed campaign reports %+v: %d scenarios, recovered %v, resumed %v",
			res.Reports, total, sawRecovered, sawResumed)
	}
	folded := make([]diet.ExecResponse, len(res.Reports))
	for i, rep := range res.Reports {
		folded[i] = diet.ExecResponse{Makespan: rep.Makespan, Round: rep.Round}
	}
	if got := diet.CampaignMakespan(folded); math.Float64bits(res.Makespan) != math.Float64bits(got) {
		t.Fatalf("resumed makespan %g is not the per-round sum %g", res.Makespan, got)
	}
}

// TestLocalRecoverFullyChunkedCampaign: a crash can land between the last
// chunk record and the terminal record. The recovered campaign has nothing
// remaining — it must finalize as done from the banked reports, not fail on
// a zero-scenario repartition.
func TestLocalRecoverFullyChunkedCampaign(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fleet := testFleet(1)
	const months = 12
	app := NewExperiment(3, months)
	alloc, err := Plan(Knapsack, app, fleet[0])
	if err != nil {
		t.Fatal(err)
	}
	v, err := grid.NewVerifier(map[string]*Cluster{fleet[0].Name: fleet[0]}, KnapsackName)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := v.SerialMakespan(fleet[0].Name, 3, months)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []store.Record{
		{Kind: store.KindAdmitted, ID: 1, Scenarios: 3, Months: months, Heuristic: KnapsackName},
		{Kind: store.KindPlanned, ID: 1, Round: 0, Planned: []diet.PlannedChunk{{Cluster: fleet[0].Name, Scenarios: 3}}},
		{Kind: store.KindChunk, ID: 1, IDs: []int{0, 1, 2}, Chunk: &diet.ExecResponse{
			Cluster: fleet[0].Name, Makespan: ms, Allocation: alloc, Scenarios: 3, Round: 0, FirstScenario: 0,
		}},
		// ... and no terminal record: the process died right here.
	} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	r, err := Local(fleet, WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ah, err := r.Attach(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ah.Wait()
	if err != nil {
		t.Fatalf("fully-chunked campaign recovered as failure: %v", err)
	}
	if len(res.Reports) != 1 || math.Float64bits(res.Makespan) != math.Float64bits(ms) {
		t.Fatalf("recovered result %+v, want one report with makespan %g", res, ms)
	}
}

// TestDialCloseReleasesConnections: a dialed runner keeps its finished
// streams' connections open for the next campaign, and Close gives them
// back — the process's idle-connection gauge and goroutine count return to
// what they were before Dial (the daemon's serve loop for each kept
// connection ends with it). A Dial whose probe fails keeps nothing either.
func TestDialCloseReleasesConnections(t *testing.T) {
	ctx := context.Background()
	fabric := startTestFabric(t, 2)
	campaign := NewCampaign(4, 12)
	// Warm the daemon's own connections to its SeDs, so that only the
	// runner's come and go below.
	warm, err := Dial(ctx, fabric.Sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if h, err := warm.Run(ctx, campaign); err != nil {
		t.Fatal(err)
	} else if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	warm.Close()
	// settled polls until the gauge and the goroutine count reach want's,
	// or reports where they stand after five seconds.
	settled := func(want func(idle int64, goroutines int) bool) (int64, int) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			idle, n := diet.WireStats().IdleConns, runtime.NumGoroutine()
			if want(idle, n) || time.Now().After(deadline) {
				return idle, n
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// The baseline: three equal readings in a row.
	idle, goroutines := diet.WireStats().IdleConns, runtime.NumGoroutine()
	for same := 0; same < 3; {
		time.Sleep(20 * time.Millisecond)
		i, n := diet.WireStats().IdleConns, runtime.NumGoroutine()
		if i == idle && n == goroutines {
			same++
		} else {
			idle, goroutines, same = i, n, 0
		}
	}

	runner, err := Dial(ctx, fabric.Sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h, err := runner.Run(ctx, campaign)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
		if _, err := runner.Info(ctx, h.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if got := diet.WireStats().IdleConns; got <= idle {
		t.Fatalf("idle connections %d with the runner open, %d before Dial: the runner kept nothing", got, idle)
	}
	if err := runner.Close(); err != nil {
		t.Fatal(err)
	}
	if gotIdle, got := settled(func(i int64, n int) bool { return i == idle && n <= goroutines }); gotIdle != idle || got > goroutines {
		t.Fatalf("after Close: %d idle connections and %d goroutines, want %d and at most %d", gotIdle, got, idle, goroutines)
	}

	dead := fabric.Sched.Addr()
	fabric.Close()
	if _, err := Dial(ctx, dead); err == nil {
		t.Fatal("Dial to a closed daemon succeeded")
	}
	if got := diet.WireStats().IdleConns; got > idle {
		t.Fatalf("a failed Dial left %d idle connections, want at most %d", got, idle)
	}
}
