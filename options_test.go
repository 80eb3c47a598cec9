package oagrid

import (
	"context"
	"math"
	"testing"
)

// runLocal runs one campaign on a fresh Local runner and returns its result.
func runLocal(t *testing.T, c Campaign, opts ...RunnerOption) *CampaignResult {
	t.Helper()
	r, err := Local(testFleet(2), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h, err := r.Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameMakespans reports whether two results agree bit for bit on the
// campaign makespan and on every chunk's placement and makespan.
func sameMakespans(a, b *CampaignResult) bool {
	if math.Float64bits(a.Makespan) != math.Float64bits(b.Makespan) || len(a.Reports) != len(b.Reports) {
		return false
	}
	for i := range a.Reports {
		x, y := a.Reports[i], b.Reports[i]
		if x.Cluster != y.Cluster || x.Scenarios != y.Scenarios ||
			math.Float64bits(x.Makespan) != math.Float64bits(y.Makespan) {
			return false
		}
	}
	return true
}

// TestWithBackendModel: a Local runner on the analytical backend reports,
// for every chunk, exactly what engine.Model evaluates for that share.
func TestWithBackendModel(t *testing.T) {
	const months = 24
	fleet := map[string]*Cluster{}
	for _, cl := range testFleet(2) {
		fleet[cl.Name] = cl
	}
	res := runLocal(t, NewCampaign(8, months), WithBackend(ModelBackend))
	if len(res.Reports) == 0 {
		t.Fatal("no chunk reports")
	}
	for _, rep := range res.Reports {
		share := NewExperiment(rep.Scenarios, months)
		cl := fleet[rep.Cluster]
		alloc, err := Plan(Knapsack, share, cl)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Evaluate(ModelBackend, share, cl, alloc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rep.Makespan) != math.Float64bits(want.Makespan) {
			t.Fatalf("%s×%d: runner reported %g, engine.Model %g", rep.Cluster, rep.Scenarios, rep.Makespan, want.Makespan)
		}
		if rep.Result == nil || rep.Result.Backend != ModelBackend.Name() {
			t.Fatalf("%s×%d: backend report %+v, want one from %q", rep.Cluster, rep.Scenarios, rep.Result, ModelBackend.Name())
		}
	}
}

// TestWithTraceLiveOnly: WithTrace puts a span trace on every live chunk
// report; the same campaign read back from the state dir carries no backend
// Result at all — traces live in memory, never in the journal.
func TestWithTraceLiveOnly(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	r1, err := Local(testFleet(2), WithTrace(), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	h, err := r1.Run(ctx, NewCampaign(6, 12))
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	for ev := range h.Events() {
		if chunk, ok := ev.(EventChunkDone); ok {
			streamed++
			if chunk.Report.Result == nil || chunk.Report.Result.Trace == nil {
				t.Fatalf("live chunk event for %s carries no trace", chunk.Report.Cluster)
			}
		}
	}
	live, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if streamed == 0 || streamed != len(live.Reports) {
		t.Fatalf("%d chunk events for %d reports", streamed, len(live.Reports))
	}
	for _, rep := range live.Reports {
		if rep.Result == nil || rep.Result.Trace == nil || len(rep.Result.Trace.Spans) == 0 {
			t.Fatalf("live report for %s has no trace: %+v", rep.Cluster, rep.Result)
		}
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Local(testFleet(2), WithTrace(), WithStateDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	ah, err := r2.Attach(ctx, h.ID())
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := ah.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, live, recovered)
	for _, rep := range recovered.Reports {
		if rep.Result != nil {
			t.Fatalf("recovered report for %s carries a backend Result", rep.Cluster)
		}
	}
}

// TestWithJitterReproducible: a jittered campaign repeats bit for bit under
// the same (amplitude, seed) and differs from the unjittered one.
func TestWithJitterReproducible(t *testing.T) {
	c := NewCampaign(6, 24)
	plain := runLocal(t, c)
	a := runLocal(t, c, WithJitter(0.2, 7))
	b := runLocal(t, c, WithJitter(0.2, 7))
	if !sameMakespans(a, b) {
		t.Fatalf("same jitter stream, different results: %+v vs %+v", a, b)
	}
	if math.Float64bits(a.Makespan) == math.Float64bits(plain.Makespan) {
		t.Fatalf("jittered makespan %g equals the unjittered one", a.Makespan)
	}
}

// TestWithWorkersBitIdentical: the sweep pool's size never changes a result.
func TestWithWorkersBitIdentical(t *testing.T) {
	c := NewCampaign(8, 24)
	if one, def := runLocal(t, c, WithWorkers(1)), runLocal(t, c); !sameMakespans(one, def) {
		t.Fatalf("WithWorkers(1) %+v differs from the default pool %+v", one, def)
	}
}
