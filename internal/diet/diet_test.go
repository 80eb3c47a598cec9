package diet

import (
	"errors"
	"math"
	"strings"
	"testing"

	"oagrid/internal/core"
	"oagrid/internal/engine"
	"oagrid/internal/exec"
	"oagrid/internal/platform"
)

func smallClusters() []*platform.Cluster {
	profiles := platform.FiveClusters()[:3]
	for _, c := range profiles {
		c.Procs = 30
	}
	return profiles
}

// startSeD boots one SeD for the cluster on a loopback ephemeral port.
func startSeD(t *testing.T, cl *platform.Cluster) *SeD {
	t.Helper()
	sed, err := StartSeD("127.0.0.1:0", cl, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sed.Close() })
	return sed
}

// TestSubmitMatchesDirectComputation: what a SeD answers over the wire —
// the performance vector of step (3) and the execution report of step (6) —
// is bit for bit what a direct in-process computation gives.
func TestSubmitMatchesDirectComputation(t *testing.T) {
	cl := smallClusters()[0]
	sed := startSeD(t, cl)
	app := core.Application{Scenarios: 6, Months: 24}

	resp, err := RoundTrip(sed.Addr(), &Request{Kind: KindPerf, Perf: &PerfRequest{
		Scenarios: app.Scenarios, Months: app.Months, Heuristic: core.NameKnapsack,
	}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.PerformanceVector(engine.DES{}, app, cl, core.Knapsack{}, engine.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Perf == nil || len(resp.Perf.Vector) != len(want) {
		t.Fatalf("perf response %+v, want a %d-entry vector", resp.Perf, len(want))
	}
	for k := range want {
		if math.Float64bits(resp.Perf.Vector[k]) != math.Float64bits(want[k]) {
			t.Fatalf("vector[%d] = %g over the wire, %g direct", k, resp.Perf.Vector[k], want[k])
		}
	}

	resp, err = RoundTrip(sed.Addr(), &Request{Kind: KindExec, Exec: &ExecRequest{
		ScenarioIDs: []int{0, 1, 2}, Months: app.Months, Heuristic: core.NameKnapsack,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Exec == nil || resp.Exec.Cluster != cl.Name || resp.Exec.Scenarios != 3 {
		t.Fatalf("exec response %+v", resp.Exec)
	}
	// The makespan of k scenarios is entry k-1 of the performance vector.
	if math.Float64bits(resp.Exec.Makespan) != math.Float64bits(want[2]) {
		t.Fatalf("exec makespan %g, direct %g", resp.Exec.Makespan, want[2])
	}
}

func TestSubmitVectorsComplete(t *testing.T) {
	app := core.Application{Scenarios: 4, Months: 12}
	for _, cl := range smallClusters() {
		resp, err := RoundTrip(startSeD(t, cl).Addr(), &Request{Kind: KindPerf, Perf: &PerfRequest{
			Scenarios: app.Scenarios, Months: app.Months, Heuristic: core.NameBasic,
		}})
		if err != nil {
			t.Fatal(err)
		}
		vec := resp.Perf.Vector
		if resp.Perf.Cluster != cl.Name || len(vec) != app.Scenarios {
			t.Fatalf("cluster %s answered %+v, want %d entries", cl.Name, resp.Perf, app.Scenarios)
		}
		for k := 1; k < len(vec); k++ {
			if vec[k] < vec[k-1]-1e-9 {
				t.Fatalf("cluster %s vector not monotone: %v", cl.Name, vec)
			}
		}
	}
}

func TestSubmitErrors(t *testing.T) {
	sed := startSeD(t, smallClusters()[0])
	var remote *RemoteError
	if _, err := RoundTrip(sed.Addr(), &Request{Kind: KindPerf, Perf: &PerfRequest{Heuristic: core.NameBasic}}); !errors.As(err, &remote) {
		t.Fatalf("invalid application: got %v, want a RemoteError", err)
	}
	if _, err := RoundTrip(sed.Addr(), &Request{Kind: KindPerf}); !errors.As(err, &remote) {
		t.Fatalf("empty perf payload: got %v, want a RemoteError", err)
	}
	_, err := RoundTrip("127.0.0.1:1", &Request{Kind: KindPerf, Perf: &PerfRequest{Scenarios: 1, Months: 1, Heuristic: core.NameBasic}})
	if err == nil || errors.As(err, &remote) {
		t.Fatalf("dead address: got %v, want a transport error", err)
	}
}

func TestUnknownHeuristicRejectedRemotely(t *testing.T) {
	sed := startSeD(t, smallClusters()[0])
	_, err := RoundTrip(sed.Addr(), &Request{Kind: KindPerf, Perf: &PerfRequest{Scenarios: 2, Months: 4, Heuristic: "nope"}})
	if err == nil || !strings.Contains(err.Error(), "unknown heuristic") {
		t.Fatalf("unknown heuristic not rejected: %v", err)
	}
}

func TestSeDRejectsUnsupportedKind(t *testing.T) {
	sed := startSeD(t, smallClusters()[0])
	var remote *RemoteError
	if _, err := RoundTrip(sed.Addr(), &Request{Kind: KindStats, Stats: &StatsRequest{}}); !errors.As(err, &remote) {
		t.Fatalf("SeD answered a scheduler request: %v", err)
	}
}
