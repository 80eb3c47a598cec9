package store

import (
	"runtime"
	"testing"

	"oagrid/internal/core"
	"oagrid/internal/diet"
)

// TestMirrorHeapPerCampaign measures what the store keeps in memory per
// journaled campaign — the mirror rotation rewrites the file from — against
// what the campaign costs on disk: the retention cap (4096) small campaigns of
// six records each, appended the way a live daemon appends them. The mirror
// holds the file's own bytes, so it must stay within 1.3× of them (decoded
// records, which it used to hold, cost 3.2×).
func TestMirrorHeapPerCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("24576 fsynced appends")
	}
	const campaigns = 4096
	st, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for id := uint64(1); id <= campaigns; id++ {
		recs := []Record{
			{Kind: KindAdmitted, ID: id, Scenarios: 4, Months: 12, Heuristic: "knapsack"},
			{Kind: KindPlanned, ID: id, Planned: []diet.PlannedChunk{{Cluster: "capricorne", Scenarios: 2}, {Cluster: "sagittaire", Scenarios: 1}, {Cluster: "chti", Scenarios: 1}}},
			{Kind: KindChunk, ID: id, IDs: []int{0, 1}, Chunk: &diet.ExecResponse{Cluster: "capricorne", Scenarios: 2, Makespan: 30299.999999999997,
				Allocation: core.Allocation{Groups: []int{11, 11}, PostProcs: 8, Heuristic: "knapsack"}}},
			{Kind: KindChunk, ID: id, IDs: []int{2}, Chunk: &diet.ExecResponse{Cluster: "sagittaire", Scenarios: 1, Makespan: 20200.000000000004, FirstScenario: 2,
				Allocation: core.Allocation{Groups: []int{11}, PostProcs: 19, Heuristic: "knapsack"}}},
			{Kind: KindChunk, ID: id, IDs: []int{3}, Chunk: &diet.ExecResponse{Cluster: "chti", Scenarios: 1, Makespan: 18450.000000000004, FirstScenario: 3,
				Allocation: core.Allocation{Groups: []int{11}, PostProcs: 19, Heuristic: "knapsack"}}},
			{Kind: KindDone, ID: id, Status: diet.CampaignDone, Makespan: 30299.999999999997},
		}
		for _, rec := range recs {
			if err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	retained := float64(heap()-before) / campaigns
	onDisk := float64(st.Size()) / campaigns
	runtime.KeepAlive(st)
	t.Logf("mirror retains %.0f B per campaign for %.0f B of journal: %.2f×", retained, onDisk, retained/onDisk)
	if retained > 1.3*onDisk {
		t.Errorf("mirror retains %.2f× the journal's bytes, want ≤ 1.3×", retained/onDisk)
	}
}
