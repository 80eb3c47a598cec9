package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []span{
		{Workload: "w", ID: 1, Name: "root", StartNs: 0, EndNs: 100},
		// Two overlapping children cover [10,60); a third sticks out past the
		// parent's end and counts only up to it.
		{Workload: "w", ID: 1, Name: "a", Parent: "root", StartNs: 10, EndNs: 40},
		{Workload: "w", ID: 1, Name: "b", Parent: "root", StartNs: 30, EndNs: 60},
		{Workload: "w", ID: 1, Name: "c", Parent: "root", StartNs: 90, EndNs: 120},
		// A grandchild reduces its parent's self time, not the root's.
		{Workload: "w", ID: 1, Name: "a1", Parent: "a", StartNs: 10, EndNs: 15},
		// Same names under another ID must not leak in.
		{Workload: "w", ID: 2, Name: "a", Parent: "root", StartNs: 0, EndNs: 100},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 100}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got, want[i])
		}
	}
}

func TestCampaignSpansTileTheRoot(t *testing.T) {
	t0 := time.Unix(100, 0)
	var marks [numStages]time.Time
	marks[atRun] = t0
	marks[atAdmitted] = t0.Add(2 * time.Millisecond)
	// No planned event seen: the stage collapses onto its predecessor.
	marks[atLastChunk] = t0.Add(7 * time.Millisecond)
	marks[atResult] = t0.Add(10 * time.Millisecond)
	spans := campaignSpans("w", 9, marks)
	if len(spans) != numStages || spans[0].Name != rootSpan {
		t.Fatalf("got %d spans, first %q", len(spans), spans[0].Name)
	}
	var sum int64
	for i, s := range spans[1:] {
		if s.Parent != rootSpan || s.ID != 9 {
			t.Errorf("stage %s: parent %q id %d", s.Name, s.Parent, s.ID)
		}
		if i > 0 && s.StartNs != spans[i].EndNs {
			t.Errorf("stage %s starts at %d, previous ended at %d", s.Name, s.StartNs, spans[i].EndNs)
		}
		sum += s.dur()
	}
	if sum != spans[0].dur() {
		t.Errorf("stages sum to %d ns, root is %d ns", sum, spans[0].dur())
	}
	if got := spans[2].dur(); got != 0 {
		t.Errorf("queue_plan without a planned event lasts %d ns, want 0", got)
	}
	if got := selfTimes(spans)[0]; got != 0 {
		t.Errorf("root self time %d, want 0: the stages cover it", got)
	}
	share := 0.0
	for _, r := range spanTable(spans) {
		if r.name != rootSpan {
			share += r.sharePct
		}
	}
	if math.Abs(share-100) > 1e-9 {
		t.Errorf("stage shares sum to %g %%, want 100", share)
	}
}
