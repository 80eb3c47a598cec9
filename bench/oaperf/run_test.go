package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"oagrid"
)

// A campaign that was refused, failed, timed out or came back different from
// serial evaluation counts as failed and contributes no latency sample.
func TestTallyKeepsFailuresOutOfTheSamples(t *testing.T) {
	good := &oagrid.CampaignResult{Makespan: 7200}
	outs := []outcome{
		{opResult: opResult{id: 1, res: good}, latency: 3 * time.Millisecond},
		{opResult: opResult{err: fmt.Errorf("admission: %w", oagrid.ErrRejected)}, latency: time.Millisecond},
		{opResult: opResult{id: 3, err: fmt.Errorf("run: %w", oagrid.ErrCampaignFailed)}, latency: time.Millisecond},
		{opResult: opResult{id: 4, err: context.DeadlineExceeded}, latency: 30 * time.Second},
		{opResult: opResult{id: 5, res: &oagrid.CampaignResult{Makespan: 1}}, latency: time.Millisecond},
	}
	verify := func(_ shape, res *oagrid.CampaignResult) error {
		if res != good {
			return errors.New("reported 1, serial evaluation 7200")
		}
		return nil
	}
	got := tally(outs, verify)
	if got.attempted != 5 || got.failed != 4 {
		t.Errorf("attempted %d failed %d, want 5 and 4", got.attempted, got.failed)
	}
	if len(got.latMs) != 1 || got.latMs[0] != 3 {
		t.Errorf("latency samples %v, want only the good campaign's 3 ms", got.latMs)
	}
	if len(got.makespans) != 1 || len(got.ok) != 1 {
		t.Errorf("%d makespans and %d successes, want 1 and 1", len(got.makespans), len(got.ok))
	}
	if len(got.mismatches) != 1 {
		t.Errorf("mismatches %v, want exactly the tampered campaign", got.mismatches)
	}
}

// The verifier the harness builds must accept a real result and reject the
// same result once a single chunk no longer matches serial evaluation.
func TestVerifierCatchesATamperedResult(t *testing.T) {
	w, err := workloadByName("local-wal")
	if err != nil {
		t.Fatal(err)
	}
	e, err := startEnv(context.Background(), w, "")
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	sh := shape{ns: 3, nm: 4}
	r := campaignOp(context.Background(), e.runner, sh, true)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.events == 0 || r.marks[atResult].IsZero() || r.marks[atResult].Before(r.marks[atRun]) {
		t.Errorf("traced campaign saw %d events, marks %v", r.events, r.marks)
	}
	verify, err := verifier(e.clusters)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify(sh, r.res); err != nil {
		t.Fatalf("a genuine result failed verification: %v", err)
	}
	r.res.Reports[0].Makespan += 1e-9
	if err := verify(sh, r.res); err == nil {
		t.Error("a result with one altered chunk makespan passed verification")
	}
	if got := tally([]outcome{{opResult: r, shape: sh}}, verify); got.failed != 1 || len(got.latMs) != 0 {
		t.Errorf("tampered campaign: failed %d, samples %v", got.failed, got.latMs)
	}
}

// Latency counts from when a campaign was due. If the generator itself runs
// late, the wait is still charged to the campaigns it delayed.
func TestOpenLoopChargesGeneratorLag(t *testing.T) {
	const late = 30 * time.Millisecond
	sched := []arrival{{due: 0}, {due: time.Millisecond}, {due: 2 * time.Millisecond}}
	outs, _ := openLoop(time.Now().Add(-late), sched, func(arrival) opResult { return opResult{} })
	for i, o := range outs {
		if o.latency < late-3*time.Millisecond {
			t.Errorf("campaign %d: latency %v, want at least the %v it was started late", i, o.latency, late)
		}
		if o.lag < late-3*time.Millisecond {
			t.Errorf("campaign %d: generator lag %v not reported", i, o.lag)
		}
	}
}

// One stalled operation in a system that serves one at a time delays the
// ones due behind it; each is charged its own wait, and the generator keeps
// to its schedule meanwhile.
func TestOpenLoopChargesAStallToLaterCampaigns(t *testing.T) {
	const stall = 60 * time.Millisecond
	var server sync.Mutex
	sched := []arrival{{due: 0, shape: shape{nm: 1}}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}}
	outs, peak := openLoop(time.Now(), sched, func(a arrival) opResult {
		server.Lock()
		defer server.Unlock()
		if a.nm == 1 {
			time.Sleep(stall)
		}
		return opResult{}
	})
	for i, o := range outs {
		if want := stall - sched[i].due; o.latency < want {
			t.Errorf("campaign %d due at %v: latency %v, want at least %v", i, sched[i].due, o.latency, want)
		}
		if o.lag > 5*time.Millisecond {
			t.Errorf("campaign %d was started %v late although only the system stalled", i, o.lag)
		}
	}
	if peak != 3 {
		t.Errorf("in-flight peak %d, want 3: the stalled campaigns overlap", peak)
	}
}

func TestClosedLoopCountsPerClient(t *testing.T) {
	const service = 2 * time.Millisecond
	outs, perS, err := closedLoop(100*time.Millisecond, 3, []shape{{nm: 12}}, true, func(shape) opResult {
		time.Sleep(service)
		return opResult{res: &oagrid.CampaignResult{}}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three clients at one campaign per ≥2 ms: at most 1500/s, and well
	// above a single client's 500/s unless the box is badly overloaded.
	if perS > 1500 || perS < 300 {
		t.Errorf("closed-loop rate %.0f/s, want between one and three clients' worth", perS)
	}
	if len(outs) < 30 {
		t.Errorf("%d outcomes kept for verification, want every completed campaign", len(outs))
	}
}

func TestClosedLoopRefusesToRepeatNovelShapes(t *testing.T) {
	seq := []shape{{nm: 300, novel: true}, {nm: 600}}
	_, _, err := closedLoop(50*time.Millisecond, 2, seq, false, func(shape) opResult { return opResult{} })
	if err == nil {
		t.Error("clients ran off the end of a no-wrap sequence without an error")
	}
}
