package main

import (
	"bytes"
	"context"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"oagrid/internal/diet"
	"oagrid/internal/grid"
	"oagrid/internal/platform"
)

// TestRunSurvivesDaemonRestart drives run against an in-process daemon with
// three SeDs and a state dir, and restarts the daemon on the same address
// and dir once a third of the campaigns are done and others are still in
// flight. Every campaign must still complete, through reattach, and verify
// bit-identical.
func TestRunSurvivesDaemonRestart(t *testing.T) {
	cfg := grid.Config{Addr: "127.0.0.1:0", StateDir: t.TempDir(), EvictAfter: time.Second}
	f, err := grid.StartFabric(cfg, 3, 30, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if err := f.WaitAlive(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	cfg.Addr = f.Sched.Addr()

	const campaigns = 30
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), []string{
			"-addr", cfg.Addr, "-campaigns", strconv.Itoa(campaigns), "-rate", "60", "-ns", "20", "-months", "240",
		}, &out)
	}()

	// In flight means queued or running in the campaign table: the
	// Running gauge still counts a campaign whose terminal state is
	// already settled, so it alone can point at a campaign that is done.
	inFlight := func() bool {
		for _, info := range f.Sched.ListCampaigns(nil) {
			if info.Status == diet.CampaignQueued || info.Status == diet.CampaignRunning {
				return true
			}
		}
		return false
	}
	for {
		if f.Sched.Stats().Completed >= campaigns/3 && inFlight() {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run ended before the restart point: %v\n%s", err, out.String())
		case <-time.After(time.Millisecond):
		}
	}
	f.Sched.Close()
	for attempt := 0; ; attempt++ {
		sched, err := grid.Start(cfg)
		if err == nil {
			f.Sched = sched
			break
		}
		if attempt == 100 {
			t.Fatalf("restart on %s: %v", cfg.Addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := <-done; err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verification: every chunk report bit-identical") {
		t.Fatalf("no verification line:\n%s", out.String())
	}
	m := regexp.MustCompile(`(\d+) reattached`).FindStringSubmatch(out.String())
	if m == nil || m[1] == "0" {
		t.Fatalf("no campaign was reattached across the restart:\n%s", out.String())
	}
	t.Log(out.String())
}

// TestVerifierClusters: the Stats → verifier-cluster mapping replays each SeD
// on the profile its name (or its clone's base name) picks, with the
// reported processor count, and refuses a name no profile has.
func TestVerifierClusters(t *testing.T) {
	profile := map[string]*platform.Cluster{}
	for _, cl := range platform.FiveClusters() {
		profile[cl.Name] = cl
	}
	for _, tc := range []struct {
		name    string
		seds    []diet.SeDStatus
		want    map[string]string // SeD name -> profile it replays on
		wantErr string
	}{
		{
			name: "base names",
			seds: []diet.SeDStatus{{Cluster: "sagittaire", Procs: 30}, {Cluster: "chicon", Procs: 12}},
			want: map[string]string{"sagittaire": "sagittaire", "chicon": "chicon"},
		},
		{
			name: "autoscale clones",
			seds: []diet.SeDStatus{{Cluster: "azur", Procs: 30}, {Cluster: "azur#1", Procs: 30}, {Cluster: "azur#12", Procs: 30}},
			want: map[string]string{"azur": "azur", "azur#1": "azur", "azur#12": "azur"},
		},
		{
			name:    "unknown name",
			seds:    []diet.SeDStatus{{Cluster: "sagittaire", Procs: 30}, {Cluster: "reference", Procs: 8}},
			wantErr: `SeD "reference"`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := verifierClusters(tc.seds)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("%d clusters, want %d", len(got), len(tc.want))
			}
			for _, sd := range tc.seds {
				cl, base := got[sd.Cluster], profile[tc.want[sd.Cluster]]
				if cl == nil || cl.Procs != sd.Procs || !reflect.DeepEqual(cl.Timing, base.Timing) {
					t.Fatalf("SeD %q maps to %+v, want profile %q with %d procs", sd.Cluster, cl, base.Name, sd.Procs)
				}
			}
		})
	}
}
