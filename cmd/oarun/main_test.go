package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"oagrid"
)

// TestRunFlagErrors: bad daemon flags are usage errors, returned before a
// listener opens or a SeD heartbeats.
func TestRunFlagErrors(t *testing.T) {
	base := []string{"-daemon", "-addr", "127.0.0.1:0"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-hb", "0"}, "-hb must be positive"},
		{[]string{"-hb", "-1s"}, "-hb must be positive"},
		{[]string{"-hb", "0", "-seds", "1", "-autoscale", "1:3"}, "-hb must be positive"},
		{[]string{"-seds", "0", "-autoscale", "1:3"}, "-autoscale needs at least one in-process SeD"},
		{[]string{"-autoscale", "3:1"}, "bad -autoscale"},
		{[]string{"-sed-speeds", "1,0"}, "bad -sed-speeds"},
		{[]string{"-tenant-weights", "ocean"}, "bad -tenant-weights"},
		{[]string{"-tenant-weights", "ocean=-2"}, "bad -tenant-weights"},
		{[]string{"-calibrate"}, "flag provided but not defined: -calibrate"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var out bytes.Buffer
			err := run(context.Background(), append(base, tc.args...), &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			if out.Len() != 0 {
				t.Fatalf("printed before failing:\n%s", out.String())
			}
		})
	}
}

// TestRunModel runs the toy coupled model at a tiny scale: a two-month chain
// of one scenario, and a planned two-scenario ensemble.
func TestRunModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"chain", []string{"-months", "2", "-days", "1"}, []string{
			`(?m)^scenario 0 on 8 processors \(5 atmosphere ranks\), 1-day months$`,
			`(?m)^month    0: T=\d+\.\d+K `,
			`(?m)^month    1: T=\d+\.\d+K `,
			`(?m)^outputs in .*scenario-00$`,
		}},
		{"schedule", []string{"-schedule", "-ns", "2", "-months", "1", "-r", "12", "-days", "1"}, []string{
			`(?m)^plan on 12 processors: knapsack: `,
			`(?m)^  s00 m0000 on group \d: main `,
			`(?m)^  s01 m0000 on group \d: main `,
			`(?m)^real wall time: .* for 2 months$`,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(context.Background(), append(tc.args, "-dir", t.TempDir()), &out); err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			for _, p := range tc.want {
				if !regexp.MustCompile(p).MatchString(out.String()) {
					t.Errorf("no match for %q in:\n%s", p, out.String())
				}
			}
		})
	}
}

// syncBuffer is a bytes.Buffer that run may write while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunDaemon serves a daemon on ephemeral ports, reads the addresses it
// announces, completes one campaign through it, finds its -tenant-weights on
// /metrics, and shuts it down by cancelling ctx.
func TestRunDaemon(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-daemon", "-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-seds", "2", "-hb", "50ms",
			"-tenant-weights", "ocean=2,atmos=1",
		}, &out)
	}()

	announced := func(pattern string) string {
		t.Helper()
		re := regexp.MustCompile(pattern)
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			if m := re.FindStringSubmatch(out.String()); m != nil {
				return m[1]
			}
			select {
			case err := <-done:
				t.Fatalf("run returned %v before announcing %q:\n%s", err, pattern, out.String())
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("never announced %q:\n%s", pattern, out.String())
			}
		}
	}
	addr := announced(`(?m)^scheduler daemon listening on (\S+) \(queue 64, 4 dispatchers, 4 in-flight/SeD\)$`)
	metricsAddr := announced(`(?m)^metrics endpoint on http://(\S+)/metrics$`)
	announced(`(?m)^SeD (\S+) +127\.0\.0\.1:\d+ \(30 processors, speed 1\)\n^SeD \S+ `)

	runner, err := oagrid.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	h, err := runner.Run(ctx, oagrid.NewCampaign(2, 12), oagrid.WithLabels(map[string]string{"team": "ocean"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^oagrid_tenant_weight\{tenant="ocean"\} 2$`).Match(metrics) {
		t.Fatalf("/metrics lacks the ocean tenant's weight 2:\n%s", metrics)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run still serving 5s after ctx was cancelled")
	}
	if !strings.HasSuffix(out.String(), "\nshutting down\n") {
		t.Fatalf("no shutdown line:\n%s", out.String())
	}
}
