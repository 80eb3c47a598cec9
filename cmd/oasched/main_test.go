package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"oagrid"
	"oagrid/internal/grid"
)

// runOK runs oasched with args and returns what it printed.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("oasched %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// matchAll fails unless every pattern matches text.
func matchAll(t *testing.T, text string, patterns ...string) {
	t.Helper()
	for _, p := range patterns {
		if !regexp.MustCompile(p).MatchString(text) {
			t.Errorf("no match for %q in:\n%s", p, text)
		}
	}
}

// TestRunFlagErrors: flags that cannot take effect are errors, raised before
// anything is simulated or dialed.
func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-list"}, "-list, -info and -cancel need -addr"},
		{[]string{"-info", "3"}, "-list, -info and -cancel need -addr"},
		{[]string{"-cancel", "3"}, "-list, -info and -cancel need -addr"},
		{[]string{"-attach", "3"}, "-attach needs -addr"},
		{[]string{"-labels", "team=ocean"}, "-labels, -priority and -deadline need -addr"},
		{[]string{"-priority", "5"}, "-labels, -priority and -deadline need -addr"},
		{[]string{"-deadline", "1m"}, "-labels, -priority and -deadline need -addr"},
		{[]string{"-status", "done"}, "-status needs -list"},
		{[]string{"-addr", "127.0.0.1:1", "-status", "done"}, "-status needs -list"},
		{[]string{"-labels", "team"}, "malformed label"},
		{[]string{"-ns", "0"}, "scenario"},
		{[]string{"-heuristic", "fastest"}, `unknown heuristic "fastest"`},
		{[]string{"-policy", "random"}, `unknown policy "random"`},
		{[]string{"-bogus"}, "flag provided but not defined"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var out bytes.Buffer
			err := run(context.Background(), tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			if out.Len() != 0 {
				t.Fatalf("printed before failing:\n%s", out.String())
			}
		})
	}
}

// TestHeuristicGainAgainstBasic: the gain column is against basic whether
// the table has all four rows or -heuristic asks for one — the knapsack row
// of the full table and the single knapsack row are the same line.
func TestHeuristicGainAgainstBasic(t *testing.T) {
	row := func(table, name string) string {
		t.Helper()
		for _, line := range strings.Split(table, "\n") {
			if f := strings.Fields(line); len(f) > 0 && f[0] == name {
				return strings.Join(f, " ")
			}
		}
		t.Fatalf("no %s row in:\n%s", name, table)
		return ""
	}
	common := []string{"-r", "53", "-ns", "10", "-nm", "36"}
	full := runOK(t, common...)
	for _, name := range []string{"basic", "knapsack", "cpa"} {
		single := runOK(t, append(common, "-heuristic", name)...)
		if rows := strings.Count(single, "\n") - 3; rows != 1 {
			t.Fatalf("-heuristic %s printed %d rows:\n%s", name, rows, single)
		}
		if name == "cpa" {
			// Not in the paper's table; it plans basic's grouping.
			matchAll(t, single, `cpa .* 83970 +\+0\.00%`)
			continue
		}
		if got, want := row(single, name), row(full, name); got != want {
			t.Fatalf("-heuristic %s row %q, full-table row %q", name, got, want)
		}
	}
	matchAll(t, row(full, "knapsack"), ` 77602 \+7\.58%$`)
}

// TestControlPlane drives submit, -list, -info and -cancel against an
// in-process daemon with tenant weights and a /metrics endpoint, then checks
// the metric families the run must have moved, and that a peer speaking
// something other than the frame protocol is refused and counted once.
func TestControlPlane(t *testing.T) {
	f, err := grid.StartFabric(grid.Config{
		Addr:          "127.0.0.1:0",
		MetricsAddr:   "127.0.0.1:0",
		TenantWeights: map[string]float64{"ocean": 2, "atmos": 1},
	}, 2, 30, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if err := f.WaitAlive(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	addr := f.Sched.Addr()

	for _, step := range []struct {
		name string
		args []string
		want []string
	}{
		{"submit", []string{"-ns", "4", "-nm", "12", "-priority", "5", "-labels", "team=ocean,tier=gold"},
			[]string{`(?m)^campaign 1 admitted at `, `(?m)^planned: `, `(?m)^campaign 1 done: makespan \d+s over \d+ chunk`}},
		{"list", []string{"-list"},
			[]string{`(?m)^1 +done +5 +4×12 +4/4 .* team=ocean,tier=gold$`, `(?m)^1 campaign\(s\)$`}},
		{"list done ocean", []string{"-list", "-status", "done", "-labels", "team=ocean"},
			[]string{`(?m)^1 +done `, `(?m)^1 campaign\(s\)$`}},
		{"list running", []string{"-list", "-status", "running"}, []string{`(?m)^0 campaign\(s\)$`}},
		{"list atmos", []string{"-list", "-labels", "team=atmos"}, []string{`(?m)^0 campaign\(s\)$`}},
		{"info", []string{"-info", "1"}, []string{`(?m)^1 +done +5 `}},
		{"cancel done", []string{"-cancel", "1"}, []string{`(?m)^campaign 1: done$`}},
	} {
		t.Run(step.name, func(t *testing.T) {
			matchAll(t, runOK(t, append([]string{"-addr", addr}, step.args...)...), step.want...)
		})
	}

	url := "http://" + f.Sched.MetricsAddr() + "/metrics"
	refused := func(metrics string) int {
		m := regexp.MustCompile(`(?m)^oagrid_wire_refused_total (\d+)$`).FindStringSubmatch(metrics)
		if m == nil {
			t.Fatalf("no oagrid_wire_refused_total in:\n%s", metrics)
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	before := refused(scrape(t, url))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: oagrid\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// Closed without an answer: EOF, or a reset for the unread request.
	var timeout net.Error
	if n, err := io.Copy(io.Discard, conn); n != 0 || errors.As(err, &timeout) && timeout.Timeout() {
		t.Fatalf("the wire port answered an HTTP request: %d bytes, %v", n, err)
	}
	conn.Close()

	// Counters settle just after the campaign's result frame and the
	// heartbeats' reuse, so the scrape retries briefly.
	want := []string{
		`(?m)^oagrid_tenant_completed_total\{tenant="ocean"\} 1$`,
		`(?m)^oagrid_queue_depth `,
		`(?m)^oagrid_tenant_weight\{tenant="ocean"\} 2$`,
		`(?m)^oagrid_tenant_admitted_total\{tenant="ocean"\} 1$`,
		`(?m)^oagrid_tenant_queue_wait_seconds_count\{tenant="ocean"\} 1$`,
		`(?m)^oagrid_sed_alive`,
		`(?m)^oagrid_wire_tx_bytes_total `,
		`(?m)^oagrid_wire_dials_total [1-9]`,
		`(?m)^oagrid_wire_reused_total [1-9]`,
		`(?m)^oagrid_wire_idle_conns [1-9]`,
	}
	var metrics string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		metrics = scrape(t, url)
		missing := false
		for _, p := range want {
			missing = missing || !regexp.MustCompile(p).MatchString(metrics)
		}
		if !missing || time.Now().After(deadline) {
			break
		}
	}
	matchAll(t, metrics, want...)
	if got := refused(metrics); got != before+1 {
		t.Fatalf("oagrid_wire_refused_total went %d -> %d, want +1", before, got)
	}
}

// scrape fetches /metrics and checks it is served as Prometheus text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestCancelStopsCampaign: -cancel stops a campaign server-side. With no SeD
// to run on, the submitted campaign can only end by the cancel, and its
// submitter returns the cancellation.
func TestCancelStopsCampaign(t *testing.T) {
	sched, err := grid.Start(grid.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Close() })
	addr := sched.Addr()

	var out bytes.Buffer
	submitted := make(chan error, 1)
	go func() { submitted <- run(context.Background(), []string{"-addr", addr, "-ns", "2", "-nm", "12"}, &out) }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if st := sched.Stats(); st.Running+st.QueueDepth > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never admitted")
		}
	}

	matchAll(t, runOK(t, "-addr", addr, "-cancel", "1"), `(?m)^campaign 1: cancelled$`)
	select {
	case err := <-submitted:
		if !errors.Is(err, oagrid.ErrCampaignCancelled) {
			t.Fatalf("submitter returned %v, want ErrCampaignCancelled\n%s", err, out.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("submitter still waiting after the cancel")
	}
	matchAll(t, out.String(), `(?m)^campaign 1 admitted at `)
	matchAll(t, runOK(t, "-addr", addr, "-info", "1"), `(?m)^1 +cancelled `)
}
