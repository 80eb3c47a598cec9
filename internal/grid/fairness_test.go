package grid

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/diet"
)

// TestWFQProportionalShare: backlogged tenants split the dispatch slots by
// weight — over every prefix of the dispatch order, not just in aggregate,
// because the virtual finish tags and the name tie-break make the schedule
// deterministic. Each tenant's count after k pops stays within slack slots
// of its entitlement k·w/Σw. Priorities order campaigns within a tenant
// only, so the equal-tenant row, where each tenant submits at its own
// priority, must still come out equal.
func TestWFQProportionalShare(t *testing.T) {
	for _, tc := range []struct {
		name    string
		weights map[string]float64
		// submit returns the tenant and priority of submission i.
		submit func(i int) (string, int)
		n      int
		slack  float64
	}{
		{
			name:    "weights 3:1",
			weights: map[string]float64{"heavy": 3, "light": 1},
			submit: func(i int) (string, int) {
				if i < 30 {
					return "heavy", 0
				}
				return "light", 0
			},
			n:     40,
			slack: 0.75,
		},
		{
			// Three weight-1 tenants submitting round-robin at priorities
			// (i%3)*5, so each tenant's campaigns carry a different priority.
			name:    "three equal tenants, mixed priorities",
			weights: map[string]float64{"gold": 1, "silver": 1, "bronze": 1},
			submit: func(i int) (string, int) {
				return []string{"gold", "silver", "bronze"}[i%3], (i % 3) * 5
			},
			n:     60,
			slack: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			app := core.Application{Scenarios: 1, Months: 1}
			s := queueScheduler(Config{TenantWeights: tc.weights})
			submitted := map[string]int{}
			for i := 0; i < tc.n; i++ {
				tenant, pri := tc.submit(i)
				submitted[tenant]++
				s.push(newCampaign(uint64(i+1), app, core.NameKnapsack, submitMeta{
					priority: pri,
					labels:   map[string]string{tenantKey: tenant},
				}))
			}
			var total float64
			for _, w := range tc.weights {
				total += w
			}
			got := map[string]int{}
			for k := 1; k <= tc.n; k++ {
				c := s.dequeue()
				if _, ok := tc.weights[c.tenant]; !ok {
					t.Fatalf("pop %d came from unknown tenant %q", k, c.tenant)
				}
				got[c.tenant]++
				for tenant, w := range tc.weights {
					if d := float64(got[tenant]) - float64(k)*w/total; d < -tc.slack || d > tc.slack {
						t.Fatalf("after %d pops the split is %v — %s is %+.2f slots off its share", k, got, tenant, d)
					}
				}
			}
			for tenant, n := range submitted {
				if got[tenant] != n {
					t.Fatalf("%d pops split %v, want %v", tc.n, got, submitted)
				}
			}
		})
	}
}

// TestWFQIdleTenantBanksNoCredit: a tenant that sat idle while another was
// served re-enters at the current virtual time — it does not accumulate
// lag-credit it could burn to lock out the active tenant.
func TestWFQIdleTenantBanksNoCredit(t *testing.T) {
	app := core.Application{Scenarios: 1, Months: 1}
	s := queueScheduler(Config{})
	mk := func(id uint64, tenant string) *campaign {
		return newCampaign(id, app, core.NameKnapsack, submitMeta{
			labels: map[string]string{tenantKey: tenant},
		})
	}
	// Tenant a is served alone for a while; b is idle the whole time.
	for i := uint64(1); i <= 10; i++ {
		s.push(mk(i, "a"))
	}
	for i := 0; i < 10; i++ {
		s.dequeue()
	}
	// Both become backlogged: equal weights must now alternate — b's idle
	// stretch is worth nothing.
	for i := uint64(11); i <= 16; i++ {
		s.push(mk(i, "a"))
		s.push(mk(i+100, "b"))
	}
	counts := map[string]int{}
	for i := 0; i < 12; i++ {
		c := s.dequeue()
		counts[c.tenant]++
		if d := counts["a"] - counts["b"]; d < -1 || d > 1 {
			t.Fatalf("after %d contended pops the split is a=%d b=%d; idle credit leaked", i+1, counts["a"], counts["b"])
		}
	}
}

// TestAgingLiftsStarvedPriority: within one tenant, a long-waiting
// low-priority campaign overtakes a fresher high-priority one once its age
// boost exceeds the priority gap.
func TestAgingLiftsStarvedPriority(t *testing.T) {
	app := core.Application{Scenarios: 1, Months: 1}

	s := queueScheduler(Config{})
	old := newCampaign(1, app, core.NameKnapsack, submitMeta{priority: 0})
	old.enqueuedAt = time.Now().Add(-time.Hour) // 360 aging boosts banked
	fresh := newCampaign(2, app, core.NameKnapsack, submitMeta{priority: 9})
	s.push(fresh)
	s.push(old)
	if c := s.dequeue(); c.id != old.id {
		t.Fatalf("aged priority-0 campaign lost to a fresh priority-9 one (popped %d)", c.id)
	}
}

// submitTenant submits a campaign with a tenant label and priority over the
// raw wire (the Client convenience wrappers carry no labels).
func submitTenant(t *testing.T, addr string, ns, months, pri int, tenant string) *diet.SubmitResponse {
	t.Helper()
	resp, err := diet.RoundTrip(addr, &diet.Request{Version: diet.ProtocolVersion, Kind: diet.KindSubmit, Submit: &diet.SubmitRequest{
		Scenarios: ns, Months: months, Heuristic: core.NameKnapsack, Priority: pri,
		Labels: map[string]string{tenantKey: tenant}, Key: newKey(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Submit == nil {
		t.Fatalf("no admission verdict from %s", addr)
	}
	return resp.Submit
}

// TestWeightOneTenantNotStarved is the cross-tenant starvation bound,
// deterministically: a weight-10 tenant floods the single-dispatcher daemon
// with priority-9 campaigns, then a weight-1 tenant submits one priority-0
// campaign — which must reach the SeD within the flood's next 11 dispatch
// slots, because WFQ guarantees it 1 slot in 11 regardless of priorities.
func TestWeightOneTenantNotStarved(t *testing.T) {
	s, err := Start(Config{
		Addr:          "127.0.0.1:0",
		Dispatchers:   1,
		EvictAfter:    2 * time.Second,
		TenantWeights: map[string]float64{"flood": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	g := startGateSeD(t, s.Addr())
	waitAliveAddr(t, s.Addr(), 1, 10*time.Second)

	// The occupant pins the dispatcher while the queues build up. Campaigns
	// are told apart at the gate by NS: occupant 3, flood 4, victim 5.
	occupant := submitTenant(t, s.Addr(), 3, 6, 9, "flood")
	if !occupant.Accepted {
		t.Fatalf("occupant rejected: %+v", occupant)
	}
	if n := g.nextExec(t); n != 3 {
		t.Fatalf("occupant dispatched %d scenarios, want 3", n)
	}
	var flood []uint64
	for i := 0; i < 10; i++ {
		v := submitTenant(t, s.Addr(), 4, 6, 9, "flood")
		if !v.Accepted {
			t.Fatalf("flood submit %d rejected: %+v", i, v)
		}
		flood = append(flood, v.ID)
	}
	victim := submitTenant(t, s.Addr(), 5, 6, 0, "victim")
	if !victim.Accepted {
		t.Fatalf("victim rejected: %+v", victim)
	}

	g.release <- struct{}{} // finish the occupant; the WFQ schedule begins
	victimAt := -1
	for i := 0; i < 11; i++ {
		n := g.nextExec(t)
		if n == 5 {
			victimAt = i
			break
		}
		if n != 4 {
			t.Fatalf("dispatch %d carried %d scenarios, want flood's 4 or victim's 5", i, n)
		}
		g.release <- struct{}{}
	}
	if victimAt < 0 {
		t.Fatal("weight-1 victim starved: not dispatched within 11 weighted slots")
	}
	t.Logf("victim dispatched in slot %d of 11", victimAt)

	// Drain: release the victim and whatever flood campaigns remain.
	g.release <- struct{}{}
	for i := victimAt + 1; i < 10; i++ {
		if n := g.nextExec(t); n != 4 {
			t.Fatalf("drain dispatch carried %d scenarios, want 4", n)
		}
		g.release <- struct{}{}
	}
	c := &Client{Addr: s.Addr(), Timeout: time.Minute}
	waitStatus(t, c, victim.ID, diet.CampaignDone)
	for _, id := range flood {
		waitStatus(t, c, id, diet.CampaignDone)
	}
}

// TestTenantQuotaRejection: with a per-tenant quota of one queued campaign,
// a tenant's second submission gets the typed retryable quota rejection
// while the shared queue still has room — and succeeds on retry once the
// first campaign leaves the queue.
func TestTenantQuotaRejection(t *testing.T) {
	s, err := Start(Config{
		Addr:        "127.0.0.1:0",
		Dispatchers: 1,
		EvictAfter:  2 * time.Second,
		TenantQuota: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	g := startGateSeD(t, s.Addr())
	waitAliveAddr(t, s.Addr(), 1, 10*time.Second)

	// Occupant (default tenant) pins the dispatcher; q's first campaign
	// queues, exhausting q's quota without filling the shared queue.
	occupant := submitTenant(t, s.Addr(), 3, 6, 0, DefaultTenant)
	if !occupant.Accepted {
		t.Fatalf("occupant rejected: %+v", occupant)
	}
	if n := g.nextExec(t); n != 3 {
		t.Fatalf("occupant dispatched %d scenarios, want 3", n)
	}
	first := submitTenant(t, s.Addr(), 4, 6, 0, "q")
	if !first.Accepted {
		t.Fatalf("first campaign rejected: %+v", first)
	}

	second := submitTenant(t, s.Addr(), 5, 6, 0, "q")
	if second.Accepted {
		t.Fatal("second queued campaign beat the quota of 1")
	}
	if second.Code != diet.RejectQuota {
		t.Fatalf("rejection code %q, want %q", second.Code, diet.RejectQuota)
	}
	// The typed mapping: quota rejections are ErrQuotaExceeded AND
	// ErrRejected (so pre-quota retry loops keep working); queue-full stays
	// plain ErrRejected.
	err = rejectionError(second)
	if !errors.Is(err, ErrQuotaExceeded) || !errors.Is(err, ErrRejected) {
		t.Fatalf("quota rejection mapped to %v, want ErrQuotaExceeded wrapping ErrRejected", err)
	}
	if full := rejectionError(&diet.SubmitResponse{Code: diet.RejectQueueFull}); errors.Is(full, ErrQuotaExceeded) {
		t.Fatalf("queue-full rejection mapped to ErrQuotaExceeded: %v", full)
	}

	// Quota is about queued campaigns: once the first one dispatches, the
	// retry is admitted even though the first is still running.
	g.release <- struct{}{} // occupant finishes; q's first campaign dispatches
	if n := g.nextExec(t); n != 4 {
		t.Fatalf("gate saw %d scenarios, want q's first campaign (4)", n)
	}
	retry := submitTenant(t, s.Addr(), 5, 6, 0, "q")
	if !retry.Accepted {
		t.Fatalf("retry after drain rejected: %+v", retry)
	}
	g.release <- struct{}{}
	if n := g.nextExec(t); n != 5 {
		t.Fatalf("gate saw %d scenarios, want the retried campaign (5)", n)
	}
	g.release <- struct{}{}

	c := &Client{Addr: s.Addr(), Timeout: time.Minute}
	for _, id := range []uint64{occupant.ID, first.ID, retry.ID} {
		waitStatus(t, c, id, diet.CampaignDone)
	}
	stats := s.Stats()
	var q *diet.TenantStatus
	for i := range stats.Tenants {
		if stats.Tenants[i].Tenant == "q" {
			q = &stats.Tenants[i]
		}
	}
	if q == nil {
		t.Fatal("tenant q missing from Stats")
	}
	if q.QuotaRejected != 1 || q.Admitted != 2 || q.Completed != 2 {
		t.Fatalf("tenant q stats %+v, want 1 quota rejection, 2 admitted, 2 completed", q)
	}
}

// TestTenantTableBounded: a client cycling unique tenant-label values
// cannot grow the tenant table (and with it the /metrics cardinality)
// without bound — past maxDynamicTenants distinct names, new ones fold
// into OverflowTenant, while configured tenants always keep their own
// entry and rejected submissions leave no state behind.
func TestTenantTableBounded(t *testing.T) {
	s := queueScheduler(Config{
		QueueCap:      512,
		TenantWeights: map[string]float64{"vip": 2},
	})
	submit := func(tenant string) *diet.SubmitResponse {
		t.Helper()
		_, verdict, err := s.admit(&diet.SubmitRequest{
			Scenarios: 1, Months: 1, Heuristic: core.NameKnapsack,
			Labels: map[string]string{tenantKey: tenant}, Key: newKey(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return verdict
	}
	overflowing := 40
	for i := 0; i < maxDynamicTenants+overflowing; i++ {
		if v := submit(fmt.Sprintf("churn-%04d", i)); !v.Accepted {
			t.Fatalf("submission %d rejected: %+v", i, v)
		}
	}
	// A configured tenant still gets its own entry after the fold kicks in.
	if v := submit("vip"); !v.Accepted {
		t.Fatalf("vip submission rejected: %+v", v)
	}

	s.mu.Lock()
	total := len(s.tenants)
	overflow := s.tenants[OverflowTenant]
	vip := s.tenants["vip"]
	s.mu.Unlock()
	// The cap plus the overflow bucket plus the configured tenant.
	if total > maxDynamicTenants+2 {
		t.Fatalf("tenant table grew to %d entries, want <= %d", total, maxDynamicTenants+2)
	}
	if overflow == nil || overflow.queued != overflowing {
		t.Fatalf("overflow tenant holds %+v, want %d queued", overflow, overflowing)
	}
	if vip == nil || vip.weight != 2 {
		t.Fatalf("configured tenant folded away: %+v", vip)
	}

	// A rejected submission must not create tenant state: fill the queue,
	// then submit under a fresh name.
	for s.queueLen < s.cfg.QueueCap {
		if v := submit(DefaultTenant); !v.Accepted {
			t.Fatalf("filler rejected early: %+v", v)
		}
	}
	if v := submit("never-admitted"); v.Accepted || v.Code != diet.RejectQueueFull {
		t.Fatalf("expected queue-full rejection, got %+v", v)
	}
	s.mu.Lock()
	ghost := s.tenants["never-admitted"]
	s.mu.Unlock()
	if ghost != nil {
		t.Fatalf("queue-full rejection left tenant state behind: %+v", ghost)
	}
}

// TestMetricsEndpoint: the daemon's /metrics endpoint serves Prometheus
// text with the queue, per-tenant and SeD gauge families, and per-tenant
// counters reflect completed work.
func TestMetricsEndpoint(t *testing.T) {
	f := startFabric(t, Config{
		Addr:          "127.0.0.1:0",
		EvictAfter:    2 * time.Second,
		MetricsAddr:   "127.0.0.1:0",
		TenantWeights: map[string]float64{"ocean": 2},
	}, 2)
	maddr := f.Sched.MetricsAddr()
	if maddr == "" {
		t.Fatal("daemon started without a metrics address")
	}

	verdict := submitTenant(t, f.Sched.Addr(), 2, 6, 0, "ocean")
	if !verdict.Accepted {
		t.Fatalf("submit rejected: %+v", verdict)
	}
	c := &Client{Addr: f.Sched.Addr(), Timeout: time.Minute}
	waitStatus(t, c, verdict.ID, diet.CampaignDone)
	// The status flips Done just before the gauges settle; wait for them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := f.Sched.Stats()
		if st.Completed == 1 && st.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges never settled: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q, want Prometheus text", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"oagrid_queue_depth 0",
		"oagrid_running 0",
		"oagrid_campaigns_completed_total 1",
		`oagrid_tenant_weight{tenant="ocean"} 2`,
		`oagrid_tenant_admitted_total{tenant="ocean"} 1`,
		`oagrid_tenant_completed_total{tenant="ocean"} 1`,
		`oagrid_tenant_queue_wait_seconds_count{tenant="ocean"} 1`,
		"oagrid_sed_alive",
		"oagrid_wire_tx_bytes_total",
		"oagrid_wire_refused_total",
		"oagrid_wire_dials_total",
		"oagrid_wire_reused_total",
		"oagrid_wire_idle_conns",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics output missing %q:\n%s", want, text)
		}
	}

	// A 404 off the endpoint path, and a clean shutdown with the scheduler.
	if resp, err := http.Get("http://" + maddr + "/nope"); err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("metrics server served an unknown path")
		}
	}
}

// TestQueuePositionAndWait: Info on a queued campaign reports its 1-based
// within-tenant queue position and a growing wait; after dispatch the
// position clears and the wait freezes at the dispatch latency.
func TestQueuePositionAndWait(t *testing.T) {
	s, err := Start(Config{
		Addr:        "127.0.0.1:0",
		Dispatchers: 1,
		EvictAfter:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	g := startGateSeD(t, s.Addr())
	waitAliveAddr(t, s.Addr(), 1, 10*time.Second)

	occupant := submitTenant(t, s.Addr(), 3, 6, 0, DefaultTenant)
	if n := g.nextExec(t); n != 3 {
		t.Fatalf("occupant dispatched %d scenarios, want 3", n)
	}
	low := submitTenant(t, s.Addr(), 4, 6, 0, DefaultTenant)
	high := submitTenant(t, s.Addr(), 5, 6, 9, DefaultTenant)

	c := &Client{Addr: s.Addr(), Timeout: time.Minute}
	lowInfo, err := c.InfoContext(context.Background(), low.ID)
	if err != nil {
		t.Fatal(err)
	}
	highInfo, err := c.InfoContext(context.Background(), high.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Priority 9 is ahead of priority 0 even though it was submitted later.
	if highInfo.QueuePos != 1 || lowInfo.QueuePos != 2 {
		t.Fatalf("queue positions high=%d low=%d, want 1 and 2", highInfo.QueuePos, lowInfo.QueuePos)
	}
	if lowInfo.Tenant != DefaultTenant {
		t.Fatalf("tenant %q, want %q", lowInfo.Tenant, DefaultTenant)
	}
	if lowInfo.WaitMs <= 0 {
		t.Fatalf("queued campaign reports wait %.3fms, want > 0", lowInfo.WaitMs)
	}

	g.release <- struct{}{} // occupant finishes
	if n := g.nextExec(t); n != 5 {
		t.Fatalf("gate saw %d scenarios, want the priority-9 campaign (5)", n)
	}
	g.release <- struct{}{}
	if n := g.nextExec(t); n != 4 {
		t.Fatalf("gate saw %d scenarios, want the priority-0 campaign (4)", n)
	}
	g.release <- struct{}{}
	for _, id := range []uint64{occupant.ID, low.ID, high.ID} {
		waitStatus(t, c, id, diet.CampaignDone)
	}
	done, err := c.InfoContext(context.Background(), low.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.QueuePos != 0 {
		t.Fatalf("finished campaign still reports queue position %d", done.QueuePos)
	}
	if done.WaitMs <= 0 {
		t.Fatalf("finished campaign reports queue wait %.3fms, want the frozen dispatch latency", done.WaitMs)
	}
}
