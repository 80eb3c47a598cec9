package grid

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"oagrid/internal/diet"
)

// metricsServer is the daemon's observability endpoint: an HTTP listener
// serving the scheduler's gauges in the Prometheus text exposition format
// on GET /metrics. It is read-only and deliberately stdlib-only — the
// format is simple enough that hand-writing it beats carrying a client
// library dependency for one endpoint.
type metricsServer struct {
	ln  net.Listener
	srv *http.Server
}

func startMetrics(addr string, s *Scheduler) (*metricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("grid: metrics listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.writeMetrics(w)
	})
	m := &metricsServer{ln: ln, srv: &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}}
	go m.srv.Serve(ln)
	return m, nil
}

func (m *metricsServer) addr() string { return m.ln.Addr().String() }

func (m *metricsServer) close() { _ = m.srv.Close() }

// promReplacer escapes label values per the exposition format; stateless
// and safe for concurrent use, so built once instead of per label value.
var promReplacer = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string { return promReplacer.Replace(v) }

// metricsWriter accumulates one exposition-format family at a time.
type metricsWriter struct {
	w io.Writer
}

// family writes the # HELP / # TYPE preamble.
func (mw *metricsWriter) family(name, typ, help string) {
	fmt.Fprintf(mw.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one sample line; labels alternate key, value.
func (mw *metricsWriter) sample(name string, value float64, labels ...string) {
	if len(labels) == 0 {
		fmt.Fprintf(mw.w, "%s %v\n", name, value)
		return
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, fmt.Sprintf("%s=%q", labels[i], promEscape(labels[i+1])))
	}
	fmt.Fprintf(mw.w, "%s{%s} %v\n", name, strings.Join(pairs, ","), value)
}

// writeMetrics renders the scheduler's full gauge set: queue and campaign
// counters, the per-tenant weighted-fair-queueing breakdown, per-SeD
// utilization, the WAL size, and the process-wide wire accounting.
func (s *Scheduler) writeMetrics(w io.Writer) {
	st := s.Stats()
	mw := &metricsWriter{w: w}

	mw.family("oagrid_queue_depth", "gauge", "Campaigns currently queued for dispatch.")
	mw.sample("oagrid_queue_depth", float64(st.QueueDepth))
	mw.family("oagrid_queue_depth_max", "gauge", "High-water mark of the campaign queue.")
	mw.sample("oagrid_queue_depth_max", float64(st.MaxQueueDepth))
	mw.family("oagrid_running", "gauge", "Campaigns currently held by a dispatcher.")
	mw.sample("oagrid_running", float64(st.Running))

	mw.family("oagrid_campaigns_completed_total", "counter", "Campaigns finished successfully.")
	mw.sample("oagrid_campaigns_completed_total", float64(st.Completed))
	mw.family("oagrid_campaigns_failed_total", "counter", "Campaigns driven to the failed state.")
	mw.sample("oagrid_campaigns_failed_total", float64(st.Failed))
	mw.family("oagrid_campaigns_cancelled_total", "counter", "Campaigns terminated by server-side cancel.")
	mw.sample("oagrid_campaigns_cancelled_total", float64(st.Cancelled))
	mw.family("oagrid_submits_rejected_total", "counter", "Submissions rejected at admission (queue-full and quota).")
	mw.sample("oagrid_submits_rejected_total", float64(st.Rejected))
	mw.family("oagrid_requeues_total", "counter", "Chunks lost to dead SeDs and re-repartitioned.")
	mw.sample("oagrid_requeues_total", float64(st.Requeues))
	mw.family("oagrid_seds_evicted_total", "counter", "SeD evictions for missed heartbeats or failed exchanges.")
	mw.sample("oagrid_seds_evicted_total", float64(st.Evicted))

	mw.family("oagrid_tenant_weight", "gauge", "Configured weighted-fair-queueing weight.")
	for _, t := range st.Tenants {
		mw.sample("oagrid_tenant_weight", t.Weight, "tenant", t.Tenant)
	}
	mw.family("oagrid_tenant_queued", "gauge", "Queued campaigns per tenant.")
	for _, t := range st.Tenants {
		mw.sample("oagrid_tenant_queued", float64(t.Queued), "tenant", t.Tenant)
	}
	mw.family("oagrid_tenant_running", "gauge", "Running campaigns per tenant.")
	for _, t := range st.Tenants {
		mw.sample("oagrid_tenant_running", float64(t.Running), "tenant", t.Tenant)
	}
	mw.family("oagrid_tenant_admitted_total", "counter", "Campaigns admitted per tenant.")
	for _, t := range st.Tenants {
		mw.sample("oagrid_tenant_admitted_total", float64(t.Admitted), "tenant", t.Tenant)
	}
	mw.family("oagrid_tenant_completed_total", "counter", "Campaigns completed per tenant.")
	for _, t := range st.Tenants {
		mw.sample("oagrid_tenant_completed_total", float64(t.Completed), "tenant", t.Tenant)
	}
	mw.family("oagrid_tenant_failed_total", "counter", "Campaigns failed per tenant.")
	for _, t := range st.Tenants {
		mw.sample("oagrid_tenant_failed_total", float64(t.Failed), "tenant", t.Tenant)
	}
	mw.family("oagrid_tenant_cancelled_total", "counter", "Campaigns cancelled per tenant.")
	for _, t := range st.Tenants {
		mw.sample("oagrid_tenant_cancelled_total", float64(t.Cancelled), "tenant", t.Tenant)
	}
	mw.family("oagrid_tenant_quota_rejected_total", "counter", "Submissions rejected by the tenant's admission quota.")
	for _, t := range st.Tenants {
		mw.sample("oagrid_tenant_quota_rejected_total", float64(t.QuotaRejected), "tenant", t.Tenant)
	}
	mw.family("oagrid_tenant_queue_wait_seconds_sum", "counter", "Summed admission-to-dispatch wait per tenant.")
	for _, t := range st.Tenants {
		mw.sample("oagrid_tenant_queue_wait_seconds_sum", t.WaitSumMs/1000, "tenant", t.Tenant)
	}
	mw.family("oagrid_tenant_queue_wait_seconds_count", "counter", "Dispatches contributing to the wait sum per tenant.")
	for _, t := range st.Tenants {
		mw.sample("oagrid_tenant_queue_wait_seconds_count", float64(t.WaitCount), "tenant", t.Tenant)
	}
	mw.family("oagrid_tenant_queue_wait_seconds_max", "gauge", "Longest admission-to-dispatch wait per tenant.")
	for _, t := range st.Tenants {
		mw.sample("oagrid_tenant_queue_wait_seconds_max", t.WaitMaxMs/1000, "tenant", t.Tenant)
	}

	mw.family("oagrid_sed_alive", "gauge", "1 when the SeD is within its heartbeat deadline.")
	for _, sd := range st.SeDs {
		alive := 0.0
		if sd.Alive {
			alive = 1
		}
		mw.sample("oagrid_sed_alive", alive, "cluster", sd.Cluster)
	}
	mw.family("oagrid_sed_outstanding", "gauge", "Scheduler-held open requests against the SeD.")
	for _, sd := range st.SeDs {
		mw.sample("oagrid_sed_outstanding", float64(sd.Outstanding), "cluster", sd.Cluster)
	}
	mw.family("oagrid_sed_utilization", "gauge", "Outstanding requests over the per-SeD in-flight limit (0-1).")
	for _, sd := range st.SeDs {
		mw.sample("oagrid_sed_utilization", float64(sd.Outstanding)/float64(s.cfg.PerSeDInFlight), "cluster", sd.Cluster)
	}
	mw.family("oagrid_sed_speed", "gauge", "Advertised speed factor (1 = reference, 0.5 = twice as slow).")
	for _, sd := range st.SeDs {
		speed := sd.Speed
		if speed <= 0 {
			speed = 1
		}
		mw.sample("oagrid_sed_speed", speed, "cluster", sd.Cluster)
	}
	mw.family("oagrid_sed_draining", "gauge", "1 when the SeD is draining: alive, finishing in-flight work, excluded from new rounds.")
	for _, sd := range st.SeDs {
		draining := 0.0
		if sd.Draining {
			draining = 1
		}
		mw.sample("oagrid_sed_draining", draining, "cluster", sd.Cluster)
	}

	if s.store != nil {
		mw.family("oagrid_wal_bytes", "gauge", "Live campaign-journal segment size.")
		mw.sample("oagrid_wal_bytes", float64(s.store.Size()))
		mw.family("oagrid_wal_errors_total", "counter", "Mid-run journal appends that failed and were swallowed; the affected scenarios re-run after a restart.")
		mw.sample("oagrid_wal_errors_total", float64(s.walErrors.Load()))
	}

	wire := diet.WireStats()
	mw.family("oagrid_wire_tx_bytes_total", "counter", "Process-wide wire bytes sent.")
	mw.sample("oagrid_wire_tx_bytes_total", float64(wire.BytesTx))
	mw.family("oagrid_wire_rx_bytes_total", "counter", "Process-wide wire bytes received.")
	mw.sample("oagrid_wire_rx_bytes_total", float64(wire.BytesRx))
	mw.family("oagrid_wire_tx_frames_total", "counter", "Process-wide wire frames sent.")
	mw.sample("oagrid_wire_tx_frames_total", float64(wire.FramesTx))
	mw.family("oagrid_wire_rx_frames_total", "counter", "Process-wide wire frames received.")
	mw.sample("oagrid_wire_rx_frames_total", float64(wire.FramesRx))
	mw.family("oagrid_wire_refused_total", "counter", "Connections closed for a missing frame magic or a protocol version below the floor.")
	mw.sample("oagrid_wire_refused_total", float64(wire.Refused))
	mw.family("oagrid_wire_dials_total", "counter", "Process-wide connections opened by the transport: one per one-shot round trip, one per kept-alive connection.")
	mw.sample("oagrid_wire_dials_total", float64(wire.Dials))
	mw.family("oagrid_wire_reused_total", "counter", "Process-wide exchanges started on an idle kept-alive connection instead of a dial.")
	mw.sample("oagrid_wire_reused_total", float64(wire.Reused))
	mw.family("oagrid_wire_idle_conns", "gauge", "Process-wide kept-alive connections idle in a daemon's pool.")
	mw.sample("oagrid_wire_idle_conns", float64(wire.IdleConns))

	if sm := s.shardManager(); sm != nil {
		s.writeRingMetrics(mw, sm)
	}
	if hook := s.metricsHook.Load(); hook != nil {
		(*hook)(w)
	}
}

// writeRingMetrics renders the shard gauges of a ring member: the ring size
// and per-peer liveness, the routing counters (redirects, fan-outs, requests
// served on peers' behalf), failover adoptions, and each peer replica's
// on-disk size.
func (s *Scheduler) writeRingMetrics(mw *metricsWriter, sm *shardManager) {
	mw.family("oagrid_ring_size", "gauge", "Configured ring member count, this shard included.")
	mw.sample("oagrid_ring_size", float64(len(sm.ring.Members())))
	mw.family("oagrid_ring_peer_alive", "gauge", "1 when the ring peer answered its membership ping within the death deadline.")
	for _, ps := range sm.members.Snapshot() {
		alive := 0.0
		if ps.Alive {
			alive = 1
		}
		mw.sample("oagrid_ring_peer_alive", alive, "peer", ps.Addr)
	}
	mw.family("oagrid_ring_redirects_total", "counter", "Ownership redirects answered to clients.")
	mw.sample("oagrid_ring_redirects_total", float64(sm.redirected.Load()))
	mw.family("oagrid_ring_fanouts_total", "counter", "List/stats requests fanned out over the alive peer set.")
	mw.sample("oagrid_ring_fanouts_total", float64(sm.fanouts.Load()))
	mw.family("oagrid_ring_served_total", "counter", "Local stats and list requests served here on a peer's behalf.")
	mw.sample("oagrid_ring_served_total", float64(sm.served.Load()))
	mw.family("oagrid_ring_adopted_total", "counter", "Campaigns adopted from dead peers' WAL replicas.")
	mw.sample("oagrid_ring_adopted_total", float64(sm.adopted.Load()))
	mw.family("oagrid_ring_replica_bytes", "gauge", "On-disk size of the peer's tailed WAL replica.")
	for _, p := range sm.ring.Peers() {
		mw.sample("oagrid_ring_replica_bytes", float64(sm.replicaBytes(p)), "peer", p)
	}
}
