package main

// metricSpec names one reported number. The tables below are the single
// source of the names: BENCHMARK.json must list exactly these (a test holds
// the two together), and later issues cite them.
type metricSpec struct {
	name string
	unit string
	// lower is true when a smaller value is better.
	lower bool
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression (0 for per-layer
	// metrics, which are evidence, not gates).
	bound float64
}

func (m metricSpec) better() string {
	if m.lower {
		return "lower"
	}
	return "higher"
}

// endToEnd lists the gated metrics; every one is reported on every
// workload. The three time-based ones are scaled to the nominal machine (see
// reference.go); their unscaled readings are the raw.* layer metrics. Their
// bound is the largest a driver accepts: on the shared host the benchmark
// was defined on, ten runs of identical code under ten seeds spread by
// 6–12 % (bench/README.md has the table). campaign_p95_ms, info_p50_ms and
// makespan_mean_h are reported beside them on every run but listed under
// perLayer: the first two spread by up to 30 % between identical runs, which
// no admissible bound covers, and the third is exact for a seed — constant on
// three workloads — so its only meaningful bound is zero.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", lower: true, bound: 0.25},
	{name: "campaign_p50_ms", unit: "ms", lower: true, bound: 0.25},
	{name: "campaigns_per_s", unit: "1/s", lower: false, bound: 0.25},
	{name: "alloc_kb_per_campaign", unit: "KB", lower: true, bound: 0.05},
}

// perLayer lists the layer metrics, in the order the report prints them.
// Counts come from the untraced repetition, span timings from the traced
// one, the rest from the layer probes. A layer that is not on a workload's
// path reports 0 there.
var perLayer = []metricSpec{
	{name: "campaign_p95_ms", unit: "ms", lower: true},
	{name: "info_p50_ms", unit: "ms", lower: true},
	{name: "makespan_mean_h", unit: "h", lower: true},
	{name: "raw.setup_s", unit: "s", lower: true},
	{name: "raw.campaign_p50_ms", unit: "ms", lower: true},
	{name: "raw.campaign_p95_ms", unit: "ms", lower: true},
	{name: "raw.campaigns_per_s", unit: "1/s", lower: false},
	{name: "raw.info_p50_ms", unit: "ms", lower: true},
	{name: "machine.ref_us", unit: "us", lower: true},
	{name: "oagrid.submit_ms", unit: "ms", lower: true},
	{name: "oagrid.events_per_campaign", unit: "count", lower: true},
	{name: "grid.queue_plan_ms", unit: "ms", lower: true},
	{name: "grid.exec_ms", unit: "ms", lower: true},
	{name: "grid.finish_ms", unit: "ms", lower: true},
	{name: "grid.queue_plan_novel_share_pct", unit: "%", lower: true},
	{name: "grid.stats_us", unit: "us", lower: true},
	{name: "grid.stats_p95_us", unit: "us", lower: true},
	{name: "grid.list_running_ms", unit: "ms", lower: true},
	{name: "grid.max_queue_depth", unit: "count", lower: true},
	{name: "grid.rejected", unit: "count", lower: true},
	{name: "grid.requeues", unit: "count", lower: true},
	{name: "grid.rounds_per_campaign", unit: "count", lower: true},
	{name: "diet.frames_per_campaign", unit: "count", lower: true},
	{name: "diet.wire_bytes_per_campaign", unit: "B", lower: true},
	{name: "diet.rtt_us", unit: "us", lower: true},
	{name: "diet.rtt_p95_us", unit: "us", lower: true},
	{name: "diet.rtt_conc_per_s", unit: "1/s", lower: false},
	{name: "diet.encode_ns_per_frame", unit: "ns", lower: true},
	{name: "diet.decode_ns_per_frame", unit: "ns", lower: true},
	{name: "diet.codec_allocs_per_frame", unit: "count", lower: true},
	{name: "diet.sed_perf_ms", unit: "ms", lower: true},
	{name: "diet.sed_exec_ms", unit: "ms", lower: true},
	{name: "store.records_per_campaign", unit: "count", lower: true},
	{name: "store.wal_bytes_per_campaign", unit: "B", lower: true},
	{name: "store.append_us", unit: "us", lower: true},
	{name: "store.append_p95_us", unit: "us", lower: true},
	{name: "store.append_conc_per_s", unit: "1/s", lower: false},
	{name: "store.open_replay_ms", unit: "ms", lower: true},
	{name: "store.replay_records_per_s", unit: "1/s", lower: false},
	{name: "store.read_segment_mb_per_s", unit: "MB/s", lower: false},
	{name: "core.repartition_us", unit: "us", lower: true},
	{name: "core.repartition_64x100_us", unit: "us", lower: true},
	{name: "core.plan_us", unit: "us", lower: true},
	{name: "knapsack.solve_us", unit: "us", lower: true},
	{name: "engine.perf_vector_ms", unit: "ms", lower: true},
	{name: "engine.des_jobs_per_s", unit: "1/s", lower: false},
	{name: "engine.model_jobs_per_s", unit: "1/s", lower: false},
	{name: "engine.sweep_scaling", unit: "x", lower: false},
	{name: "exec.run_ms", unit: "ms", lower: true},
	{name: "proc.cpu_ms_per_campaign", unit: "ms", lower: true},
	{name: "proc.gc_pause_ms", unit: "ms", lower: true},
	{name: "proc.heap_inuse_peak_mb", unit: "MB", lower: true},
	{name: "proc.goroutines_peak", unit: "count", lower: true},
	{name: "gen.lag_p99_ms", unit: "ms", lower: true},
	{name: "gen.inflight_peak", unit: "count", lower: true},
	{name: "tail.campaign_p99_ms", unit: "ms", lower: true},
	{name: "tail.campaign_max_ms", unit: "ms", lower: true},
	{name: "trace.overhead_pct", unit: "%", lower: true},
}
