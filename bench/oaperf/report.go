package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

func (r *workloadResult) all() []*repResult {
	if r.traced == nil {
		return r.reps
	}
	return append(append([]*repResult(nil), r.reps...), r.traced)
}

func (r *workloadResult) ops() (attempted, failed int) {
	for _, rep := range r.all() {
		attempted += rep.attempted
		failed += rep.failed
	}
	return attempted, failed
}

func (r *workloadResult) correct() bool {
	for _, rep := range r.all() {
		if len(rep.mismatches) > 0 {
			return false
		}
	}
	return true
}

// reading holds the time-based headline numbers of one repetition.
type reading struct {
	setupS, p50Ms, p95Ms, infoMs, perS float64
}

// raw is the repetition as the clocks read it.
func (rep *repResult) raw() reading {
	return reading{
		setupS: rep.setupS,
		p50Ms:  median(rep.latMs),
		p95Ms:  percentile(rep.latMs, 95),
		infoMs: median(rep.mon.infoMs),
		perS:   rep.closedPerS,
	}
}

// scaled carries the repetition to the nominal machine.
func (rep *repResult) scaled() reading {
	raw, k := rep.raw(), rep.scale()
	return reading{
		setupS: raw.setupS * k,
		p50Ms:  raw.p50Ms * k,
		p95Ms:  raw.p95Ms * k,
		infoMs: raw.infoMs * k,
		perS:   raw.perS / k,
	}
}

// each returns f's value on every untraced repetition.
func (r *workloadResult) each(f func(*repResult) float64) []float64 {
	out := make([]float64, len(r.reps))
	for i, rep := range r.reps {
		out[i] = f(rep)
	}
	return out
}

// pooledLatencies is the open-loop sample of all untraced repetitions.
func (r *workloadResult) pooledLatencies() []float64 {
	var all []float64
	for _, rep := range r.reps {
		all = append(all, rep.latMs...)
	}
	return all
}

// headlineReps returns, per metric name, the value on every untraced
// repetition: the end-to-end metrics and the headline numbers listed among
// the layer metrics (scaled p95 and Info latency, and every raw.* reading).
// A metric's reported value is the median of its repetitions.
func (r *workloadResult) headlineReps() map[string][]float64 {
	out := make(map[string][]float64)
	for _, rep := range r.reps {
		raw, scaled := rep.raw(), rep.scaled()
		for name, v := range map[string]float64{
			"setup_s":               scaled.setupS,
			"campaign_p50_ms":       scaled.p50Ms,
			"campaigns_per_s":       scaled.perS,
			"alloc_kb_per_campaign": rep.allocKB,
			"campaign_p95_ms":       scaled.p95Ms,
			"info_p50_ms":           scaled.infoMs,
			"makespan_mean_h":       rep.makespanMeanH,
			"raw.setup_s":           raw.setupS,
			"raw.campaign_p50_ms":   raw.p50Ms,
			"raw.campaign_p95_ms":   raw.p95Ms,
			"raw.campaigns_per_s":   raw.perS,
			"raw.info_p50_ms":       raw.infoMs,
			"machine.ref_us":        mean(rep.refUs[:]),
		} {
			out[name] = append(out[name], v)
		}
	}
	return out
}

// values returns every metric of both tables by name. Headline numbers and
// counts are medians over the untraced repetitions; span timings come from
// the traced repetition and the rest from the probes, and read 0 without a
// traced pass.
func (r *workloadResult) values() map[string]float64 {
	med := func(f func(*repResult) float64) float64 { return median(r.each(f)) }
	pooled := r.pooledLatencies()
	var lag []float64
	for _, rep := range r.reps {
		lag = append(lag, rep.lagMs...)
	}
	out := map[string]float64{
		"grid.list_running_ms":         med(func(p *repResult) float64 { return median(p.mon.listMs) }),
		"grid.max_queue_depth":         med(func(p *repResult) float64 { return p.maxQueue }),
		"grid.rejected":                med(func(p *repResult) float64 { return p.rejected }),
		"grid.requeues":                med(func(p *repResult) float64 { return p.requeues }),
		"grid.rounds_per_campaign":     med(func(p *repResult) float64 { return mean(p.mon.rounds) }),
		"diet.frames_per_campaign":     med(func(p *repResult) float64 { return p.framesPer }),
		"diet.wire_bytes_per_campaign": med(func(p *repResult) float64 { return p.wireBytesPer }),
		"store.records_per_campaign":   med(func(p *repResult) float64 { return p.journalRecs }),
		"store.wal_bytes_per_campaign": med(func(p *repResult) float64 { return p.journalSize }),
		"proc.cpu_ms_per_campaign":     med(func(p *repResult) float64 { return p.cpuMsPer }),
		"proc.gc_pause_ms":             med(func(p *repResult) float64 { return p.gcPauseMs }),
		"gen.lag_p99_ms":               percentile(lag, 99),
		"gen.inflight_peak":            maxOf(r.each(func(p *repResult) float64 { return float64(p.inflightPeak) })),
		"tail.campaign_p99_ms":         percentile(pooled, 99),
		"tail.campaign_max_ms":         maxOf(pooled),
	}
	for name, reps := range r.headlineReps() {
		out[name] = median(reps)
	}
	if t := r.traced; t != nil {
		out["oagrid.submit_ms"] = stageP50(t.spans, stageSpans[0])
		out["grid.queue_plan_ms"] = stageP50(t.spans, stageSpans[1])
		out["grid.exec_ms"] = stageP50(t.spans, stageSpans[2])
		out["grid.finish_ms"] = stageP50(t.spans, stageSpans[3])
		out["oagrid.events_per_campaign"] = t.eventsPer
		out["grid.queue_plan_novel_share_pct"] = t.novelQueuePlanSharePct
		out["grid.stats_us"] = median(t.mon.statsUs)
		out["grid.stats_p95_us"] = percentile(t.mon.statsUs, 95)
		out["proc.heap_inuse_peak_mb"] = t.mon.heapPeakMB
		out["proc.goroutines_peak"] = float64(t.mon.goroutinesPeak)
		if base := out["campaign_p50_ms"]; base > 0 {
			out["trace.overhead_pct"] = 100 * (t.scaled().p50Ms - base) / base
		}
		for name, v := range r.probes.out {
			out[name] = v
		}
	}
	return out
}

// metricValue is one number of the driver's JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the JSON object a driver reads from the last line.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// driverLine reports the end-to-end metrics of an untraced invocation, or
// the per-layer metrics of a traced one.
func (r *workloadResult) driverLine(traced bool) driverResult {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	values := r.values()
	d := driverResult{Correct: r.correct(), Metrics: make(map[string]metricValue, len(specs))}
	d.Attempted, d.Failed = r.ops()
	for _, m := range specs {
		d.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return d
}

// headline lists what the report prints first for every workload: the
// end-to-end metrics, then the headline numbers that are reported but not
// gated.
var headline = append(append([]metricSpec(nil), endToEnd...),
	metricSpec{name: "campaign_p95_ms", unit: "ms"},
	metricSpec{name: "info_p50_ms", unit: "ms"},
	metricSpec{name: "makespan_mean_h", unit: "h"},
)

// print writes the human report: per workload, the operation counts, every
// headline metric by name with its unit — the value on the nominal machine,
// the unscaled reading beside it, and the per-repetition values behind the
// median — and, after a traced pass, the span table and every per-layer
// metric.
func (s *suite) print(w io.Writer) {
	fmt.Fprintf(w, "\noaperf seed=%d seconds=%g nproc=%d gomaxprocs=%d %s\n", s.opts.seed, s.opts.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, r := range s.results {
		attempted, failed := r.ops()
		pooled := len(r.pooledLatencies())
		fmt.Fprintf(w, "\nworkload %s: ops_attempted=%d ops_failed=%d open_loop_samples=%d (pooled over %d repetitions) open=%g/s closed=%d clients\n",
			r.w.name, attempted, failed, pooled, len(r.reps), r.w.rate, min(runtime.GOMAXPROCS(0), 4))
		if !eligible(pooled, 95) {
			fmt.Fprintf(w, "  note: %d pooled samples leave fewer than ten beyond p95\n", pooled)
		}
		reps, values := r.headlineReps(), r.values()
		for _, m := range headline {
			raw := ""
			if v, ok := values["raw."+m.name]; ok {
				raw = fmt.Sprintf(" raw=%.6g", v)
			}
			fmt.Fprintf(w, "  %-24s %12.6g %-4s%s reps=%.6g\n", m.name, values[m.name], m.unit, raw, reps[m.name])
		}
		fmt.Fprintf(w, "  machine.ref_us=%.4g (nominal %g) gen.lag_p99_ms=%.4g gen.inflight_peak=%g tail.campaign_p99_ms=%.4g tail.campaign_max_ms=%.4g\n",
			values["machine.ref_us"], nominalRefUs, values["gen.lag_p99_ms"], values["gen.inflight_peak"], values["tail.campaign_p99_ms"], values["tail.campaign_max_ms"])
		if lag := values["gen.lag_p99_ms"]; lag > 5 {
			fmt.Fprintf(w, "  FLAGGED: gen.lag_p99_ms = %.3f > 5: the generator ran late; do not trust this run\n", lag)
		}
		for _, rep := range r.all() {
			for _, m := range rep.mismatches {
				fmt.Fprintf(w, "  MISMATCH: %s\n", m)
			}
		}
		if r.traced == nil {
			continue
		}
		fmt.Fprintf(w, "traced repetition: campaign_p50_ms=%.6g raw=%.6g machine.ref_us=%.4g\n",
			r.traced.scaled().p50Ms, r.traced.raw().p50Ms, mean(r.traced.refUs[:]))
		printSpanTable(w, r.w.name, append(append([]span(nil), r.traced.spans...), r.probes.spans...))
		fmt.Fprintf(w, "per-layer metrics: %s\n", r.w.name)
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, values[m.name], m.unit)
		}
	}
}

// report is the JSON form of a suite, the shape of bench/baseline/*.json.
func (s *suite) report() map[string]any {
	wl := make(map[string]any, len(s.results))
	for _, r := range s.results {
		attempted, failed := r.ops()
		values := r.values()
		pick := func(specs []metricSpec) map[string]float64 {
			out := make(map[string]float64, len(specs))
			for _, m := range specs {
				out[m.name] = values[m.name]
			}
			return out
		}
		wl[r.w.name] = map[string]any{
			"ops_attempted":    attempted,
			"ops_failed":       failed,
			"end_to_end":       pick(endToEnd),
			"per_layer":        pick(perLayer),
			"repetitions":      r.headlineReps(),
			"open_loop_pooled": len(r.pooledLatencies()),
		}
	}
	return map[string]any{
		"seed": s.opts.seed, "seconds": s.opts.seconds, "traced": s.opts.traced(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"workloads": wl,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// selfcheck runs the untraced suite twice on the same code and seed and
// holds the benchmark to its own bounds: an end-to-end metric that differs
// between the two by more than its bound, on any workload, fails — as does
// any difference in makespan_mean_h or in the failed-operation count, which
// are exact for a seed. The ungated headline numbers are shown, not judged.
func selfcheck(ctx context.Context, o options, which []workload, stdout io.Writer) (bool, error) {
	o.trace = ""
	var runs [2]*suite
	for i := range runs {
		fmt.Fprintf(stdout, "# selfcheck: suite %d/2\n", i+1)
		s, err := runSuite(ctx, o, which, stdout)
		if err != nil {
			return false, err
		}
		runs[i] = s
	}
	ok := runs[0].correct() && runs[1].correct()
	fmt.Fprintf(stdout, "\n%-12s %-24s %14s %14s %9s %8s\n", "workload", "metric", "first", "second", "differ_%", "bound_%")
	for i, r := range runs[0].results {
		a, b := r.values(), runs[1].results[i].values()
		_, failedA := r.ops()
		_, failedB := runs[1].results[i].ops()
		a["ops_failed"], b["ops_failed"] = float64(failedA), float64(failedB)
		rows := append(append([]metricSpec(nil), endToEnd...),
			metricSpec{name: "makespan_mean_h"}, metricSpec{name: "ops_failed"},
			metricSpec{name: "campaign_p95_ms", bound: -1}, metricSpec{name: "info_p50_ms", bound: -1})
		for _, m := range rows {
			x, y := a[m.name], b[m.name]
			diff := 0.0
			if x != y {
				diff = 100 * (y - x) / x
			}
			bound, verdict := fmt.Sprintf("%8.1f", 100*m.bound), ""
			switch {
			case m.bound < 0:
				bound = "  shown"
			case diff > 100*m.bound || diff < -100*m.bound:
				verdict, ok = "  FAIL", false
			}
			fmt.Fprintf(stdout, "%-12s %-24s %14.6g %14.6g %9.2f %s%s\n", r.w.name, m.name, x, y, diff, bound, verdict)
		}
	}
	if ok {
		fmt.Fprintln(stdout, "selfcheck: PASS")
	} else {
		fmt.Fprintln(stdout, "selfcheck: FAIL")
	}
	if o.jsonPath != "" {
		doc := map[string]any{"selfcheck": ok, "runs": []any{runs[0].report(), runs[1].report()}}
		if err := writeJSON(o.jsonPath, doc); err != nil {
			return false, err
		}
	}
	return ok, nil
}
