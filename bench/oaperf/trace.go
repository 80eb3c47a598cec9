package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer, or between two events of a campaign's public event stream. Spans of
// one campaign share its ID; Parent names the span that caused this one.
type span struct {
	Workload string `json:"workload"`
	ID       uint64 `json:"id"`
	Name     string `json:"name"`
	Parent   string `json:"parent"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// rootSpan is a campaign's whole life as its client sees it; stageSpans are
// its contiguous children, in order.
const rootSpan = "client.run"

var stageSpans = [numStages - 1]string{"oagrid.submit", "grid.queue_plan", "grid.exec", "grid.finish"}

// campaignSpans builds a traced campaign's spans from its stage marks: the
// root first, then the four children. A stage whose event never arrived (or
// arrived out of order) collapses to zero length at its predecessor, so the
// children always tile the root exactly.
func campaignSpans(workload string, id uint64, marks [numStages]time.Time) []span {
	at := make([]int64, numStages)
	for i, m := range marks {
		if !m.IsZero() {
			at[i] = m.UnixNano()
		}
		if i > 0 && at[i] < at[i-1] {
			at[i] = at[i-1]
		}
	}
	out := []span{{Workload: workload, ID: id, Name: rootSpan, StartNs: at[atRun], EndNs: at[atResult]}}
	for i, name := range stageSpans {
		out = append(out, span{Workload: workload, ID: id, Name: name, Parent: rootSpan, StartNs: at[i], EndNs: at[i+1]})
	}
	return out
}

// timed runs fn and returns the span around it: every layer-probe call is a
// span named after the function it calls.
func timed(workload string, id uint64, name string, fn func()) span {
	t0 := time.Now()
	fn()
	return span{Workload: workload, ID: id, Name: name, StartNs: t0.UnixNano(), EndNs: time.Now().UnixNano()}
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its child spans (same workload and ID, Parent = its name)
// cover. Overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	type key struct {
		workload string
		id       uint64
		parent   string
	}
	children := make(map[key][]span)
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.Workload, s.ID, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[key{s.Workload, s.ID, s.Name}]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanRow is one line of the traced report.
type spanRow struct {
	name                  string
	count                 int
	p50Ms, p95Ms, selfP50 float64
	sharePct              float64 // of client.run; 0 for spans outside a campaign
	durMs, selfMs         []float64
	totalNs               int64
}

// spanTable folds one workload's spans into per-name rows, campaign spans
// first in pipeline order, probe spans after in name order.
func spanTable(spans []span) []spanRow {
	self := selfTimes(spans)
	rows := make(map[string]*spanRow)
	var rootTotal int64
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &spanRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.totalNs += s.dur()
		r.durMs = append(r.durMs, float64(s.dur())/1e6)
		r.selfMs = append(r.selfMs, float64(self[i])/1e6)
		if s.Name == rootSpan {
			rootTotal += s.dur()
		}
	}
	order := append([]string{rootSpan}, stageSpans[:]...)
	inCampaign := make(map[string]bool)
	for _, n := range order {
		inCampaign[n] = true
	}
	var probes []string
	for n := range rows {
		if !inCampaign[n] {
			probes = append(probes, n)
		}
	}
	sort.Strings(probes)
	var out []spanRow
	for _, n := range append(order, probes...) {
		r := rows[n]
		if r == nil {
			continue
		}
		r.p50Ms, r.p95Ms, r.selfP50 = median(r.durMs), percentile(r.durMs, 95), median(r.selfMs)
		if inCampaign[n] && rootTotal > 0 {
			r.sharePct = 100 * float64(r.totalNs) / float64(rootTotal)
		}
		out = append(out, *r)
	}
	return out
}

// printSpanTable writes the traced report of one workload: each span name's
// p50/p95, self time and share of client.run. The four stage shares sum to
// 100 % by construction.
func printSpanTable(w io.Writer, workload string, spans []span) {
	fmt.Fprintf(w, "traced spans: %s\n", workload)
	fmt.Fprintf(w, "  %-28s %8s %12s %12s %12s %8s\n", "span", "count", "p50_ms", "p95_ms", "self_p50_ms", "share_%")
	for _, r := range spanTable(spans) {
		fmt.Fprintf(w, "  %-28s %8d %12.4f %12.4f %12.4f %8.1f\n", r.name, r.count, r.p50Ms, r.p95Ms, r.selfP50, r.sharePct)
	}
}

// stageP50 is the median duration in ms of the named span.
func stageP50(spans []span, name string) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, float64(s.dur())/1e6)
		}
	}
	return median(d)
}

// writeSpans writes the spans kept in memory as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
