package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke run keeps the harness compiling and runnable in tier-1: every
// workload once, short phases, the traced pass and the probes included.
func TestShortSuiteRuns(t *testing.T) {
	dir := t.TempDir()
	o := options{seed: 1, seconds: defaultSeconds, short: true, trace: filepath.Join(dir, "spans.jsonl"),
		outDir: dir, jsonPath: filepath.Join(dir, "result.json")}
	var out bytes.Buffer
	ok, err := run(context.Background(), o, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !ok {
		t.Fatalf("the short suite reported incorrect outputs:\n%s", out.String())
	}
	report := out.String()
	for _, w := range workloads {
		if !strings.Contains(report, "workload "+w.name+":") {
			t.Errorf("report has no section for %s", w.name)
		}
	}
	for _, m := range endToEnd {
		if n := strings.Count(report, "\n  "+m.name+" "); n < len(workloads) {
			t.Errorf("end-to-end metric %s printed %d times, want once per workload", m.name, n)
		}
	}
	data, err := os.ReadFile(o.jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads map[string]struct {
			OpsAttempted int                `json:"ops_attempted"`
			OpsFailed    int                `json:"ops_failed"`
			EndToEnd     map[string]float64 `json:"end_to_end"`
			PerLayer     map[string]float64 `json:"per_layer"`
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		got := doc.Workloads[w.name]
		if got.OpsAttempted == 0 || got.OpsFailed != 0 {
			t.Errorf("%s: %d operations attempted, %d failed", w.name, got.OpsAttempted, got.OpsFailed)
		}
		for _, m := range endToEnd {
			if got.EndToEnd[m.name] <= 0 {
				t.Errorf("%s: %s = %g, want a positive measurement", w.name, m.name, got.EndToEnd[m.name])
			}
		}
		for _, m := range perLayer {
			if _, ok := got.PerLayer[m.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, m.name)
			}
		}
		if frames := got.PerLayer["diet.frames_per_campaign"]; (frames == 0) != w.local {
			t.Errorf("%s: diet.frames_per_campaign = %g", w.name, frames)
		}
		if recs := got.PerLayer["store.records_per_campaign"]; (recs > 0) != w.wal {
			t.Errorf("%s: store.records_per_campaign = %g", w.name, recs)
		}
	}
	spans, err := os.ReadFile(o.trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range append([]string{rootSpan, "store.Append", "diet.RoundTrip", "engine.PerformanceVector"}, stageSpans[:]...) {
		if !bytes.Contains(spans, []byte(`"name":"`+name+`"`)) {
			t.Errorf("span file has no %s span", name)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "state-*")); len(left) != 0 {
		t.Errorf("state dirs left behind: %v", left)
	}
}
