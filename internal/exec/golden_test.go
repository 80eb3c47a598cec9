package exec

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oagrid/internal/core"
	"oagrid/internal/platform"
	"oagrid/internal/trace"
)

// update rewrites testdata/runs.golden instead of comparing against it:
//
//	go test ./internal/exec -run TestRunsGolden -update
//
// The golden pins every Result field bit for bit over clusters, heuristics
// and options the figure goldens never exercise, so a diff there is a
// behaviour change. Regenerate it only from the parent of a change, with the
// reason recorded, never to silence a failure.
var update = flag.Bool("update", false, "rewrite testdata/runs.golden")

// goldenVariants are the option sets of runs.golden, one line per set.
var goldenVariants = []struct {
	name string
	opt  Options
}{
	{"default", Options{}},
	{"round-robin", Options{Policy: RoundRobin}},
	{"most-advanced", Options{Policy: MostAdvanced}},
	{"jitter", Options{Jitter: 0.1, Seed: 7}},
	{"no-idle-steal", Options{NoIdleSteal: true}},
	{"sticky", Options{StickyDispatch: true}},
	{"failures", Options{Failures: []Failure{{Group: 0, At: 1500, Duration: 600}, {Group: 1, At: 4000, Duration: 3000}}}},
	{"trace", Options{RecordTrace: true}},
}

// TestRunsGolden runs the five FiveClusters profiles × R∈{11,30,53} × the
// four heuristics × NM∈{1,12,121} at NS=4 under every golden variant and
// compares each Result with testdata/runs.golden: Makespan, MainsDone,
// BusyProcSeconds and Utilization as Float64bits hex, RestartedMains, and
// an FNV-64a digest of the trace spans (0 without a trace).
func TestRunsGolden(t *testing.T) {
	var b bytes.Buffer
	for _, cl := range platform.FiveClusters() {
		for _, procs := range []int{11, 30, 53} {
			for _, h := range core.All() {
				for _, nm := range []int{1, 12, 121} {
					app := core.Application{Scenarios: 4, Months: nm}
					al := mustPlan(t, h, app, cl.Timing, procs)
					for _, v := range goldenVariants {
						res, err := Run(app, cl.Timing, procs, al, v.opt)
						if err != nil {
							t.Fatalf("%s R=%d %s NM=%d %s: %v", cl.Name, procs, h.Name(), nm, v.name, err)
						}
						fmt.Fprintf(&b, "%s R=%d %s NM=%d %s %016x %016x %016x %016x %d %016x\n",
							cl.Name, procs, h.Name(), nm, v.name,
							math.Float64bits(res.Makespan), math.Float64bits(res.MainsDone),
							math.Float64bits(res.BusyProcSeconds), math.Float64bits(res.Utilization),
							res.RestartedMains, traceDigest(res.Trace))
					}
				}
			}
		}
	}
	checkGolden(t, b.Bytes())
}

// traceDigest hashes every span of tr in order; a nil trace digests to 0.
func traceDigest(tr *trace.Trace) uint64 {
	if tr == nil {
		return 0
	}
	h := fnv.New64a()
	for _, s := range tr.Spans {
		fmt.Fprintf(h, "%s %d %d %d %016x %016x\n", s.Resource, s.Kind, s.Scenario, s.Month,
			math.Float64bits(s.Start), math.Float64bits(s.End))
	}
	return h.Sum64()
}

// checkGolden compares got with testdata/runs.golden.
func checkGolden(t *testing.T, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "runs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}
