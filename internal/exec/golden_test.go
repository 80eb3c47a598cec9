package exec

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// goldenRun is one line of runs.golden: a labelled Run.
type goldenRun struct {
	label  string
	app    core.Application
	timing platform.Timing
	procs  int
	alloc  core.Allocation
	opt    Options
}

// line runs r and formats its golden line.
func (r goldenRun) line() (string, error) {
	res, err := Run(r.app, r.timing, r.procs, r.alloc, r.opt)
	if err != nil {
		return "", fmt.Errorf("%s: %v", r.label, err)
	}
	return fmt.Sprintf("%s %016x %016x %016x %016x %d %016x\n", r.label,
		math.Float64bits(res.Makespan), math.Float64bits(res.MainsDone),
		math.Float64bits(res.BusyProcSeconds), math.Float64bits(res.Utilization),
		res.RestartedMains, traceDigest(res.Trace)), nil
}

// TestRunsGolden runs the five FiveClusters profiles × R∈{11,30,53} × the
// four heuristics × NM∈{1,12,121} at NS=4 under every golden variant and
// compares each Result with testdata/runs.golden: Makespan, MainsDone,
// BusyProcSeconds and Utilization as Float64bits hex, RestartedMains, and
// an FNV-64a digest of the trace spans (0 without a trace).
//
// It then replays the same runs in a seeded shuffled order on four
// goroutines, so pooled engines pass from large, traced, jittered and
// failure-injected runs to small ones across goroutines: a reset that leaves
// any state behind changes a line.
func TestRunsGolden(t *testing.T) {
	var runs []goldenRun
	for _, cl := range platform.FiveClusters() {
		for _, procs := range []int{11, 30, 53} {
			for _, h := range core.All() {
				for _, nm := range []int{1, 12, 121} {
					app := core.Application{Scenarios: 4, Months: nm}
					al := mustPlan(t, h, app, cl.Timing, procs)
					for _, v := range goldenVariants {
						label := fmt.Sprintf("%s R=%d %s NM=%d %s", cl.Name, procs, h.Name(), nm, v.name)
						runs = append(runs, goldenRun{label, app, cl.Timing, procs, al, v.opt})
					}
				}
			}
		}
	}
	lines := make([]string, len(runs))
	var b bytes.Buffer
	for i, r := range runs {
		l, err := r.line()
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = l
		b.WriteString(l)
	}
	checkGolden(t, b.Bytes())

	order := rand.New(rand.NewPCG(1, 2)).Perm(len(runs))
	const workers = 4
	replay := make([]string, len(runs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < len(order); k += workers {
				l, err := runs[order[k]].line()
				if err != nil {
					t.Error(err)
					return
				}
				replay[order[k]] = l
			}
		}()
	}
	wg.Wait()
	for i := range lines {
		if replay[i] != lines[i] {
			t.Fatalf("shuffled replay, runs.golden line %d:\n got  %s want %s", i+1, replay[i], lines[i])
		}
	}
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
