package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// encodeSchedule renders a schedule as text — what the determinism test compares
// byte for byte.
func encodeSchedule(sched []arrival) string {
	var b strings.Builder
	for _, a := range sched {
		fmt.Fprintf(&b, "%d %d %d %t\n", a.due, a.ns, a.nm, a.novel)
	}
	return b.String()
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		gen := func(seed uint64) string {
			g := newGenerator(seed, w)
			sched, err := g.openSchedule(4 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return encodeSchedule(sched)
		}
		a, b, c := gen(7), gen(7), gen(8)
		if a != b {
			t.Errorf("%s: two schedules from seed 7 differ", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	w, err := workloadByName("large-mixed")
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(3, w)
	d := 5 * time.Second
	sched, err := g.openSchedule(d)
	if err != nil {
		t.Fatal(err)
	}
	if want := int(w.rate * d.Seconds()); len(sched) != want {
		t.Fatalf("%d arrivals, want rate × duration = %d", len(sched), want)
	}
	if !sort.SliceIsSorted(sched, func(i, j int) bool { return sched[i].due < sched[j].due }) {
		t.Error("arrivals are not in due order")
	}
	novel, popular := 0, map[int]int{}
	for _, a := range sched {
		if a.due < 0 || a.due >= d {
			t.Errorf("arrival due at %v outside [0, %v)", a.due, d)
		}
		if a.novel {
			novel++
			if a.nm < novelLo || a.nm > novelHi {
				t.Errorf("novel NM %d outside [%d, %d]", a.nm, novelLo, novelHi)
			}
		} else {
			popular[a.nm]++
		}
	}
	if novel != len(sched)/w.novelEvery {
		t.Errorf("%d novel campaigns of %d, want exactly one in %d", novel, len(sched), w.novelEvery)
	}
	// 30 popular campaigns dealt 3:2:1 over NM 600, 1200 and 1800.
	for nm, want := range map[int]int{600: 15, 1200: 10, 1800: 5} {
		if popular[nm] != want {
			t.Errorf("popular NM %d drawn %d times of %d, want %d", nm, popular[nm], len(sched)-novel, want)
		}
	}
}

// A novel NM stands for a campaign nobody has submitted before; one that
// repeated would hit the vector cache and hide what a miss costs.
func TestNovelNeverRepeatsWithinAnInvocation(t *testing.T) {
	w, err := workloadByName("large-mixed")
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(11, w)
	seen := map[int]bool{}
	note := func(shapes []shape) {
		for _, sh := range shapes {
			if !sh.novel {
				continue
			}
			if seen[sh.nm] {
				t.Fatalf("novel NM %d drawn twice", sh.nm)
			}
			seen[sh.nm] = true
			for _, p := range w.popular {
				if sh.nm == p {
					t.Fatalf("novel NM %d is a popular value", sh.nm)
				}
			}
		}
	}
	// A traced suite: four repetitions, each with both phases, then a probe.
	for rep := 0; rep < 4; rep++ {
		sched, err := g.openSchedule(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range sched {
			note([]shape{a.shape})
		}
		seq, err := g.closedSequence()
		if err != nil {
			t.Fatal(err)
		}
		note(seq)
	}
	nm, err := g.takeNovel(1)
	if err != nil {
		t.Fatal(err)
	}
	note([]shape{{nm: nm[0], novel: true}})
	if _, err := g.takeNovel(novelHi); err == nil {
		t.Error("an exhausted pool handed out values instead of failing")
	}
}

// BENCHMARK.json is what a driver reads and the tables in this package are
// what the harness prints; the two must name the same things.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, harness %q / %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better() {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s] %s, harness %s [%s] %s", kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better())
			}
			if bounded && (g.Bound == nil || *g.Bound != m.bound) {
				t.Errorf("%s: bound in BENCHMARK.json differs from the harness's %g", m.name, m.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", m.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
