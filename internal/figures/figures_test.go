package figures

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oagrid/internal/core"
	"oagrid/internal/stats"
)

// update rewrites the figure goldens instead of comparing against them:
//
//	go test ./internal/figures -run 'Figure(7|8Gains|10)Shape' -update
//
// The goldens pin the paper's results bit for bit, so a diff there is a
// behaviour change. Regenerate them only from the parent of a change, with
// the reason recorded, never to silence a failure.
var update = flag.Bool("update", false, "rewrite testdata/*.golden")

// checkGolden compares got with testdata/<name>.golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
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

// bitsLine renders values as Float64bits hex followed by %g for readers.
func bitsLine(b *bytes.Buffer, prefix string, vs ...float64) {
	b.WriteString(prefix)
	for _, v := range vs {
		fmt.Fprintf(b, " %016x", math.Float64bits(v))
	}
	for _, v := range vs {
		fmt.Fprintf(b, " %g", v)
	}
	b.WriteByte('\n')
}

// seriesGolden renders each point's mean and standard deviation.
func seriesGolden(series []*stats.Series) []byte {
	var b bytes.Buffer
	b.WriteString("# label x mean-bits stddev-bits mean stddev\n")
	for _, s := range series {
		for _, p := range s.Points {
			bitsLine(&b, fmt.Sprintf("%s %g", s.Label, p.X), p.Mean, p.StdDev)
		}
	}
	return b.Bytes()
}

// testConfig shrinks the workload: gains are governed by the wave structure,
// not the chain length, so three simulated years per scenario suffice.
func testConfig() Config {
	return Config{
		App:   core.Application{Scenarios: 10, Months: 36},
		RStep: 7,
	}
}

func TestFigure7Shape(t *testing.T) {
	cfg := DefaultConfig() // grouping choice is model-based and cheap
	cfg.RStep = 1
	s, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 110 {
		t.Fatalf("figure 7 has %d points, want 110", len(s.Points))
	}
	var b bytes.Buffer
	b.WriteString("# R G\n")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%g %g\n", p.X, p.Mean)
	}
	checkGolden(t, "figure7", b.Bytes())
	for _, p := range s.Points {
		g := p.Mean
		if g < 4 || g > 11 {
			t.Fatalf("R=%g: grouping %g outside [4,11]", p.X, g)
		}
	}
	// Anchors from the paper: G=7 at R=53 (worked example), G=11 with
	// plentiful resources (R=120 hosts 10 groups of 11), small G at R=20.
	at := func(r float64) float64 {
		for _, p := range s.Points {
			if p.X == r {
				return p.Mean
			}
		}
		t.Fatalf("no point at R=%g", r)
		return 0
	}
	if at(53) != 7 {
		t.Errorf("figure 7 at R=53: G=%g, want 7", at(53))
	}
	if at(120) != 11 {
		t.Errorf("figure 7 at R=120: G=%g, want 11", at(120))
	}
	if at(20) > 6 {
		t.Errorf("figure 7 at R=20: G=%g, want small (≤6)", at(20))
	}
	// Large-R plateau: the last points are all 11.
	if at(115) != 11 || at(118) != 11 {
		t.Errorf("figure 7 should plateau at 11 near R=120")
	}
}

func TestFigure8GainsShape(t *testing.T) {
	cfg := testConfig()
	series, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("figure 8 has %d series, want 3", len(series))
	}
	checkGolden(t, "figure8", seriesGolden(series))
	knap := series[2]
	if knap.Label != "gain-knapsack" {
		t.Fatalf("third series is %q, want gain-knapsack", knap.Label)
	}
	maxGain := 0.0
	for si, s := range series {
		if len(s.Points) == 0 {
			t.Fatalf("series %d empty", si)
		}
		for _, p := range s.Points {
			if p.Mean > maxGain {
				maxGain = p.Mean
			}
			// Gains stay within the paper's plotted range (-2%..14%).
			if p.Mean < -6 || p.Mean > 20 {
				t.Errorf("%s at R=%g: gain %.2f%% outside plausible range", s.Label, p.X, p.Mean)
			}
			if p.StdDev < 0 {
				t.Errorf("%s at R=%g: negative stddev", s.Label, p.X)
			}
		}
	}
	// The evaluation's headline: improvements reach gains of several percent.
	if maxGain < 3 {
		t.Errorf("best gain %.2f%%, expected a few percent at least", maxGain)
	}
	// Knapsack dominates at low resource counts (paper: "yields the best
	// results with low resources").
	lowR := knap.Points[0]
	for _, s := range series[:2] {
		if s.Points[0].Mean > lowR.Mean+1e-9 {
			t.Errorf("at R=%g, %s gain %.2f%% beats knapsack %.2f%%",
				lowR.X, s.Label, s.Points[0].Mean, lowR.Mean)
		}
	}
}

func TestFigure8LargeRConvergence(t *testing.T) {
	// With R ≥ 11·NS + margin every heuristic builds NS groups of 11, so the
	// gains vanish ("with a lot of resources, there are no more gains since
	// there are NS groups of 11 resources").
	cfg := testConfig()
	cfg.App.Scenarios = 4 // 4 groups of 11 fit well below 120
	series, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		last := s.Points[len(s.Points)-1]
		if math.Abs(last.Mean) > 0.5 {
			t.Errorf("%s at R=%g: gain %.2f%% should be ≈0 with saturated groups", s.Label, last.X, last.Mean)
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	cfg := testConfig()
	sweep := []int{11, 33, 55, 77, 99}
	series, points, err := Figure10(cfg, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("figure 10 has %d series, want 3", len(series))
	}
	wantPoints := 4 * len(sweep) // k = 2..5
	if len(points) != wantPoints {
		t.Fatalf("figure 10 has %d grid points, want %d", len(points), wantPoints)
	}
	// At equal cluster sizes Algorithm 1's shares hardly ever depend on the
	// heuristic. NM=12 with clusters of 27 is the one test-scale point where
	// they do (knapsack, three clusters), so it is pinned too: a vector
	// served to the wrong heuristic shows there.
	_, pinned, err := Figure10(Config{App: core.Application{Scenarios: 10, Months: 12}}, []int{27})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.WriteString("# clusters procs gain-bits... gain...\n")
	for _, pt := range points {
		bitsLine(&b, fmt.Sprintf("%d %d", pt.Clusters, pt.ProcsPerCluster), pt.Gains...)
	}
	b.WriteString("# NM=12\n")
	for _, pt := range pinned {
		bitsLine(&b, fmt.Sprintf("%d %d", pt.Clusters, pt.ProcsPerCluster), pt.Gains...)
	}
	checkGolden(t, "figure10", b.Bytes())
	for _, pt := range points {
		if pt.Clusters < 2 || pt.Clusters > 5 {
			t.Fatalf("grid point with %d clusters", pt.Clusters)
		}
		wantX := float64(pt.Clusters) + float64(pt.ProcsPerCluster)/100
		if math.Abs(pt.X-wantX) > 1e-12 {
			t.Fatalf("x encoding %g, want %g", pt.X, wantX)
		}
		if len(pt.Gains) != 3 {
			t.Fatalf("grid point has %d gains, want 3", len(pt.Gains))
		}
		for i, g := range pt.Gains {
			if g < -8 || g > 20 {
				t.Errorf("k=%d R=%d: gain[%d] = %.2f%% implausible", pt.Clusters, pt.ProcsPerCluster, i, g)
			}
		}
	}
}

func TestAblationKnapsackValue(t *testing.T) {
	cfg := testConfig()
	series, err := AblationKnapsackValue(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("ablation has %d series, want 3", len(series))
	}
	// The paper's 1/T value maximizes aggregate throughput, which governs the
	// steady-state but not the finish-line effects of the last waves — so an
	// alternative value can win an isolated point by a sliver. Assert the
	// paper's choice is never beaten by more than 2% anywhere and wins on
	// average (this asymmetry is the ablation's finding, see EXPERIMENTS.md).
	var sumRef, sumAlt [3]float64
	for i := 1; i < 3; i++ {
		for j, p := range series[i].Points {
			ref := series[0].Points[j]
			sumRef[i] += ref.Mean
			sumAlt[i] += p.Mean
			if p.Mean < ref.Mean*0.98 {
				t.Errorf("%s at R=%g: makespan %.0f beats the paper's value function %.0f by >2%%",
					series[i].Label, p.X, p.Mean, ref.Mean)
			}
		}
		if sumAlt[i] < sumRef[i] {
			t.Errorf("%s wins on average over the paper's 1/T value", series[i].Label)
		}
	}
}

func TestAblationFairness(t *testing.T) {
	series, err := AblationFairness(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("fairness ablation has %d series, want 3", len(series))
	}
	// Round-robin tracks least-advanced closely (both keep scenarios
	// balanced), but most-advanced drains scenarios sequentially and strands
	// the tail on few groups — it must never beat least-advanced and is
	// expected to collapse badly somewhere. This is why the paper's policy
	// matters (ablation A2).
	worstMostAdvanced := 0.0
	for j := range series[0].Points {
		la := series[0].Points[j].Mean
		rr := series[1].Points[j].Mean
		ma := series[2].Points[j].Mean
		if rel := math.Abs(rr-la) / la; rel > 0.10 {
			t.Errorf("round-robin at R=%g deviates %.1f%% from least-advanced", series[1].Points[j].X, rel*100)
		}
		if ma < la*(1-1e-9) {
			t.Errorf("most-advanced at R=%g beats least-advanced (%g < %g)", series[2].Points[j].X, ma, la)
		}
		if rel := (ma - la) / la; rel > worstMostAdvanced {
			worstMostAdvanced = rel
		}
	}
	if worstMostAdvanced < 0.10 {
		t.Errorf("most-advanced never collapsed (worst +%.1f%%); the fairness ablation lost its signal", worstMostAdvanced*100)
	}
}

func TestAblationModelError(t *testing.T) {
	s, err := AblationModelError(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Points {
		if p.Mean > 1.0 {
			t.Errorf("model error %.3f%% at R=%g exceeds 1%%", p.Mean, p.X)
		}
	}
}

func TestAblationCPA(t *testing.T) {
	cfg := testConfig()
	series, err := AblationCPA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("cpa ablation has %d series, want 4", len(series))
	}
	byLabel := map[string]int{}
	for i, s := range series {
		byLabel[s.Label] = i
	}
	for _, want := range []string{"basic", "knapsack", "cpa", "sequential-dags"} {
		if _, ok := byLabel[want]; !ok {
			t.Fatalf("missing series %q", want)
		}
	}
	// The paper's §3 argument, quantified. CPA's allotment ignores the NS
	// concurrency cap, so knapsack must win on average and never lose by
	// more than 2% (isolated finish-line effects can hand CPA a sliver at a
	// lucky R, as with the value-function ablation). Sequential DAGs must
	// collapse everywhere (one scenario at a time cannot exploit the
	// cluster).
	knap := series[byLabel["knapsack"]]
	cpa := series[byLabel["cpa"]]
	seq := series[byLabel["sequential-dags"]]
	var sumKnap, sumCPA float64
	for j, p := range knap.Points {
		cpaMS := cpa.Points[j].Mean
		sumKnap += p.Mean
		sumCPA += cpaMS
		if p.Mean > cpaMS*1.02 {
			t.Errorf("at R=%g: knapsack %.0f worse than CPA %.0f by >2%%", p.X, p.Mean, cpaMS)
		}
		if seqMS := seq.Points[j].Mean; seqMS < p.Mean*1.5 {
			t.Errorf("at R=%g: sequential DAGs %.0f did not collapse vs knapsack %.0f", p.X, seqMS, p.Mean)
		}
	}
	if sumKnap >= sumCPA {
		t.Errorf("knapsack does not beat CPA on average (%.0f vs %.0f)", sumKnap, sumCPA)
	}
}

func TestAblationJitter(t *testing.T) {
	cfg := testConfig()
	cfg.RStep = 25
	series, err := AblationJitter(cfg, []float64{0, 0.05}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("jitter ablation has %d series, want 2", len(series))
	}
	// Zero amplitude must reproduce the deterministic gain for every seed.
	for _, p := range series[0].Points {
		if p.StdDev != 0 {
			t.Errorf("zero-jitter gains vary across seeds at R=%g", p.X)
		}
	}
}
