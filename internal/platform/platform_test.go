package platform

import (
	"math"
	"testing"
	"testing/quick"
)

// TestPaperAnchors pins the calibration to the values the paper reports:
// pcr on 11 processors takes 1260 s on the reference cluster (Figure 1), the
// fastest Grid'5000 cluster needs 1177 s and the slowest 1622 s (§6).
func TestPaperAnchors(t *testing.T) {
	ref := ReferenceTiming()
	got, err := ref.MainSeconds(MaxGroup)
	if err != nil {
		t.Fatal(err)
	}
	if want := PcrSeconds + PreSeconds; math.Abs(got-want) > 1e-9 {
		t.Fatalf("reference main on %d procs = %g, want %g", MaxGroup, got, want)
	}
	if ref.PostSeconds() != PostSeconds {
		t.Fatalf("reference post = %g, want %g", ref.PostSeconds(), PostSeconds)
	}

	clusters := FiveClusters()
	if len(clusters) != 5 {
		t.Fatalf("FiveClusters returned %d clusters", len(clusters))
	}
	first, err := clusters[0].Timing.MainSeconds(MaxGroup)
	if err != nil {
		t.Fatal(err)
	}
	last, err := clusters[len(clusters)-1].Timing.MainSeconds(MaxGroup)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(first-FastestMainSeconds) > 1e-6 {
		t.Fatalf("fastest cluster main = %g, want %g", first, FastestMainSeconds)
	}
	if math.Abs(last-SlowestMainSeconds) > 1e-6 {
		t.Fatalf("slowest cluster main = %g, want %g", last, SlowestMainSeconds)
	}
	for _, c := range clusters {
		if err := c.Validate(); err != nil {
			t.Errorf("cluster %s invalid: %v", c.Name, err)
		}
	}
}

// TestMoldableRange checks the structural constants of the coupled run:
// 3 sequential components plus 1..8 atmosphere processors gives 4..11.
func TestMoldableRange(t *testing.T) {
	if MinGroup != 4 || MaxGroup != 11 {
		t.Fatalf("moldable range [%d,%d], want [4,11]", MinGroup, MaxGroup)
	}
	ref := ReferenceTiming()
	lo, hi := ref.Range()
	if lo != 4 || hi != 11 {
		t.Fatalf("reference range [%d,%d], want [4,11]", lo, hi)
	}
	if _, err := ref.MainSeconds(3); err == nil {
		t.Error("expected error below the moldable range")
	}
	if _, err := ref.MainSeconds(12); err == nil {
		t.Error("expected error above the moldable range")
	}
}

// TestMainSecondsMonotone: more processors never slow the main task, and the
// per-processor cost curve g·T(g) is U-shaped (most efficient around g=6,
// rising towards g=11) — the shape behind the paper's Figure 7, where small
// optimal groupings appear at low resource counts and G grows stepwise.
func TestMainSecondsMonotone(t *testing.T) {
	ref := ReferenceTiming()
	main := func(g int) float64 {
		s, err := ref.MainSeconds(g)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	prev := math.Inf(1)
	for g := MinGroup; g <= MaxGroup; g++ {
		s := main(g)
		if s >= prev {
			t.Errorf("T(%d)=%g did not improve on T(%d)=%g", g, s, g-1, prev)
		}
		prev = s
	}
	// Efficiency peaks mid-range and degrades towards the saturation end.
	for g := 6; g < MaxGroup; g++ {
		if main(g)*float64(g) >= main(g+1)*float64(g+1) {
			t.Errorf("g·T(g) should grow beyond g=6: %g at %d vs %g at %d",
				main(g)*float64(g), g, main(g+1)*float64(g+1), g+1)
		}
	}
	// The worked-example pin (§4.2): seven groups of 7 outperform ten groups
	// of 5 in aggregate throughput, so the basic heuristic picks G=7 at R=53.
	if 7/main(7) <= 10/main(5) {
		t.Errorf("calibration broken: 7/T(7)=%g should exceed 10/T(5)=%g", 7/main(7), 10/main(5))
	}
}

func TestAmdahlSaturation(t *testing.T) {
	a := ReferenceTiming()
	a.MaxPar = 4 // saturate early: g in [4, 7]
	lo, hi := a.Range()
	if lo != 4 || hi != 7 {
		t.Fatalf("saturated range [%d,%d], want [4,7]", lo, hi)
	}
}

func TestTableTiming(t *testing.T) {
	ref := ReferenceTiming()
	tbl := Table{Main: map[int]float64{}, Post: ref.PostSeconds()}
	for g := MinGroup; g <= MaxGroup; g++ {
		tbl.Main[g], _ = ref.MainSeconds(g)
	}
	if err := (&Cluster{Name: "t", Procs: 8, Timing: tbl}).Validate(); err != nil {
		t.Fatalf("table of the reference timing invalid: %v", err)
	}
	if lo, hi := tbl.Range(); lo != MinGroup || hi != MaxGroup {
		t.Fatalf("table range [%d,%d], want [%d,%d]", lo, hi, MinGroup, MaxGroup)
	}
	if _, err := tbl.MainSeconds(99); err == nil {
		t.Error("expected error for missing entry")
	}
	for name, bad := range map[string]Table{
		"non-contiguous":    {Main: map[int]float64{4: 10, 6: 8}, Post: 1},
		"empty":             {},
		"negative duration": {Main: map[int]float64{4: -1}, Post: 1},
		"negative post":     {Main: map[int]float64{4: 10}, Post: -1},
	} {
		if err := (&Cluster{Name: "t", Procs: 8, Timing: bad}).Validate(); err == nil {
			t.Errorf("expected error for %s table", name)
		}
	}
}

func TestClusterValidate(t *testing.T) {
	good := ReferenceCluster(32)
	if err := good.Validate(); err != nil {
		t.Fatalf("reference cluster invalid: %v", err)
	}
	bad := []*Cluster{
		nil,
		{Name: "", Procs: 4, Timing: ReferenceTiming()},
		{Name: "x", Procs: 0, Timing: ReferenceTiming()},
		{Name: "x", Procs: 4},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGrid(t *testing.T) {
	g, err := NewGrid(FiveClusters()...)
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalProcs() != 5*64 {
		t.Fatalf("TotalProcs = %d, want 320", g.TotalProcs())
	}
	if g.ByName("azur") == nil || g.ByName("nope") != nil {
		t.Fatal("ByName lookup broken")
	}
	if len(g.Names()) != 5 {
		t.Fatalf("Names = %v", g.Names())
	}
	g.SortBySpeed()
	if g.Clusters[0].Name != "sagittaire" || g.Clusters[4].Name != "azur" {
		t.Fatalf("SortBySpeed order: %v", g.Names())
	}
	if _, err := NewGrid(); err == nil {
		t.Error("expected error for empty grid")
	}
	dup := FiveClusters()
	dup[1] = dup[0]
	if _, err := NewGrid(dup...); err == nil {
		t.Error("expected error for duplicate cluster names")
	}
}

func TestWithProcs(t *testing.T) {
	c := ReferenceCluster(10)
	d := c.WithProcs(99)
	if d.Procs != 99 || c.Procs != 10 {
		t.Fatalf("WithProcs mutated original or failed: %d/%d", c.Procs, d.Procs)
	}
	if d.Name != c.Name {
		t.Fatalf("WithProcs changed the name")
	}
}

func TestLinkTransfer(t *testing.T) {
	l := Link{LatencySeconds: 0.5, BytesPerSecond: 1 << 20}
	if got := l.TransferSeconds(2 << 20); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("TransferSeconds = %g, want 2.5", got)
	}
	if got := (Link{}).TransferSeconds(1 << 30); got != 0 {
		t.Fatalf("zero link transfer = %g, want 0", got)
	}
	// The 120 MB restart on a gigabit-class link stays near one second.
	ref := ReferenceCluster(8)
	if s := ref.Link.TransferSeconds(120 << 20); s < 0.1 || s > 10 {
		t.Fatalf("restart staging %g s implausible", s)
	}
}

// Property: scaling Speed scales every duration proportionally.
func TestSpeedScaling(t *testing.T) {
	f := func(raw uint8) bool {
		factor := 0.5 + float64(raw)/128
		a := ReferenceTiming()
		b := a
		b.Speed = a.Speed * factor
		for g := MinGroup; g <= MaxGroup; g++ {
			va, err1 := a.MainSeconds(g)
			vb, err2 := b.MainSeconds(g)
			if err1 != nil || err2 != nil {
				return false
			}
			if math.Abs(vb-va*factor) > 1e-9*vb {
				return false
			}
		}
		return math.Abs(b.PostSeconds()-a.PostSeconds()*factor) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
