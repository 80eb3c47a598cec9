package arpege

import (
	"math"
	"testing"

	"oagrid/internal/climate/field"
)

func testConfig(workers int) Config {
	return Config{
		Grid:       field.Grid{NLat: 24, NLon: 48},
		Workers:    workers,
		CloudParam: 0.4,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(4).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Grid: field.Grid{NLat: 1, NLon: 4}, Workers: 1, CloudParam: 0.4},
		{Grid: field.Grid{NLat: 8, NLon: 8}, Workers: 0, CloudParam: 0.4},
		{Grid: field.Grid{NLat: 8, NLon: 8}, Workers: 9, CloudParam: 0.4},
		{Grid: field.Grid{NLat: 8, NLon: 8}, Workers: 2, CloudParam: 0},
		{Grid: field.Grid{NLat: 8, NLon: 8}, Workers: 2, CloudParam: 1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestDecompositionInvariance is the MPI-correctness property: the Jacobi
// core with halo exchange must produce bit-for-bit identical state for any
// worker count.
func TestDecompositionInvariance(t *testing.T) {
	ref, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Advance(48); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 4, 8} {
		m, err := New(testConfig(w))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Advance(48); err != nil {
			t.Fatal(err)
		}
		for i := range ref.T.Data {
			if m.T.Data[i] != ref.T.Data[i] {
				t.Fatalf("workers=%d: T differs at cell %d: %v vs %v", w, i, m.T.Data[i], ref.T.Data[i])
			}
			if m.Q.Data[i] != ref.Q.Data[i] {
				t.Fatalf("workers=%d: Q differs at cell %d", w, i)
			}
		}
	}
}

func TestStabilityAndPhysicalRange(t *testing.T) {
	m, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(30 * StepsPerDay); err != nil {
		t.Fatal(err)
	}
	if !m.T.IsFinite() || !m.Q.IsFinite() {
		t.Fatal("non-finite state after one month")
	}
	min, max, _ := m.T.Stats()
	if min < 180 || max > 340 {
		t.Fatalf("temperature range [%g,%g] K unphysical", min, max)
	}
	qmin, _, _ := m.Q.Stats()
	if qmin < -1e-12 {
		t.Fatalf("negative humidity %g", qmin)
	}
	if m.steps != 30*StepsPerDay {
		t.Fatalf("steps = %d", m.steps)
	}
}

func TestCloudParamControlsPrecip(t *testing.T) {
	run := func(param float64) float64 {
		cfg := testConfig(2)
		cfg.CloudParam = param
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Advance(StepsPerDay * 10); err != nil {
			t.Fatal(err)
		}
		return m.PrecipDiagnostic().Sum()
	}
	lo, hi := run(0.1), run(0.8)
	if lo <= 0 || hi <= 0 {
		t.Fatalf("no precipitation produced: %g / %g", lo, hi)
	}
	if lo == hi {
		t.Fatalf("cloud parameter has no effect: %g == %g", lo, hi)
	}
}

func TestCouplerContract(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "arpege" {
		t.Fatalf("Name = %q", m.Name())
	}
	if err := m.Advance(4); err != nil {
		t.Fatal(err)
	}
	for _, name := range m.Exports() {
		f, err := m.Export(name)
		if err != nil {
			t.Fatalf("Export(%s): %v", name, err)
		}
		if f == nil || !f.IsFinite() {
			t.Fatalf("Export(%s) returned bad field", name)
		}
	}
	// Accumulators reset on export.
	f, err := m.Export("heatflux")
	if err != nil {
		t.Fatal(err)
	}
	if f.Sum() != 0 {
		t.Fatal("heatflux accumulator did not reset")
	}
	if _, err := m.Export("nope"); err == nil {
		t.Fatal("unknown export accepted")
	}
	sst := field.MustNew(m.CouplingGrid(), "sst", "K")
	sst.Fill(300)
	if err := m.Import("sst", sst); err != nil {
		t.Fatal(err)
	}
	if err := m.Import("nope", sst); err == nil {
		t.Fatal("unknown import accepted")
	}
}

// TestWarmSSTWarmsAir: importing a uniformly warm ocean must raise the mean
// air temperature relative to a cold one — the basic sign of the coupling.
func TestWarmSSTWarmsAir(t *testing.T) {
	run := func(sstK float64) float64 {
		m, err := New(testConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		sst := field.MustNew(m.CouplingGrid(), "sst", "K")
		sst.Fill(sstK)
		if err := m.Import("sst", sst); err != nil {
			t.Fatal(err)
		}
		if err := m.Advance(StepsPerDay * 5); err != nil {
			t.Fatal(err)
		}
		return m.T.Mean()
	}
	warm, cold := run(305), run(271)
	if warm <= cold {
		t.Fatalf("warm SST mean T %g ≤ cold SST mean T %g", warm, cold)
	}
}

func TestAdvanceErrors(t *testing.T) {
	m, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(0); err == nil {
		t.Fatal("zero steps accepted")
	}
	if err := m.Advance(-3); err == nil {
		t.Fatal("negative steps accepted")
	}
}

// TestOddStepBufferSwap guards the double-buffer bookkeeping: odd and even
// step counts must chain to the same state as one combined run.
func TestOddStepBufferSwap(t *testing.T) {
	a, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Advance(7); err != nil {
		t.Fatal(err)
	}
	if err := a.Advance(5); err != nil {
		t.Fatal(err)
	}
	b, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Advance(12); err != nil {
		t.Fatal(err)
	}
	for i := range a.T.Data {
		if math.Abs(a.T.Data[i]-b.T.Data[i]) != 0 {
			t.Fatalf("split advance diverges at cell %d", i)
		}
	}
}
