package opa

import (
	"testing"

	"oagrid/internal/climate/field"
)

func newModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(Config{Grid: field.Grid{NLat: 36, NLon: 72}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Grid: field.Grid{NLat: 1, NLon: 4}}); err == nil {
		t.Fatal("degenerate grid accepted")
	}
}

func TestStability(t *testing.T) {
	m := newModel(t)
	if err := m.Advance(30 * StepsPerDay); err != nil {
		t.Fatal(err)
	}
	if !m.SST.IsFinite() || !m.Sal.IsFinite() {
		t.Fatal("non-finite ocean state")
	}
	min, max, _ := m.SST.Stats()
	if min < freezeK-3-1e-9 || max > 310+1e-9 {
		t.Fatalf("SST range [%g,%g] outside envelope", min, max)
	}
	if m.steps != 30*StepsPerDay {
		t.Fatalf("steps = %d", m.steps)
	}
}

func TestIceFractionBoundsAndColdPoles(t *testing.T) {
	m := newModel(t)
	if err := m.Advance(StepsPerDay * 5); err != nil {
		t.Fatal(err)
	}
	for idx, v := range m.Ice.Data {
		if v < 0 || v > 1 {
			t.Fatalf("ice fraction %g at cell %d", v, idx)
		}
	}
	// Polar rows are near or below freezing initially, so some ice exists.
	if m.Ice.Sum() == 0 {
		t.Fatal("no sea ice anywhere")
	}
	// Tropical ice should be zero.
	g := m.CouplingGrid()
	eq := g.NLat / 2
	for j := 0; j < g.NLon; j++ {
		if m.Ice.At(eq, j) != 0 {
			t.Fatalf("tropical ice at column %d", j)
		}
	}
}

func TestHeatFluxWarms(t *testing.T) {
	warm := newModel(t)
	flux := field.MustNew(warm.CouplingGrid(), "heatflux", "K/step")
	flux.Fill(0.5)
	if err := warm.Import("heatflux", flux); err != nil {
		t.Fatal(err)
	}
	if err := warm.Advance(StepsPerDay); err != nil {
		t.Fatal(err)
	}
	ctl := newModel(t)
	if err := ctl.Advance(StepsPerDay); err != nil {
		t.Fatal(err)
	}
	if warm.SST.Mean() <= ctl.SST.Mean() {
		t.Fatalf("positive heat flux did not warm: %g vs %g", warm.SST.Mean(), ctl.SST.Mean())
	}
}

func TestFreshwaterDilutes(t *testing.T) {
	m := newModel(t)
	fresh := field.MustNew(m.CouplingGrid(), "freshwater", "kg/m2")
	fresh.Fill(0.2)
	if err := m.Import("freshwater", fresh); err != nil {
		t.Fatal(err)
	}
	before := m.Sal.Mean()
	if err := m.Advance(StepsPerDay); err != nil {
		t.Fatal(err)
	}
	if m.Sal.Mean() >= before {
		t.Fatalf("freshwater did not dilute salinity: %g → %g", before, m.Sal.Mean())
	}
}

func TestCouplerContract(t *testing.T) {
	m := newModel(t)
	if m.Name() != "opa" {
		t.Fatalf("Name = %q", m.Name())
	}
	f, err := m.Export("sst")
	if err != nil || f == nil {
		t.Fatalf("Export(sst): %v", err)
	}
	if _, err := m.Export("nope"); err == nil {
		t.Fatal("unknown export accepted")
	}
	for _, imp := range m.Imports() {
		fld := field.MustNew(m.CouplingGrid(), imp, "1")
		if err := m.Import(imp, fld); err != nil {
			t.Fatalf("Import(%s): %v", imp, err)
		}
	}
	if err := m.Import("nope", f); err == nil {
		t.Fatal("unknown import accepted")
	}
	if err := m.Advance(0); err == nil {
		t.Fatal("zero steps accepted")
	}
}

func TestLandCellsInert(t *testing.T) {
	m := newModel(t)
	g := m.CouplingGrid()
	mask := field.LandMask(g)
	var landIdx int = -1
	for idx, v := range mask.Data {
		if v > 0.5 {
			landIdx = idx
			break
		}
	}
	if landIdx < 0 {
		t.Skip("no land cell on this grid")
	}
	before := m.SST.Data[landIdx]
	if err := m.Advance(StepsPerDay * 3); err != nil {
		t.Fatal(err)
	}
	if m.SST.Data[landIdx] != before {
		t.Fatal("land cell SST changed")
	}
}
