package trip

import (
	"math"
	"testing"

	"oagrid/internal/climate/field"
)

func newModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(field.Grid{NLat: 24, NLon: 48})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFlowNetworkAcyclic(t *testing.T) {
	m := newModel(t)
	if len(m.order) == 0 {
		t.Fatal("no land cells routed")
	}
	// Every land cell's flow target is either ocean, off-grid (-1) or
	// another land cell; the topological order built in New proves
	// acyclicity, so reaching here is the assertion.
	mask := field.LandMask(m.grid)
	land := 0
	for _, v := range mask.Data {
		if v > 0.5 {
			land++
		}
	}
	if len(m.order) != land {
		t.Fatalf("routed %d of %d land cells", len(m.order), land)
	}
}

// TestWaterConservation is the core invariant: inflow = discharge + Δstorage
// to round-off, whatever the forcing.
func TestWaterConservation(t *testing.T) {
	m := newModel(t)
	runoff := field.MustNew(m.CouplingGrid(), "runoff", "kg/m2")
	for i := range runoff.Data {
		runoff.Data[i] = float64(i%7) * 0.3
	}
	for day := 0; day < 40; day++ {
		if err := m.Import("runoff", runoff); err != nil {
			t.Fatal(err)
		}
		if err := m.Advance(1); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Export("discharge"); err != nil {
			t.Fatal(err)
		}
	}
	in, out, stored := balance(m)
	if in <= 0 {
		t.Fatal("no water entered the network")
	}
	if rel := math.Abs(in-out-stored) / in; rel > 1e-9 {
		t.Fatalf("water imbalance: in=%g out=%g stored=%g (rel %g)", in, out, stored, rel)
	}
	if out <= 0 {
		t.Fatal("no discharge reached the ocean")
	}
}

func TestDischargeLandsOnOceanCells(t *testing.T) {
	m := newModel(t)
	runoff := field.MustNew(m.CouplingGrid(), "runoff", "kg/m2")
	runoff.Fill(1)
	if err := m.Import("runoff", runoff); err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(5); err != nil {
		t.Fatal(err)
	}
	disch, err := m.Export("discharge")
	if err != nil {
		t.Fatal(err)
	}
	mask := field.LandMask(m.CouplingGrid())
	for idx, v := range disch.Data {
		if v > 0 && mask.Data[idx] > 0.5 {
			t.Fatalf("discharge on land cell %d", idx)
		}
	}
	if disch.Sum() <= 0 {
		t.Fatal("no discharge produced")
	}
	// Export resets the accumulator.
	second, err := m.Export("discharge")
	if err != nil {
		t.Fatal(err)
	}
	if second.Sum() != 0 {
		t.Fatal("discharge accumulator did not reset")
	}
}

func TestStorageDrainsWithoutForcing(t *testing.T) {
	m := newModel(t)
	runoff := field.MustNew(m.CouplingGrid(), "runoff", "kg/m2")
	runoff.Fill(2)
	if err := m.Import("runoff", runoff); err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(3); err != nil {
		t.Fatal(err)
	}
	runoff.Fill(0)
	if err := m.Import("runoff", runoff); err != nil {
		t.Fatal(err)
	}
	_, _, before := balance(m)
	if err := m.Advance(30); err != nil {
		t.Fatal(err)
	}
	_, _, after := balance(m)
	if after >= before {
		t.Fatalf("storage did not drain: %g → %g", before, after)
	}
}

func TestCouplerContract(t *testing.T) {
	m := newModel(t)
	if m.Name() != "trip" {
		t.Fatalf("Name = %q", m.Name())
	}
	if len(m.Exports()) != 1 || m.Exports()[0] != "discharge" {
		t.Fatalf("Exports = %v", m.Exports())
	}
	if len(m.Imports()) != 1 || m.Imports()[0] != "runoff" {
		t.Fatalf("Imports = %v", m.Imports())
	}
	if _, err := m.Export("nope"); err == nil {
		t.Fatal("unknown export accepted")
	}
	f := field.MustNew(m.CouplingGrid(), "x", "1")
	if err := m.Import("nope", f); err == nil {
		t.Fatal("unknown import accepted")
	}
	if err := m.Advance(0); err == nil {
		t.Fatal("zero steps accepted")
	}
	if _, err := New(field.Grid{NLat: 0, NLon: 0}); err == nil {
		t.Fatal("degenerate grid accepted")
	}
}

func TestNegativeRunoffClamped(t *testing.T) {
	m := newModel(t)
	runoff := field.MustNew(m.CouplingGrid(), "runoff", "kg/m2")
	runoff.Fill(-5)
	if err := m.Import("runoff", runoff); err != nil {
		t.Fatal(err)
	}
	if err := m.Advance(2); err != nil {
		t.Fatal(err)
	}
	in, _, stored := balance(m)
	if in != 0 || stored < 0 {
		t.Fatalf("negative runoff leaked: in=%g stored=%g", in, stored)
	}
}

// balance returns total inflow, total outflow and current storage; the
// conservation invariant is in = out + storage.
func balance(m *Model) (in, out, stored float64) {
	for _, idx := range m.order {
		stored += m.Storage.Data[idx]
	}
	return m.totalIn, m.totalOut, stored
}
