package oasis

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"oagrid/internal/climate/arpege"
	"oagrid/internal/climate/field"
	"oagrid/internal/climate/opa"
)

// fake is a minimal component for coupler unit tests.
type fake struct {
	name      string
	grid      field.Grid
	exports   map[string]*field.Field
	imports   map[string]*field.Field
	advanced  atomic.Int64
	failAfter int // Advance fails once this many periods completed (0 = never)
}

func newFake(name string, g field.Grid, exports, imports []string) *fake {
	f := &fake{
		name:    name,
		grid:    g,
		exports: make(map[string]*field.Field),
		imports: make(map[string]*field.Field),
	}
	for _, e := range exports {
		fl := field.MustNew(g, e, "1")
		fl.Fill(1)
		f.exports[e] = fl
	}
	for _, i := range imports {
		f.imports[i] = field.MustNew(g, i, "1")
	}
	return f
}

func (f *fake) Name() string { return f.name }
func (f *fake) Exports() []string {
	var out []string
	for k := range f.exports {
		out = append(out, k)
	}
	return out
}
func (f *fake) Imports() []string {
	var out []string
	for k := range f.imports {
		out = append(out, k)
	}
	return out
}
func (f *fake) Export(name string) (*field.Field, error) {
	fl, ok := f.exports[name]
	if !ok {
		return nil, fmt.Errorf("fake %s: no export %q", f.name, name)
	}
	return fl.Copy(), nil
}
func (f *fake) Import(name string, fl *field.Field) error {
	dst, ok := f.imports[name]
	if !ok {
		return fmt.Errorf("fake %s: no import %q", f.name, name)
	}
	return dst.CopyInto(fl)
}
func (f *fake) Advance(n int) error {
	cur := f.advanced.Add(int64(n))
	if f.failAfter > 0 && cur >= int64(f.failAfter) {
		return errors.New("synthetic component failure")
	}
	return nil
}
func (f *fake) CouplingGrid() field.Grid { return f.grid }

func TestRunExchangesAndAdvances(t *testing.T) {
	g := field.Grid{NLat: 4, NLon: 8}
	a := newFake("a", g, []string{"flux"}, nil)
	b := newFake("b", g, nil, []string{"flux"})
	c := New()
	if err := c.AddComponent(a, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.AddComponent(b, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLink(Link{FromComponent: "a", FromField: "flux", ToComponent: "b", ToField: "flux"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(5); err != nil {
		t.Fatal(err)
	}
	if c.periods != 5 {
		t.Fatalf("periods = %d", c.periods)
	}
	if got := a.advanced.Load(); got != 15 {
		t.Fatalf("component a advanced %d steps, want 15", got)
	}
	if got := b.advanced.Load(); got != 10 {
		t.Fatalf("component b advanced %d steps, want 10", got)
	}
	if b.imports["flux"].Sum() != float64(g.Cells()) {
		t.Fatal("flux not delivered")
	}
}

func TestRegridAcrossGrids(t *testing.T) {
	a := newFake("a", field.Grid{NLat: 4, NLon: 8}, []string{"flux"}, nil)
	b := newFake("b", field.Grid{NLat: 8, NLon: 16}, nil, []string{"flux"})
	c := New()
	if err := c.AddComponent(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddComponent(b, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLink(Link{FromComponent: "a", FromField: "flux", ToComponent: "b", ToField: "flux"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(1); err != nil {
		t.Fatal(err)
	}
	// Source is constant 1 → destination must be constant 1 after bilinear
	// regridding.
	for _, v := range b.imports["flux"].Data {
		if v != 1 {
			t.Fatalf("regridded value %g, want 1", v)
		}
	}
}

func TestAddComponentValidation(t *testing.T) {
	c := New()
	if err := c.AddComponent(nil, 1); err == nil {
		t.Fatal("nil component accepted")
	}
	g := field.Grid{NLat: 4, NLon: 8}
	a := newFake("a", g, nil, nil)
	if err := c.AddComponent(a, 0); err == nil {
		t.Fatal("zero steps accepted")
	}
	if err := c.AddComponent(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddComponent(newFake("a", g, nil, nil), 1); err == nil {
		t.Fatal("duplicate component accepted")
	}
}

func TestAddLinkValidation(t *testing.T) {
	g := field.Grid{NLat: 4, NLon: 8}
	c := New()
	if err := c.AddComponent(newFake("a", g, []string{"x"}, nil), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddComponent(newFake("b", g, nil, []string{"y"}), 1); err != nil {
		t.Fatal(err)
	}
	cases := []Link{
		{FromComponent: "zz", FromField: "x", ToComponent: "b", ToField: "y"},
		{FromComponent: "a", FromField: "x", ToComponent: "zz", ToField: "y"},
		{FromComponent: "a", FromField: "nope", ToComponent: "b", ToField: "y"},
		{FromComponent: "a", FromField: "x", ToComponent: "b", ToField: "nope"},
	}
	for i, l := range cases {
		if err := c.AddLink(l); err == nil {
			t.Errorf("case %d: bad link %v accepted", i, l)
		}
	}
	if err := c.AddLink(Link{FromComponent: "a", FromField: "x", ToComponent: "b", ToField: "y"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	c := New()
	if err := c.Run(1); err == nil {
		t.Fatal("empty coupler ran")
	}
	g := field.Grid{NLat: 4, NLon: 8}
	if err := c.AddComponent(newFake("a", g, nil, nil), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(0); err == nil {
		t.Fatal("zero periods accepted")
	}
	bad := newFake("bad", g, nil, nil)
	bad.failAfter = 2
	if err := c.AddComponent(bad, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(5); err == nil {
		t.Fatal("component failure not propagated")
	}
}

func TestLinkString(t *testing.T) {
	l := Link{FromComponent: "a", FromField: "x", ToComponent: "b", ToField: "y"}
	if got := l.String(); got != "a.x -> b.y" {
		t.Fatalf("String = %q", got)
	}
}

// TestSplitRunEquivalence: coupling is lock-step and deterministic, so
// Run(2) followed by Run(3) must leave the coupled system in exactly the
// state of a single Run(5). Uses the real atmosphere and ocean components.
func TestSplitRunEquivalence(t *testing.T) {
	build := func() (*Coupler, *opa.Model) {
		atm, err := arpege.New(arpege.Config{
			Grid:       field.Grid{NLat: 12, NLon: 24},
			Workers:    2,
			CloudParam: 0.4,
		})
		if err != nil {
			t.Fatal(err)
		}
		ocn, err := opa.New(opa.Config{Grid: field.Grid{NLat: 18, NLon: 36}})
		if err != nil {
			t.Fatal(err)
		}
		c := New()
		if err := c.AddComponent(atm, 4); err != nil {
			t.Fatal(err)
		}
		if err := c.AddComponent(ocn, 2); err != nil {
			t.Fatal(err)
		}
		links := []Link{
			{FromComponent: "arpege", FromField: "heatflux", ToComponent: "opa", ToField: "heatflux"},
			{FromComponent: "opa", FromField: "sst", ToComponent: "arpege", ToField: "sst"},
		}
		for _, l := range links {
			if err := c.AddLink(l); err != nil {
				t.Fatal(err)
			}
		}
		return c, ocn
	}
	cSplit, oSplit := build()
	if err := cSplit.Run(2); err != nil {
		t.Fatal(err)
	}
	if err := cSplit.Run(3); err != nil {
		t.Fatal(err)
	}
	cOnce, oOnce := build()
	if err := cOnce.Run(5); err != nil {
		t.Fatal(err)
	}
	if cSplit.periods != cOnce.periods {
		t.Fatalf("period counts differ: %d vs %d", cSplit.periods, cOnce.periods)
	}
	for i := range oSplit.SST.Data {
		if oSplit.SST.Data[i] != oOnce.SST.Data[i] {
			t.Fatalf("SST diverges at cell %d: %v vs %v", i, oSplit.SST.Data[i], oOnce.SST.Data[i])
		}
	}
}
