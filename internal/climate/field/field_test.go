package field

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGridGeometry(t *testing.T) {
	g := Grid{NLat: 4, NLon: 8}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Cells() != 32 {
		t.Fatalf("Cells = %d, want 32", g.Cells())
	}
	if lat := g.LatAt(0); math.Abs(lat+67.5) > 1e-12 {
		t.Fatalf("LatAt(0) = %g, want -67.5", lat)
	}
	if lat := g.LatAt(3); math.Abs(lat-67.5) > 1e-12 {
		t.Fatalf("LatAt(3) = %g, want 67.5", lat)
	}
	if lon := g.LonAt(0); math.Abs(lon-22.5) > 1e-12 {
		t.Fatalf("LonAt(0) = %g, want 22.5", lon)
	}
	if (Grid{NLat: 1, NLon: 8}).Validate() == nil {
		t.Fatal("degenerate grid accepted")
	}
}

func TestFieldAccessPeriodicLon(t *testing.T) {
	f := MustNew(Grid{NLat: 3, NLon: 4}, "x", "1")
	f.Set(1, 0, 7)
	if f.At(1, 4) != 7 || f.At(1, -4) != 7 {
		t.Fatal("longitude wrap broken")
	}
}

func TestStatsMeanSum(t *testing.T) {
	f := MustNew(Grid{NLat: 2, NLon: 2}, "x", "1")
	f.Fill(3)
	min, max, mean := f.Stats()
	if min != 3 || max != 3 || mean != 3 {
		t.Fatalf("Stats = %g/%g/%g", min, max, mean)
	}
	if f.Sum() != 12 {
		t.Fatalf("Sum = %g", f.Sum())
	}
	// Constant fields have area-weighted mean equal to the constant.
	if m := f.Mean(); math.Abs(m-3) > 1e-12 {
		t.Fatalf("Mean = %g, want 3", m)
	}
}

func TestCopySemantics(t *testing.T) {
	f := MustNew(Grid{NLat: 2, NLon: 2}, "x", "1")
	f.Fill(1)
	cp := f.Copy()
	cp.Set(0, 0, 99)
	if f.At(0, 0) == 99 {
		t.Fatal("Copy shares backing storage")
	}
	g := MustNew(Grid{NLat: 2, NLon: 2}, "y", "1")
	if err := g.CopyInto(f); err != nil {
		t.Fatal(err)
	}
	if g.At(1, 1) != 1 {
		t.Fatal("CopyInto failed")
	}
	other := MustNew(Grid{NLat: 3, NLon: 2}, "z", "1")
	if err := g.CopyInto(other); err == nil {
		t.Fatal("grid mismatch accepted")
	}
}

func TestRegionMean(t *testing.T) {
	g := Grid{NLat: 36, NLon: 72}
	f := MustNew(g, "t", "K")
	// Value = latitude, so the tropics mean must be ~0 and the arctic mean
	// clearly positive.
	for i := 0; i < g.NLat; i++ {
		for j := 0; j < g.NLon; j++ {
			f.Set(i, j, g.LatAt(i))
		}
	}
	for _, r := range StandardRegions() {
		m, err := f.RegionMean(r)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		switch r.Name {
		case "tropics":
			if math.Abs(m) > 1 {
				t.Errorf("tropics mean %g, want ≈0", m)
			}
		case "arctic":
			if m < 66 {
				t.Errorf("arctic mean %g, want > 66", m)
			}
		case "global":
			if math.Abs(m) > 1 {
				t.Errorf("global mean of latitude %g, want ≈0", m)
			}
		}
	}
	if _, err := f.RegionMean(Region{Name: "empty", LatMin: 89.9, LatMax: 89.95}); err == nil {
		t.Error("empty region accepted")
	}
}

func TestIsFinite(t *testing.T) {
	f := MustNew(Grid{NLat: 2, NLon: 2}, "x", "1")
	if !f.IsFinite() {
		t.Fatal("zero field reported non-finite")
	}
	f.Set(0, 1, math.NaN())
	if f.IsFinite() {
		t.Fatal("NaN not detected")
	}
}

func TestRegridIdentity(t *testing.T) {
	g := Grid{NLat: 6, NLon: 12}
	src := MustNew(g, "x", "1")
	for i := range src.Data {
		src.Data[i] = float64(i)
	}
	dst := MustNew(g, "x", "1")
	if err := Regrid(dst, src); err != nil {
		t.Fatal(err)
	}
	for i := range src.Data {
		if dst.Data[i] != src.Data[i] {
			t.Fatal("same-grid regrid is not a copy")
		}
	}
}

// TestRegridBounds: bilinear interpolation never overshoots the source range
// and preserves constants exactly, on any grid pair.
func TestRegridBounds(t *testing.T) {
	f := func(a, b, c, d uint8, konst bool) bool {
		sg := Grid{NLat: 2 + int(a)%30, NLon: 2 + int(b)%30}
		dg := Grid{NLat: 2 + int(c)%30, NLon: 2 + int(d)%30}
		src := MustNew(sg, "x", "1")
		if konst {
			src.Fill(5)
		} else {
			for i := range src.Data {
				src.Data[i] = math.Sin(float64(i) * 0.7)
			}
		}
		dst := MustNew(dg, "x", "1")
		if err := Regrid(dst, src); err != nil {
			return false
		}
		smin, smax, _ := src.Stats()
		dmin, dmax, _ := dst.Stats()
		const eps = 1e-12
		if dmin < smin-eps || dmax > smax+eps {
			return false
		}
		if konst {
			for _, v := range dst.Data {
				if math.Abs(v-5) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRegridNil(t *testing.T) {
	if err := Regrid(nil, nil); err == nil {
		t.Fatal("nil fields accepted")
	}
}

func TestLandMaskAndElevation(t *testing.T) {
	g := Grid{NLat: 24, NLon: 48}
	mask := LandMask(g)
	land, ocean := 0, 0
	for _, v := range mask.Data {
		if v > 0.5 {
			land++
		} else {
			ocean++
		}
	}
	if land == 0 || ocean == 0 {
		t.Fatalf("mask degenerate: %d land, %d ocean", land, ocean)
	}
	frac := float64(land) / float64(len(mask.Data))
	if frac < 0.15 || frac > 0.55 {
		t.Fatalf("land fraction %.2f implausible", frac)
	}
	elev := Elevation(g, mask)
	seen := make(map[float64]bool)
	for idx, v := range elev.Data {
		if mask.Data[idx] < 0.5 {
			if v != 0 {
				t.Fatal("ocean cell with elevation")
			}
			continue
		}
		if v <= 0 {
			t.Fatal("land cell at or below sea level")
		}
		if seen[v] {
			t.Fatalf("duplicate land elevation %g (plateau would break D8 routing)", v)
		}
		seen[v] = true
	}
}
