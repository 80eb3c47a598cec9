// Package field provides the gridded geophysical fields shared by the toy
// climate components: uniform latitude–longitude grids, area-weighted and
// regional means, and bilinear regridding between component grids (the job
// the OASIS coupler performs between ARPEGE's and OPA's grids).
package field

import (
	"errors"
	"fmt"
	"math"
)

// Grid is a uniform global latitude–longitude grid. Latitude runs from
// -90+Δ/2 to 90-Δ/2 over NLat rows (cell centers); longitude from 0 to
// 360-Δ over NLon columns, periodic.
type Grid struct {
	NLat int
	NLon int
}

// Validate checks the grid is usable.
func (g Grid) Validate() error {
	if g.NLat < 2 || g.NLon < 2 {
		return fmt.Errorf("field: degenerate grid %dx%d", g.NLat, g.NLon)
	}
	return nil
}

// Cells returns the number of grid cells.
func (g Grid) Cells() int { return g.NLat * g.NLon }

// LatAt returns the latitude of row i's cell center in degrees.
func (g Grid) LatAt(i int) float64 {
	return -90 + (float64(i)+0.5)*180/float64(g.NLat)
}

// LonAt returns the longitude of column j's cell center in degrees.
func (g Grid) LonAt(j int) float64 {
	return (float64(j) + 0.5) * 360 / float64(g.NLon)
}

// CellWeight returns the relative area weight of row i (∝ cos latitude).
func (g Grid) CellWeight(i int) float64 {
	return math.Cos(g.LatAt(i) * math.Pi / 180)
}

// Field is a scalar field on a Grid, row-major (lat, lon).
type Field struct {
	Grid Grid
	Name string
	Unit string
	Data []float64
}

// New allocates a zero field on the grid.
func New(g Grid, name, unit string) (*Field, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Field{Grid: g, Name: name, Unit: unit, Data: make([]float64, g.Cells())}, nil
}

// MustNew is New for statically valid grids; it panics on error.
func MustNew(g Grid, name, unit string) *Field {
	f, err := New(g, name, unit)
	if err != nil {
		panic(err)
	}
	return f
}

// idx returns the flat index of (i, j) with periodic longitude.
func (f *Field) idx(i, j int) int {
	j = ((j % f.Grid.NLon) + f.Grid.NLon) % f.Grid.NLon
	return i*f.Grid.NLon + j
}

// At returns the value at row i, column j (longitude periodic).
func (f *Field) At(i, j int) float64 { return f.Data[f.idx(i, j)] }

// Set stores v at row i, column j (longitude periodic).
func (f *Field) Set(i, j int, v float64) { f.Data[f.idx(i, j)] = v }

// Fill sets every cell to v.
func (f *Field) Fill(v float64) {
	for i := range f.Data {
		f.Data[i] = v
	}
}

// Copy returns a deep copy.
func (f *Field) Copy() *Field {
	cp := *f
	cp.Data = append([]float64(nil), f.Data...)
	return &cp
}

// CopyInto copies data from src; grids must match.
func (f *Field) CopyInto(src *Field) error {
	if src.Grid != f.Grid {
		return fmt.Errorf("field: grid mismatch %+v vs %+v", src.Grid, f.Grid)
	}
	copy(f.Data, src.Data)
	return nil
}

// Stats returns the min, max and unweighted mean of the field.
func (f *Field) Stats() (min, max, mean float64) {
	if len(f.Data) == 0 {
		return 0, 0, 0
	}
	min, max = f.Data[0], f.Data[0]
	sum := 0.0
	for _, v := range f.Data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	return min, max, sum / float64(len(f.Data))
}

// Mean returns the area-weighted global mean.
func (f *Field) Mean() float64 {
	num, den := 0.0, 0.0
	for i := 0; i < f.Grid.NLat; i++ {
		w := f.Grid.CellWeight(i)
		for j := 0; j < f.Grid.NLon; j++ {
			num += w * f.At(i, j)
			den += w
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Sum returns the plain (unweighted) sum of all cells — the conservation
// check quantity of the advection–diffusion tests.
func (f *Field) Sum() float64 {
	s := 0.0
	for _, v := range f.Data {
		s += v
	}
	return s
}

// IsFinite reports whether every cell is a finite number.
func (f *Field) IsFinite() bool {
	for _, v := range f.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Region is a latitude/longitude box (degrees) used by the analysis task
// extract_minimum_information.
type Region struct {
	Name           string
	LatMin, LatMax float64
	LonMin, LonMax float64
}

// StandardRegions are the key regions reported by the post-processing
// analysis: the globe, the tropics, the North Atlantic and the Arctic.
func StandardRegions() []Region {
	return []Region{
		{Name: "global", LatMin: -90, LatMax: 90, LonMin: 0, LonMax: 360},
		{Name: "tropics", LatMin: -23.5, LatMax: 23.5, LonMin: 0, LonMax: 360},
		{Name: "north-atlantic", LatMin: 30, LatMax: 65, LonMin: 280, LonMax: 350},
		{Name: "arctic", LatMin: 66.5, LatMax: 90, LonMin: 0, LonMax: 360},
	}
}

// RegionMean returns the area-weighted mean of f over the region. It returns
// an error when the region covers no cell center.
func (f *Field) RegionMean(r Region) (float64, error) {
	num, den := 0.0, 0.0
	for i := 0; i < f.Grid.NLat; i++ {
		lat := f.Grid.LatAt(i)
		if lat < r.LatMin || lat > r.LatMax {
			continue
		}
		w := f.Grid.CellWeight(i)
		for j := 0; j < f.Grid.NLon; j++ {
			lon := f.Grid.LonAt(j)
			if lon < r.LonMin || lon > r.LonMax {
				continue
			}
			num += w * f.At(i, j)
			den += w
		}
	}
	if den == 0 {
		return 0, fmt.Errorf("field: region %s covers no cell of grid %dx%d", r.Name, f.Grid.NLat, f.Grid.NLon)
	}
	return num / den, nil
}

// Regrid interpolates f bilinearly onto dst's grid and stores the result in
// dst. Longitudes wrap; latitudes clamp at the poles. Values stay within the
// source's range (no overshoot), the property the regrid tests rely on.
func Regrid(dst, src *Field) error {
	if dst == nil || src == nil {
		return errors.New("field: nil field in Regrid")
	}
	if dst.Grid == src.Grid {
		copy(dst.Data, src.Data)
		return nil
	}
	sg, dg := src.Grid, dst.Grid
	for i := 0; i < dg.NLat; i++ {
		// Fractional source row of the destination latitude.
		fi := (dg.LatAt(i) + 90) / (180 / float64(sg.NLat))
		fi -= 0.5
		i0 := int(math.Floor(fi))
		wi := fi - float64(i0)
		i1 := i0 + 1
		if i0 < 0 {
			i0, i1, wi = 0, 0, 0
		}
		if i1 >= sg.NLat {
			i0, i1, wi = sg.NLat-1, sg.NLat-1, 0
		}
		for j := 0; j < dg.NLon; j++ {
			fj := dg.LonAt(j) / (360 / float64(sg.NLon))
			fj -= 0.5
			j0 := int(math.Floor(fj))
			wj := fj - float64(j0)
			v00 := src.At(i0, j0)
			v01 := src.At(i0, j0+1)
			v10 := src.At(i1, j0)
			v11 := src.At(i1, j0+1)
			top := v00*(1-wj) + v01*wj
			bot := v10*(1-wj) + v11*wj
			dst.Set(i, j, top*(1-wi)+bot*wi)
		}
	}
	return nil
}
