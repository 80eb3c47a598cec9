// Package opa is the toy stand-in for the OPA/NEMO ocean model: a sequential
// (single-processor, as in the paper's configuration) advection–diffusion
// model of sea-surface temperature and salinity with a diagnostic sea-ice
// fraction, driven by a prescribed double-gyre circulation and by the heat,
// freshwater and river-discharge fluxes delivered through the coupler.
package opa

import (
	"fmt"
	"math"

	"oagrid/internal/climate/field"
)

// Tunable constants of the toy ocean.
const (
	StepsPerDay = 8    // 3-hour ocean step
	diffusivity = 0.04 // grid-units² per step
	gyreCourant = 0.18 // maximum advective Courant number
	mixedLayerK = 0.15 // converts coupler heat flux to K per step
	freshToSalt = 12.0 // converts freshwater flux to salinity tendency
	freezeK     = 271.35
	iceSlope    = 0.4  // ice fraction per kelvin below freezing
	restoreRate = 0.05 // per-step restoring to the radiative climatology
)

// Config describes one ocean instance.
type Config struct {
	Grid field.Grid
}

// Model is the ocean state; it implements the coupler component contract
// with export "sst" and imports "heatflux", "freshwater", "discharge".
type Model struct {
	cfg  Config
	mask *field.Field // land mask on the ocean grid (land cells inert)

	SST *field.Field // sea-surface temperature (K)
	Sal *field.Field // salinity (psu)
	Ice *field.Field // diagnostic sea-ice fraction [0,1]

	heat  *field.Field // imported heat flux
	fresh *field.Field // imported freshwater flux
	disch *field.Field // imported river discharge

	clim *field.Field // radiative-equilibrium SST the surface restores to

	steps int
}

// New builds an initialized ocean with a warm-tropics SST profile.
func New(cfg Config) (*Model, error) {
	if err := cfg.Grid.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		cfg:   cfg,
		mask:  field.LandMask(cfg.Grid),
		SST:   field.MustNew(cfg.Grid, "tos", "K"),
		Sal:   field.MustNew(cfg.Grid, "sos", "psu"),
		Ice:   field.MustNew(cfg.Grid, "sic", "1"),
		heat:  field.MustNew(cfg.Grid, "heatflux", "K/step"),
		fresh: field.MustNew(cfg.Grid, "freshwater", "kg/m2"),
		disch: field.MustNew(cfg.Grid, "discharge", "kg/m2"),
		clim:  field.MustNew(cfg.Grid, "clim", "K"),
	}
	for i := 0; i < cfg.Grid.NLat; i++ {
		lat := cfg.Grid.LatAt(i) * math.Pi / 180
		for j := 0; j < cfg.Grid.NLon; j++ {
			// The radiative climatology dips below freezing at the poles so
			// the sea-ice diagnostic stays active against diffusive warming.
			clim := 269.5 + 30.3*math.Cos(lat)*math.Cos(lat)
			m.clim.Set(i, j, clim)
			m.SST.Set(i, j, clim)
			m.Sal.Set(i, j, 34.7)
		}
	}
	m.updateIce()
	return m, nil
}

// Name implements the coupler component contract.
func (m *Model) Name() string { return "opa" }

// Exports lists the coupling fields this component produces.
func (m *Model) Exports() []string { return []string{"sst"} }

// Imports lists the coupling fields this component consumes.
func (m *Model) Imports() []string { return []string{"heatflux", "freshwater", "discharge"} }

// Export implements the coupler contract.
func (m *Model) Export(name string) (*field.Field, error) {
	if name != "sst" {
		return nil, fmt.Errorf("opa: unknown export %q", name)
	}
	return m.SST.Copy(), nil
}

// Import implements the coupler contract.
func (m *Model) Import(name string, f *field.Field) error {
	switch name {
	case "heatflux":
		return m.heat.CopyInto(f)
	case "freshwater":
		return m.fresh.CopyInto(f)
	case "discharge":
		return m.disch.CopyInto(f)
	default:
		return fmt.Errorf("opa: unknown import %q", name)
	}
}

// velocity returns the prescribed double-gyre velocity (in Courant units) at
// row i, column j: westward in the tropics, eastward at mid-latitudes, with
// a weak meridional overturning.
func (m *Model) velocity(i, j int) (u, v float64) {
	lat := m.cfg.Grid.LatAt(i) * math.Pi / 180
	lon := m.cfg.Grid.LonAt(j) * math.Pi / 180
	u = -gyreCourant * math.Cos(3*lat)
	v = 0.3 * gyreCourant * math.Sin(2*lat) * math.Sin(lon)
	return u, v
}

// Advance integrates n sequential steps.
func (m *Model) Advance(n int) error {
	if n <= 0 {
		return fmt.Errorf("opa: non-positive step count %d", n)
	}
	g := m.cfg.Grid
	nlat, nlon := g.NLat, g.NLon
	next := make([]float64, len(m.SST.Data))
	nextS := make([]float64, len(m.Sal.Data))
	at := func(data []float64, i, j int) float64 {
		if i < 0 {
			i = 0
		}
		if i >= nlat {
			i = nlat - 1
		}
		j = ((j % nlon) + nlon) % nlon
		return data[i*nlon+j]
	}
	// Per-coupling-period fluxes are spread uniformly over the n steps.
	heatPer := 1.0 / float64(n)
	for s := 0; s < n; s++ {
		src, srcS := m.SST.Data, m.Sal.Data
		for i := 0; i < nlat; i++ {
			for j := 0; j < nlon; j++ {
				idx := i*nlon + j
				if m.mask.Data[idx] > 0.5 {
					next[idx] = src[idx]
					nextS[idx] = srcS[idx]
					continue
				}
				t := src[idx]
				sal := srcS[idx]
				u, v := m.velocity(i, j)
				// First-order upwind advection.
				var advT, advS float64
				if u >= 0 {
					advT += u * (at(src, i, j-1) - t)
					advS += u * (at(srcS, i, j-1) - sal)
				} else {
					advT += -u * (at(src, i, j+1) - t)
					advS += -u * (at(srcS, i, j+1) - sal)
				}
				if v >= 0 {
					advT += v * (at(src, i-1, j) - t)
					advS += v * (at(srcS, i-1, j) - sal)
				} else {
					advT += -v * (at(src, i+1, j) - t)
					advS += -v * (at(srcS, i+1, j) - sal)
				}
				difT := diffusivity * (at(src, i-1, j) + at(src, i+1, j) +
					at(src, i, j-1) + at(src, i, j+1) - 4*t)
				difS := diffusivity * (at(srcS, i-1, j) + at(srcS, i+1, j) +
					at(srcS, i, j-1) + at(srcS, i, j+1) - 4*sal)
				// Sea ice insulates the air–sea heat exchange.
				ice := m.Ice.Data[idx]
				heating := mixedLayerK * m.heat.Data[idx] * heatPer * (1 - ice)
				restoring := restoreRate * (m.clim.Data[idx] - t)
				dilution := -freshToSalt * (m.fresh.Data[idx] + m.disch.Data[idx]) * heatPer * sal / 35
				next[idx] = t + advT + difT + heating + restoring
				nextS[idx] = sal + advS + difS + dilution
				// Keep the toy ocean in a physical envelope.
				if next[idx] < freezeK-3 {
					next[idx] = freezeK - 3
				}
				if next[idx] > 310 {
					next[idx] = 310
				}
			}
		}
		m.SST.Data, next = next, m.SST.Data
		m.Sal.Data, nextS = nextS, m.Sal.Data
		m.updateIce()
		m.steps++
	}
	return nil
}

// updateIce recomputes the diagnostic sea-ice fraction from SST.
func (m *Model) updateIce() {
	for idx, t := range m.SST.Data {
		if m.mask.Data[idx] > 0.5 {
			m.Ice.Data[idx] = 0
			continue
		}
		frac := iceSlope * (freezeK - t)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		m.Ice.Data[idx] = frac
	}
}

// CouplingGrid implements oasis.GridProvider.
func (m *Model) CouplingGrid() field.Grid { return m.cfg.Grid }
