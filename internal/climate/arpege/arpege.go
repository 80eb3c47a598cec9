// Package arpege is the toy stand-in for the ARPEGE atmospheric general
// circulation model: a two-field (temperature, humidity) advection–diffusion
// dynamical core with a cloud/precipitation parametrization — the physical
// parameter the paper's ensemble varies — integrated in parallel over
// latitude bands by a pool of goroutine "ranks" with explicit halo exchange,
// the same decomposition structure as the MPI original. The Jacobi update
// makes the result bit-for-bit identical for any worker count, which the
// tests verify.
package arpege

import (
	"fmt"
	"math"
	"sync"

	"oagrid/internal/climate/field"
)

// Physical constants of the toy dynamics. Tuned for stability at the default
// one-hour step on coarse grids, not for meteorological accuracy.
const (
	dtSeconds    = 3600.0 // one integration step = 1 h
	StepsPerDay  = 24
	diffusivity  = 0.06  // grid-units² per step, horizontal mixing
	zonalCourant = 0.25  // upwind advection Courant number (u·dt/dx)
	relaxRate    = 0.01  // per-step relaxation towards radiative equilibrium
	fluxCoeff    = 0.02  // air–sea heat exchange per step (K per K contrast)
	evapCoeff    = 0.004 // evaporation coefficient over ocean
	freezeK      = 273.15
)

// Config describes one atmosphere instance.
type Config struct {
	Grid field.Grid
	// Workers is the number of parallel ranks (the paper's 1–8 atmosphere
	// processors).
	Workers int
	// CloudParam is the cloud-dynamics parametrization constant the ensemble
	// varies: the fraction of super-saturated humidity removed as
	// precipitation per step. Physically plausible range ~[0.05, 0.9].
	CloudParam float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Grid.Validate(); err != nil {
		return err
	}
	if c.Workers < 1 {
		return fmt.Errorf("arpege: need at least one worker, got %d", c.Workers)
	}
	if c.Workers > c.Grid.NLat {
		return fmt.Errorf("arpege: %d workers exceed %d latitude rows", c.Workers, c.Grid.NLat)
	}
	if c.CloudParam <= 0 || c.CloudParam >= 1 {
		return fmt.Errorf("arpege: cloud parameter %g outside (0,1)", c.CloudParam)
	}
	return nil
}

// Model is the atmosphere state. It implements the coupler's Component
// contract via Exports/Imports on the fields named "heatflux", "freshwater",
// "runoff" (exports) and "sst" (import).
type Model struct {
	cfg  Config
	mask *field.Field

	T *field.Field // air temperature (K)
	Q *field.Field // specific humidity (kg/kg)

	sst *field.Field // imported sea-surface temperature (K)

	// Coupling accumulators, reset at every Export.
	heatflux   *field.Field // W-like units, positive warms the ocean
	freshwater *field.Field // precipitation − evaporation over ocean
	runoff     *field.Field // precipitation excess over land, for TRIP
	precip     *field.Field // monthly precipitation diagnostic

	steps int
}

// New builds an initialized atmosphere: a pole-to-equator temperature
// gradient and moist tropics.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		cfg:        cfg,
		mask:       field.LandMask(cfg.Grid),
		T:          field.MustNew(cfg.Grid, "t2m", "K"),
		Q:          field.MustNew(cfg.Grid, "huss", "kg/kg"),
		sst:        field.MustNew(cfg.Grid, "sst", "K"),
		heatflux:   field.MustNew(cfg.Grid, "heatflux", "K/step"),
		freshwater: field.MustNew(cfg.Grid, "freshwater", "kg/m2"),
		runoff:     field.MustNew(cfg.Grid, "runoff", "kg/m2"),
		precip:     field.MustNew(cfg.Grid, "pr", "kg/m2"),
	}
	for i := 0; i < cfg.Grid.NLat; i++ {
		lat := cfg.Grid.LatAt(i) * math.Pi / 180
		for j := 0; j < cfg.Grid.NLon; j++ {
			m.T.Set(i, j, equilibriumT(lat))
			m.Q.Set(i, j, 0.012*math.Cos(lat)*math.Cos(lat))
		}
	}
	// A sensible default SST until the coupler delivers the real one.
	for i := range m.sst.Data {
		m.sst.Data[i] = m.T.Data[i]
	}
	return m, nil
}

// equilibriumT is the radiative-equilibrium profile the temperature relaxes
// towards.
func equilibriumT(latRad float64) float64 {
	return 255 + 45*math.Cos(latRad)*math.Cos(latRad)
}

// qsat is the saturation humidity, a simplified Clausius–Clapeyron curve.
func qsat(t float64) float64 {
	return 0.012 * math.Exp(0.06*(t-288))
}

// Name implements the coupler component contract.
func (m *Model) Name() string { return "arpege" }

// Exports lists the coupling fields this component produces.
func (m *Model) Exports() []string { return []string{"heatflux", "freshwater", "runoff"} }

// Imports lists the coupling fields this component consumes.
func (m *Model) Imports() []string { return []string{"sst"} }

// Export returns (and for flux accumulators, resets) a coupling field.
func (m *Model) Export(name string) (*field.Field, error) {
	switch name {
	case "heatflux":
		out := m.heatflux.Copy()
		m.heatflux.Fill(0)
		return out, nil
	case "freshwater":
		out := m.freshwater.Copy()
		m.freshwater.Fill(0)
		return out, nil
	case "runoff":
		out := m.runoff.Copy()
		m.runoff.Fill(0)
		return out, nil
	default:
		return nil, fmt.Errorf("arpege: unknown export %q", name)
	}
}

// Import receives a coupling field (regridded by the coupler).
func (m *Model) Import(name string, f *field.Field) error {
	if name != "sst" {
		return fmt.Errorf("arpege: unknown import %q", name)
	}
	return m.sst.CopyInto(f)
}

// PrecipDiagnostic returns the accumulated precipitation field and resets it.
func (m *Model) PrecipDiagnostic() *field.Field {
	out := m.precip.Copy()
	m.precip.Fill(0)
	return out
}

// band is the latitude slab owned by one worker, with one halo row on each
// side.
type band struct {
	lo, hi int // owned rows [lo, hi)
	up     chan []float64
	down   chan []float64
}

// Advance integrates n steps with the configured worker pool. The dynamics
// are Jacobi (new values depend only on the previous step), so the result is
// independent of the decomposition; the halo exchange mirrors the MPI
// communication structure of the original code.
func (m *Model) Advance(n int) error {
	if n <= 0 {
		return fmt.Errorf("arpege: non-positive step count %d", n)
	}
	w := m.cfg.Workers
	nlat := m.cfg.Grid.NLat
	bands := make([]band, w)
	for k := 0; k < w; k++ {
		bands[k] = band{
			lo:   k * nlat / w,
			hi:   (k + 1) * nlat / w,
			up:   make(chan []float64, 1),
			down: make(chan []float64, 1),
		}
	}
	// Double buffers shared by all workers; each worker writes only its own
	// rows and reads neighbor rows of the previous step, synchronized by the
	// halo channels acting as a barrier.
	curT, nxtT := m.T.Data, make([]float64, len(m.T.Data))
	curQ, nxtQ := m.Q.Data, make([]float64, len(m.Q.Data))

	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			b := bands[k]
			srcT, dstT := curT, nxtT
			srcQ, dstQ := curQ, nxtQ
			for step := 0; step < n; step++ {
				m.stepRows(b.lo, b.hi, srcT, srcQ, dstT, dstQ)
				// Halo exchange doubles as the step barrier: a rank may only
				// proceed once both neighbors have finished writing the rows
				// it will read next step. The payload carries the boundary
				// rows exactly as an MPI halo would.
				if k > 0 {
					bands[k-1].down <- dstT[b.lo*m.cfg.Grid.NLon : (b.lo+1)*m.cfg.Grid.NLon]
				}
				if k < w-1 {
					bands[k+1].up <- dstT[(b.hi-1)*m.cfg.Grid.NLon : b.hi*m.cfg.Grid.NLon]
				}
				if k < w-1 {
					<-b.down
				}
				if k > 0 {
					<-b.up
				}
				srcT, dstT = dstT, srcT
				srcQ, dstQ = dstQ, srcQ
			}
		}(k)
	}
	wg.Wait()
	if n%2 == 1 {
		curT, nxtT = nxtT, curT
		curQ, nxtQ = nxtQ, curQ
	}
	m.T.Data = curT
	m.Q.Data = curQ
	m.steps += n
	return nil
}

// stepRows advances rows [lo, hi) one step, reading srcT/srcQ and writing
// dstT/dstQ, and accumulates the coupling fluxes for those rows.
func (m *Model) stepRows(lo, hi int, srcT, srcQ, dstT, dstQ []float64) {
	g := m.cfg.Grid
	nlon := g.NLon
	at := func(data []float64, i, j int) float64 {
		if i < 0 {
			i = 0
		}
		if i >= g.NLat {
			i = g.NLat - 1
		}
		j = ((j % nlon) + nlon) % nlon
		return data[i*nlon+j]
	}
	for i := lo; i < hi; i++ {
		latRad := g.LatAt(i) * math.Pi / 180
		teq := equilibriumT(latRad)
		for j := 0; j < nlon; j++ {
			idx := i*nlon + j
			t := srcT[idx]
			q := srcQ[idx]
			// Upwind zonal advection (westerlies, constant Courant number).
			advT := zonalCourant * (at(srcT, i, j-1) - t)
			advQ := zonalCourant * (at(srcQ, i, j-1) - q)
			// Five-point diffusion.
			difT := diffusivity * (at(srcT, i-1, j) + at(srcT, i+1, j) +
				at(srcT, i, j-1) + at(srcT, i, j+1) - 4*t)
			difQ := diffusivity * (at(srcQ, i-1, j) + at(srcQ, i+1, j) +
				at(srcQ, i, j-1) + at(srcQ, i, j+1) - 4*q)
			// Surface exchange with the imported SST (ocean cells only).
			ocean := m.mask.Data[idx] < 0.5
			sst := m.sst.Data[idx]
			heat := 0.0
			evap := 0.0
			if ocean {
				heat = fluxCoeff * (sst - t)
				if e := evapCoeff * (qsat(sst) - q); e > 0 {
					evap = e
				}
			}
			// Cloud parametrization: rain out super-saturation.
			prec := 0.0
			if excess := q + advQ + difQ + evap - qsat(t); excess > 0 {
				prec = m.cfg.CloudParam * excess
			}
			latent := 80 * prec // condensation heating

			dstT[idx] = t + advT + difT + relaxRate*(teq-t) + heat + latent
			dstQ[idx] = q + advQ + difQ + evap - prec

			// Coupling accumulators (each row is owned by exactly one
			// worker, so these writes never race).
			m.precip.Data[idx] += prec
			if ocean {
				m.heatflux.Data[idx] += -heat // what the air gains, the sea loses
				m.freshwater.Data[idx] += prec - evap
			} else {
				m.runoff.Data[idx] += prec
			}
		}
	}
}

// CouplingGrid implements oasis.GridProvider.
func (m *Model) CouplingGrid() field.Grid { return m.cfg.Grid }
