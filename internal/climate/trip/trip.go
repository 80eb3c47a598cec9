// Package trip is the toy stand-in for the TRIP (Total Runoff Integrating
// Pathways) global river routing model: a sequential linear-reservoir scheme
// on steepest-descent (D8) flow directions derived from the synthetic
// topography, delivering continental runoff to ocean river mouths. Water is
// conserved exactly: inflow = Δstorage + discharge, which the tests check to
// round-off.
package trip

import (
	"fmt"

	"oagrid/internal/climate/field"
)

// releaseRate is the fraction of each cell's storage released downstream per
// routing step (a one-day linear reservoir).
const releaseRate = 0.25

// Model is the routing state; it implements the coupler component contract
// with import "runoff" and export "discharge".
type Model struct {
	grid field.Grid
	mask *field.Field

	// flowTo[idx] is the flat index the cell drains to; -1 marks ocean cells
	// (sinks) and land cells draining directly off their continent.
	flowTo []int
	// order lists land cells upstream-first so one sweep routes all water.
	order []int

	Storage *field.Field // water stored in each land cell

	runoff *field.Field // imported runoff accumulation
	disch  *field.Field // exported discharge at ocean mouth cells

	totalIn, totalOut float64
}

// New derives flow directions from the synthetic elevation model.
func New(g field.Grid) (*Model, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		grid:    g,
		mask:    field.LandMask(g),
		Storage: field.MustNew(g, "rivsto", "kg/m2"),
		runoff:  field.MustNew(g, "runoff", "kg/m2"),
		disch:   field.MustNew(g, "discharge", "kg/m2"),
	}
	elev := field.Elevation(g, m.mask)
	if err := m.deriveFlow(elev); err != nil {
		return nil, err
	}
	return m, nil
}

// deriveFlow computes D8 steepest-descent directions and a topological
// ordering of the land cells; a cycle is a hard error (the synthetic
// elevation is plateau-free, so none can occur).
func (m *Model) deriveFlow(elev *field.Field) error {
	g := m.grid
	n := g.Cells()
	m.flowTo = make([]int, n)
	for idx := range m.flowTo {
		m.flowTo[idx] = -1
	}
	for i := 0; i < g.NLat; i++ {
		for j := 0; j < g.NLon; j++ {
			idx := i*g.NLon + j
			if m.mask.Data[idx] < 0.5 {
				continue // ocean: sink
			}
			bestDrop, bestIdx := 0.0, -1
			h := elev.At(i, j)
			for di := -1; di <= 1; di++ {
				for dj := -1; dj <= 1; dj++ {
					if di == 0 && dj == 0 {
						continue
					}
					ni := i + di
					if ni < 0 || ni >= g.NLat {
						continue
					}
					nj := ((j+dj)%g.NLon + g.NLon) % g.NLon
					nIdx := ni*g.NLon + nj
					var nh float64
					if m.mask.Data[nIdx] < 0.5 {
						nh = 0 // sea level: coastal cells drain to the ocean
					} else {
						nh = elev.At(ni, nj)
					}
					if drop := h - nh; drop > bestDrop {
						bestDrop, bestIdx = drop, nIdx
					}
				}
			}
			m.flowTo[idx] = bestIdx
		}
	}
	// Kahn's algorithm over land cells yields an upstream-first order and
	// detects cycles.
	indeg := make([]int, n)
	for idx, to := range m.flowTo {
		if m.mask.Data[idx] > 0.5 && to >= 0 && m.mask.Data[to] > 0.5 {
			indeg[to]++
		}
	}
	queue := make([]int, 0, n)
	for idx := range m.flowTo {
		if m.mask.Data[idx] > 0.5 && indeg[idx] == 0 {
			queue = append(queue, idx)
		}
	}
	for len(queue) > 0 {
		idx := queue[0]
		queue = queue[1:]
		m.order = append(m.order, idx)
		if to := m.flowTo[idx]; to >= 0 && m.mask.Data[to] > 0.5 {
			indeg[to]--
			if indeg[to] == 0 {
				queue = append(queue, to)
			}
		}
	}
	landCells := 0
	for idx := range m.flowTo {
		if m.mask.Data[idx] > 0.5 {
			landCells++
		}
	}
	if len(m.order) != landCells {
		return fmt.Errorf("trip: flow network has a cycle (%d of %d land cells ordered)", len(m.order), landCells)
	}
	return nil
}

// Name implements the coupler component contract.
func (m *Model) Name() string { return "trip" }

// Exports lists the coupling fields this component produces.
func (m *Model) Exports() []string { return []string{"discharge"} }

// Imports lists the coupling fields this component consumes.
func (m *Model) Imports() []string { return []string{"runoff"} }

// Export implements the coupler contract; the discharge accumulator resets
// on read.
func (m *Model) Export(name string) (*field.Field, error) {
	if name != "discharge" {
		return nil, fmt.Errorf("trip: unknown export %q", name)
	}
	out := m.disch.Copy()
	m.disch.Fill(0)
	return out, nil
}

// Import implements the coupler contract.
func (m *Model) Import(name string, f *field.Field) error {
	if name != "runoff" {
		return fmt.Errorf("trip: unknown import %q", name)
	}
	return m.runoff.CopyInto(f)
}

// Advance routes n steps: each step injects 1/n of the imported runoff,
// releases a fraction of every reservoir downstream in upstream-first order,
// and accumulates what reaches the ocean into the discharge export.
func (m *Model) Advance(n int) error {
	if n <= 0 {
		return fmt.Errorf("trip: non-positive step count %d", n)
	}
	per := 1.0 / float64(n)
	for s := 0; s < n; s++ {
		for _, idx := range m.order {
			in := m.runoff.Data[idx] * per
			if in < 0 {
				in = 0
			}
			m.totalIn += in
			m.Storage.Data[idx] += in
			out := releaseRate * m.Storage.Data[idx]
			m.Storage.Data[idx] -= out
			to := m.flowTo[idx]
			switch {
			case to < 0:
				// Endorheic edge cell: evaporates (counts as discharge for
				// the balance).
				m.disch.Data[idx] += 0
				m.totalOut += out
			case m.mask.Data[to] < 0.5:
				// River mouth: deliver to the ocean cell.
				m.disch.Data[to] += out
				m.totalOut += out
			default:
				m.Storage.Data[to] += out
			}
		}
	}
	return nil
}

// CouplingGrid implements oasis.GridProvider.
func (m *Model) CouplingGrid() field.Grid { return m.grid }
