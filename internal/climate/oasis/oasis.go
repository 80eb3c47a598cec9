// Package oasis is the toy stand-in for the OASIS coupler: it "ensures
// simultaneous run of each element and synchronizes information exchanges"
// (paper §2). Components advance concurrently — one goroutine each, like the
// one processor each gets in the real configuration — and between coupling
// periods the coupler performs the declared field exchanges, regridding
// between component grids.
package oasis

import (
	"errors"
	"fmt"
	"sync"

	"oagrid/internal/climate/field"
)

// Component is the contract every coupled model implements (the toy ARPEGE,
// OPA and TRIP all do).
type Component interface {
	// Name identifies the component in link definitions and errors.
	Name() string
	// Exports and Imports list the coupling field names.
	Exports() []string
	Imports() []string
	// Export returns the named coupling field (accumulators reset on read).
	Export(name string) (*field.Field, error)
	// Import delivers the named coupling field, already on this component's
	// grid.
	Import(name string, f *field.Field) error
	// Advance integrates n internal steps.
	Advance(n int) error
}

// Link is one namcouple-style exchange: source component/field to
// destination component/field, regridded automatically when grids differ.
type Link struct {
	FromComponent, FromField string
	ToComponent, ToField     string
}

// String implements fmt.Stringer.
func (l Link) String() string {
	return fmt.Sprintf("%s.%s -> %s.%s", l.FromComponent, l.FromField, l.ToComponent, l.ToField)
}

// Coupler owns the components and their exchange table.
type Coupler struct {
	components map[string]Component
	order      []string
	links      []Link
	// StepsPer maps a component name to its internal steps per coupling
	// period (components run with different internal time steps).
	stepsPer map[string]int
	periods  int
}

// New builds an empty coupler.
func New() *Coupler {
	return &Coupler{
		components: make(map[string]Component),
		stepsPer:   make(map[string]int),
	}
}

// AddComponent registers a component with its internal steps per coupling
// period.
func (c *Coupler) AddComponent(comp Component, stepsPerPeriod int) error {
	if comp == nil {
		return errors.New("oasis: nil component")
	}
	if stepsPerPeriod <= 0 {
		return fmt.Errorf("oasis: component %s needs a positive step count", comp.Name())
	}
	if _, dup := c.components[comp.Name()]; dup {
		return fmt.Errorf("oasis: duplicate component %q", comp.Name())
	}
	c.components[comp.Name()] = comp
	c.order = append(c.order, comp.Name())
	c.stepsPer[comp.Name()] = stepsPerPeriod
	return nil
}

// AddLink registers an exchange. Both endpoints must exist and declare the
// fields.
func (c *Coupler) AddLink(l Link) error {
	src, ok := c.components[l.FromComponent]
	if !ok {
		return fmt.Errorf("oasis: link %v: unknown source component", l)
	}
	dst, ok := c.components[l.ToComponent]
	if !ok {
		return fmt.Errorf("oasis: link %v: unknown destination component", l)
	}
	if !contains(src.Exports(), l.FromField) {
		return fmt.Errorf("oasis: link %v: %s does not export %q", l, src.Name(), l.FromField)
	}
	if !contains(dst.Imports(), l.ToField) {
		return fmt.Errorf("oasis: link %v: %s does not import %q", l, dst.Name(), l.ToField)
	}
	c.links = append(c.links, l)
	return nil
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// Run executes n coupling periods: every period, all components advance
// concurrently by their configured internal steps, then the coupler performs
// every exchange in declaration order.
func (c *Coupler) Run(n int) error {
	if len(c.components) == 0 {
		return errors.New("oasis: no components registered")
	}
	if n <= 0 {
		return fmt.Errorf("oasis: non-positive period count %d", n)
	}
	for p := 0; p < n; p++ {
		// Simultaneous run of each element: one goroutine per component, as
		// one processor each in the real deployment.
		var wg sync.WaitGroup
		errs := make([]error, len(c.order))
		for i, name := range c.order {
			comp := c.components[name]
			steps := c.stepsPer[name]
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = comp.Advance(steps)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("oasis: period %d: component %s: %w", p, c.order[i], err)
			}
		}
		// Synchronized exchange phase.
		for _, l := range c.links {
			if err := c.exchange(l); err != nil {
				return fmt.Errorf("oasis: period %d: %w", p, err)
			}
		}
		c.periods++
	}
	return nil
}

// exchange moves one field across a link, regridding when necessary.
func (c *Coupler) exchange(l Link) error {
	src := c.components[l.FromComponent]
	dst := c.components[l.ToComponent]
	f, err := src.Export(l.FromField)
	if err != nil {
		return fmt.Errorf("link %v: %w", l, err)
	}
	dstGrid, ok := gridOf(dst)
	if !ok {
		return fmt.Errorf("link %v: destination %s does not reveal its grid", l, dst.Name())
	}
	if f.Grid == dstGrid {
		return dst.Import(l.ToField, f)
	}
	out := field.MustNew(dstGrid, f.Name, f.Unit)
	if err := field.Regrid(out, f); err != nil {
		return fmt.Errorf("link %v: %w", l, err)
	}
	return dst.Import(l.ToField, out)
}

// GridProvider is the optional interface components implement to reveal
// their grid to the coupler's regridder.
type GridProvider interface {
	CouplingGrid() field.Grid
}

func gridOf(c Component) (field.Grid, bool) {
	if gp, ok := c.(GridProvider); ok {
		return gp.CouplingGrid(), true
	}
	return field.Grid{}, false
}
