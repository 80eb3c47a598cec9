// Package model implements process_coupled_run, the moldable main task of
// the monthly simulation: it assembles the toy ARPEGE, OPA and TRIP
// components under the OASIS coupler, integrates one month with daily
// coupling, and reads/writes the restart state that chains consecutive
// months of a scenario (the paper's ~120 MB exchange, scaled down with the
// grid).
//
// The processor count maps exactly as in the paper: OPA, TRIP and OASIS are
// sequential (one processor each), ARPEGE parallelizes over procs−3 workers
// and stops scaling beyond 8 — so the task is moldable on 4..11 processors.
package model

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"oagrid/internal/climate/arpege"
	"oagrid/internal/climate/field"
	"oagrid/internal/climate/oasis"
	"oagrid/internal/climate/opa"
	"oagrid/internal/climate/trip"
	"oagrid/internal/platform"
)

// Default component grids: the atmosphere is coarser than the ocean, so
// every exchange through the coupler exercises the regridder.
var (
	DefaultAtmosGrid = field.Grid{NLat: 24, NLon: 48}
	DefaultOceanGrid = field.Grid{NLat: 36, NLon: 72}
)

// DaysPerMonth is the length of one monthly simulation in coupling periods.
const DaysPerMonth = 30

// Config parameterizes one coupled monthly run.
type Config struct {
	// WorkDir receives restart and diagnostic files.
	WorkDir string
	// Procs is the total processor count (4..11): 3 sequential components
	// plus 1..8 atmosphere workers.
	Procs int
	// Scenario and Month identify the chain position.
	Scenario, Month int
	// CloudParam is the ensemble's varied cloud-dynamics parameter.
	CloudParam float64
	// AtmosGrid/OceanGrid override the default grids (zero values use the
	// defaults). Larger grids make wall-clock calibration measurable.
	AtmosGrid, OceanGrid field.Grid
	// Days overrides DaysPerMonth when positive (tests use shorter months).
	Days int
}

func (c *Config) normalize() {
	if c.AtmosGrid == (field.Grid{}) {
		c.AtmosGrid = DefaultAtmosGrid
	}
	if c.OceanGrid == (field.Grid{}) {
		c.OceanGrid = DefaultOceanGrid
	}
	if c.Days <= 0 {
		c.Days = DaysPerMonth
	}
}

// Validate checks the run configuration.
func (c Config) Validate() error {
	c.normalize()
	if c.WorkDir == "" {
		return fmt.Errorf("model: empty work directory")
	}
	if c.Procs < platform.MinGroup || c.Procs > platform.MaxGroup {
		return fmt.Errorf("model: %d processors outside the moldable range [%d,%d]",
			c.Procs, platform.MinGroup, platform.MaxGroup)
	}
	if c.Scenario < 0 || c.Month < 0 {
		return fmt.Errorf("model: negative scenario or month")
	}
	if c.CloudParam <= 0 || c.CloudParam >= 1 {
		return fmt.Errorf("model: cloud parameter %g outside (0,1)", c.CloudParam)
	}
	return nil
}

// Restart is the chained state between consecutive months of one scenario.
type Restart struct {
	Scenario, Month int
	AtmosT, AtmosQ  []float64
	SST, Sal        []float64
	RiverStorage    []float64
	AtmosGrid       field.Grid
	OceanGrid       field.Grid
}

// RestartPath returns the canonical restart file name for a month.
func RestartPath(dir string, scenario, month int) string {
	return filepath.Join(dir, fmt.Sprintf("restart-s%02d-m%04d.json", scenario, month))
}

// RawDiagPath returns the canonical raw-diagnostics file name (the input of
// convert_output_format).
func RawDiagPath(dir string, scenario, month int) string {
	return filepath.Join(dir, fmt.Sprintf("raw-s%02d-m%04d.bin", scenario, month))
}

// Diagnostics summarizes one month; the raw file carries the full fields.
type Diagnostics struct {
	Scenario, Month int
	GlobalT         float64 // area-weighted mean air temperature (K)
	GlobalSST       float64
	TotalPrecip     float64
	IceFraction     float64
	WallClock       time.Duration
	Fields          []*field.Field
}

// Run executes one coupled month: load (or cold-start) the restart, couple
// the three components for Config.Days daily periods, write the new restart
// and the raw diagnostics, and return the summary.
func Run(cfg Config) (*Diagnostics, error) {
	cfg.normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()

	workers := cfg.Procs - platform.SequentialComponents
	if workers > platform.MaxAtmosphereProcs {
		workers = platform.MaxAtmosphereProcs
	}
	atm, err := arpege.New(arpege.Config{Grid: cfg.AtmosGrid, Workers: workers, CloudParam: cfg.CloudParam})
	if err != nil {
		return nil, err
	}
	ocn, err := opa.New(opa.Config{Grid: cfg.OceanGrid})
	if err != nil {
		return nil, err
	}
	riv, err := trip.New(cfg.AtmosGrid)
	if err != nil {
		return nil, err
	}

	// Chain from the previous month's restart when it exists.
	if cfg.Month > 0 {
		if err := loadRestart(RestartPath(cfg.WorkDir, cfg.Scenario, cfg.Month-1), cfg, atm, ocn, riv); err != nil {
			return nil, err
		}
	}

	cpl := oasis.New()
	if err := cpl.AddComponent(atm, arpege.StepsPerDay); err != nil {
		return nil, err
	}
	if err := cpl.AddComponent(ocn, opa.StepsPerDay); err != nil {
		return nil, err
	}
	if err := cpl.AddComponent(riv, 1); err != nil {
		return nil, err
	}
	links := []oasis.Link{
		{FromComponent: "arpege", FromField: "heatflux", ToComponent: "opa", ToField: "heatflux"},
		{FromComponent: "arpege", FromField: "freshwater", ToComponent: "opa", ToField: "freshwater"},
		{FromComponent: "arpege", FromField: "runoff", ToComponent: "trip", ToField: "runoff"},
		{FromComponent: "trip", FromField: "discharge", ToComponent: "opa", ToField: "discharge"},
		{FromComponent: "opa", FromField: "sst", ToComponent: "arpege", ToField: "sst"},
	}
	for _, l := range links {
		if err := cpl.AddLink(l); err != nil {
			return nil, err
		}
	}
	if err := cpl.Run(cfg.Days); err != nil {
		return nil, err
	}

	// Checked before persisting: a blown-up state must not enter the restart
	// chain, and the JSON files cannot carry NaN or Inf anyway.
	if !atm.T.IsFinite() || !ocn.SST.IsFinite() {
		return nil, fmt.Errorf("model: numerical blow-up in scenario %d month %d", cfg.Scenario, cfg.Month)
	}

	// Persist the restart chain.
	if err := saveRestart(RestartPath(cfg.WorkDir, cfg.Scenario, cfg.Month), cfg, atm, ocn, riv); err != nil {
		return nil, err
	}

	// Raw diagnostics: monthly fields dumped in the model's native (JSON)
	// layout; convert_output_format turns them into SDF.
	precip := atm.PrecipDiagnostic()
	diagFields := []*field.Field{atm.T.Copy(), ocn.SST.Copy(), ocn.Ice.Copy(), precip}
	if err := saveRaw(RawDiagPath(cfg.WorkDir, cfg.Scenario, cfg.Month), cfg, diagFields); err != nil {
		return nil, err
	}

	d := &Diagnostics{
		Scenario:    cfg.Scenario,
		Month:       cfg.Month,
		GlobalT:     atm.T.Mean(),
		GlobalSST:   ocn.SST.Mean(),
		TotalPrecip: precip.Sum(),
		IceFraction: ocn.Ice.Mean(),
		WallClock:   time.Since(start),
		Fields:      diagFields,
	}
	return d, nil
}

func saveRestart(path string, cfg Config, atm *arpege.Model, ocn *opa.Model, riv *trip.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("model: creating restart: %w", err)
	}
	defer f.Close()
	r := Restart{
		Scenario:     cfg.Scenario,
		Month:        cfg.Month,
		AtmosT:       atm.T.Data,
		AtmosQ:       atm.Q.Data,
		SST:          ocn.SST.Data,
		Sal:          ocn.Sal.Data,
		RiverStorage: riv.Storage.Data,
		AtmosGrid:    cfg.AtmosGrid,
		OceanGrid:    cfg.OceanGrid,
	}
	if err := json.NewEncoder(f).Encode(&r); err != nil {
		return fmt.Errorf("model: encoding restart: %w", err)
	}
	return f.Close()
}

func loadRestart(path string, cfg Config, atm *arpege.Model, ocn *opa.Model, riv *trip.Model) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("model: restart of month %d missing (months of a scenario chain strictly): %w",
			cfg.Month-1, err)
	}
	defer f.Close()
	var r Restart
	if err := json.NewDecoder(f).Decode(&r); err != nil {
		return fmt.Errorf("model: decoding restart %s: %w", path, err)
	}
	if r.AtmosGrid != cfg.AtmosGrid || r.OceanGrid != cfg.OceanGrid {
		return fmt.Errorf("model: restart %s on grids %v/%v, run configured for %v/%v",
			path, r.AtmosGrid, r.OceanGrid, cfg.AtmosGrid, cfg.OceanGrid)
	}
	if r.Scenario != cfg.Scenario {
		return fmt.Errorf("model: restart %s belongs to scenario %d, not %d", path, r.Scenario, cfg.Scenario)
	}
	copy(atm.T.Data, r.AtmosT)
	copy(atm.Q.Data, r.AtmosQ)
	copy(ocn.SST.Data, r.SST)
	copy(ocn.Sal.Data, r.Sal)
	copy(riv.Storage.Data, r.RiverStorage)
	return nil
}

// rawDump is the JSON container of the native diagnostic dump.
type rawDump struct {
	Scenario, Month int
	Names           []string
	Units           []string
	Grids           []field.Grid
	Data            [][]float64
}

func saveRaw(path string, cfg Config, fields []*field.Field) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("model: creating raw diagnostics: %w", err)
	}
	defer f.Close()
	d := rawDump{Scenario: cfg.Scenario, Month: cfg.Month}
	for _, fl := range fields {
		d.Names = append(d.Names, fl.Name)
		d.Units = append(d.Units, fl.Unit)
		d.Grids = append(d.Grids, fl.Grid)
		d.Data = append(d.Data, fl.Data)
	}
	if err := json.NewEncoder(f).Encode(&d); err != nil {
		return fmt.Errorf("model: encoding raw diagnostics: %w", err)
	}
	return f.Close()
}

// LoadRaw reads a native diagnostic dump back into fields, the input side of
// convert_output_format.
func LoadRaw(path string) (scenario, month int, fields []*field.Field, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("model: opening raw diagnostics: %w", err)
	}
	defer f.Close()
	var d rawDump
	if err := json.NewDecoder(f).Decode(&d); err != nil {
		return 0, 0, nil, fmt.Errorf("model: decoding raw diagnostics %s: %w", path, err)
	}
	for i := range d.Names {
		fl, err := field.New(d.Grids[i], d.Names[i], d.Units[i])
		if err != nil {
			return 0, 0, nil, err
		}
		copy(fl.Data, d.Data[i])
		fields = append(fields, fl)
	}
	return d.Scenario, d.Month, fields, nil
}
