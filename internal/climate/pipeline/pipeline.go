// Package pipeline implements the six tasks of one monthly simulation
// exactly as the paper's Figure 1 names them, operating on files in a
// scenario working directory:
//
//	pre-processing:  caif (concatenate_atmospheric_input_files)
//	                 mp   (modify_parameters)
//	main:            pcr  (process_coupled_run — internal/climate/model)
//	post-processing: cof  (convert_output_format, native → SDF)
//	                 emi  (extract_minimum_information, regional means)
//	                 cd   (compress_diags, gzip)
//
// RunMonth chains the six tasks; consecutive months of a scenario chain
// through the restart files, reproducing the 1D-mesh structure the
// scheduler operates on.
package pipeline

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"oagrid/internal/climate/field"
	"oagrid/internal/climate/model"
	"oagrid/internal/climate/sdf"
)

// forcingChunks is how many per-source input files caif gathers (surface,
// ozone, aerosols, greenhouse gases — four in the toy setup).
const forcingChunks = 4

// Config identifies one scenario member and its run parameters.
type Config struct {
	// Root is the experiment directory; each scenario works in
	// Root/scenario-NN/.
	Root string
	// Scenario indexes the ensemble member; it determines the cloud
	// parameter below when CloudParam is zero.
	Scenario int
	// Procs is the processor count for the coupled run (4..11).
	Procs int
	// CloudParam overrides the ensemble parametrization when non-zero.
	CloudParam float64
	// Grids and month length forwarded to the model (zero = defaults).
	AtmosGrid, OceanGrid field.Grid
	Days                 int
}

// cloudParamFor derives the ensemble member's cloud-dynamics parameter: each
// scenario gets "a distinct physical parametrization of clouds dynamics"
// (paper §1), spread over a plausible range.
func cloudParamFor(scenario int) float64 {
	return 0.25 + 0.05*float64(scenario%10)
}

// Dir returns the scenario working directory.
func (c Config) Dir() string {
	return filepath.Join(c.Root, fmt.Sprintf("scenario-%02d", c.Scenario))
}

func (c Config) cloudParam() float64 {
	if c.CloudParam != 0 {
		return c.CloudParam
	}
	return cloudParamFor(c.Scenario)
}

// TaskTiming records the wall-clock duration of each task of one month, the
// measurement behind the Figure-1 calibration.
type TaskTiming struct {
	CAIF, MP, PCR, COF, EMI, CD time.Duration
}

// Total sums the six task durations.
func (t TaskTiming) Total() time.Duration {
	return t.CAIF + t.MP + t.PCR + t.COF + t.EMI + t.CD
}

// CAIF is concatenate_atmospheric_input_files: it gathers the month's
// forcing chunk files (generated deterministically when absent, standing in
// for the real boundary-condition archives) into a single inputs file in the
// working directory.
func CAIF(cfg Config, month int) error {
	dir := cfg.Dir()
	if err := os.MkdirAll(filepath.Join(dir, "inputs"), 0o755); err != nil {
		return fmt.Errorf("pipeline: caif: %w", err)
	}
	var parts []string
	for c := 0; c < forcingChunks; c++ {
		p := filepath.Join(dir, "inputs", fmt.Sprintf("forcing-m%04d-part%d.bin", month, c))
		if err := ensureForcingChunk(p, cfg.Scenario, month, c); err != nil {
			return err
		}
		parts = append(parts, p)
	}
	out, err := os.Create(filepath.Join(dir, fmt.Sprintf("inputs-m%04d.bin", month)))
	if err != nil {
		return fmt.Errorf("pipeline: caif: %w", err)
	}
	defer out.Close()
	w := bufio.NewWriter(out)
	for _, p := range parts {
		in, err := os.Open(p)
		if err != nil {
			return fmt.Errorf("pipeline: caif: %w", err)
		}
		if _, err := io.Copy(w, in); err != nil {
			in.Close()
			return fmt.Errorf("pipeline: caif: concatenating %s: %w", p, err)
		}
		in.Close()
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return out.Close()
}

// ensureForcingChunk writes a deterministic pseudo-forcing file when absent.
func ensureForcingChunk(path string, scenario, month, chunk int) error {
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("pipeline: generating forcing: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	// A small deterministic payload: enough to exercise concatenation.
	seed := uint64(scenario)<<32 ^ uint64(month)<<8 ^ uint64(chunk)
	for i := 0; i < 512; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		fmt.Fprintf(w, "%016x\n", seed)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// MP is modify_parameters: it writes the namelist carrying the scenario's
// physical parametrization for the month.
func MP(cfg Config, month int) error {
	dir := cfg.Dir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("pipeline: mp: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "&run\n")
	fmt.Fprintf(&b, "  scenario     = %d\n", cfg.Scenario)
	fmt.Fprintf(&b, "  month        = %d\n", month)
	fmt.Fprintf(&b, "  cloud_param  = %.6f\n", cfg.cloudParam())
	fmt.Fprintf(&b, "  procs        = %d\n", cfg.Procs)
	fmt.Fprintf(&b, "/\n")
	if err := os.WriteFile(filepath.Join(dir, "params.nml"), []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("pipeline: mp: %w", err)
	}
	return nil
}

// PCR is process_coupled_run: the moldable main task.
func PCR(cfg Config, month int) (*model.Diagnostics, error) {
	dir := cfg.Dir()
	if _, err := os.Stat(filepath.Join(dir, "params.nml")); err != nil {
		return nil, fmt.Errorf("pipeline: pcr: namelist missing (run mp first): %w", err)
	}
	return model.Run(model.Config{
		WorkDir:    dir,
		Procs:      cfg.Procs,
		Scenario:   cfg.Scenario,
		Month:      month,
		CloudParam: cfg.cloudParam(),
		AtmosGrid:  cfg.AtmosGrid,
		OceanGrid:  cfg.OceanGrid,
		Days:       cfg.Days,
	})
}

// SDFPath returns the standardized diagnostics file for a month.
func SDFPath(dir string, scenario, month int) string {
	return filepath.Join(dir, fmt.Sprintf("diags-s%02d-m%04d.sdf", scenario, month))
}

// COF is convert_output_format: every diagnostic file coming from the model
// components is standardized into the self-describing SDF format.
func COF(cfg Config, month int) error {
	dir := cfg.Dir()
	scen, m, fields, err := model.LoadRaw(model.RawDiagPath(dir, cfg.Scenario, month))
	if err != nil {
		return fmt.Errorf("pipeline: cof: %w", err)
	}
	if scen != cfg.Scenario || m != month {
		return fmt.Errorf("pipeline: cof: raw dump labelled s%d/m%d, expected s%d/m%d", scen, m, cfg.Scenario, month)
	}
	out, err := os.Create(SDFPath(dir, cfg.Scenario, month))
	if err != nil {
		return fmt.Errorf("pipeline: cof: %w", err)
	}
	defer out.Close()
	records := make([]sdf.Record, len(fields))
	for i, f := range fields {
		records[i] = sdf.Record{Time: int64(month), Field: f}
	}
	if err := sdf.Write(out, records); err != nil {
		return err
	}
	return out.Close()
}

// SeriesPath returns the scenario's analysis series file.
func SeriesPath(dir string) string { return filepath.Join(dir, "series.csv") }

// EMI is extract_minimum_information: global and regional means of the key
// fields are appended to the scenario's time series.
func EMI(cfg Config, month int) error {
	dir := cfg.Dir()
	in, err := os.Open(SDFPath(dir, cfg.Scenario, month))
	if err != nil {
		return fmt.Errorf("pipeline: emi: %w", err)
	}
	defer in.Close()
	records, err := sdf.Read(bufio.NewReader(in))
	if err != nil {
		return fmt.Errorf("pipeline: emi: %w", err)
	}
	seriesFile := SeriesPath(dir)
	newFile := false
	if _, err := os.Stat(seriesFile); err != nil {
		newFile = true
	}
	out, err := os.OpenFile(seriesFile, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("pipeline: emi: %w", err)
	}
	defer out.Close()
	w := bufio.NewWriter(out)
	if newFile {
		fmt.Fprintf(w, "month,field,region,mean\n")
	}
	for _, rec := range records {
		for _, region := range field.StandardRegions() {
			mean, err := rec.Field.RegionMean(region)
			if err != nil {
				return fmt.Errorf("pipeline: emi: %w", err)
			}
			fmt.Fprintf(w, "%d,%s,%s,%.6f\n", month, rec.Field.Name, region.Name, mean)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return out.Close()
}

// CD is compress_diags: the volume of model diagnostic files is drastically
// reduced to facilitate storage and transfers (gzip; the original SDF file
// is removed).
func CD(cfg Config, month int) error {
	dir := cfg.Dir()
	src := SDFPath(dir, cfg.Scenario, month)
	in, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("pipeline: cd: %w", err)
	}
	defer in.Close()
	out, err := os.Create(src + ".gz")
	if err != nil {
		return fmt.Errorf("pipeline: cd: %w", err)
	}
	defer out.Close()
	gz, err := gzip.NewWriterLevel(out, gzip.BestCompression)
	if err != nil {
		return err
	}
	if _, err := io.Copy(gz, in); err != nil {
		return fmt.Errorf("pipeline: cd: compressing: %w", err)
	}
	if err := gz.Close(); err != nil {
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	in.Close()
	if err := os.Remove(src); err != nil {
		return fmt.Errorf("pipeline: cd: removing original: %w", err)
	}
	return nil
}

// DecompressDiags undoes CD for analysis tooling and tests.
func DecompressDiags(dir string, scenario, month int) ([]sdf.Record, error) {
	f, err := os.Open(SDFPath(dir, scenario, month) + ".gz")
	if err != nil {
		return nil, fmt.Errorf("pipeline: decompress: %w", err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("pipeline: decompress: %w", err)
	}
	defer gz.Close()
	return sdf.Read(gz)
}

// RunMonth executes the full six-task pipeline for one month and returns the
// model diagnostics and the per-task wall-clock timings.
func RunMonth(cfg Config, month int) (*model.Diagnostics, TaskTiming, error) {
	var tt TaskTiming
	stamp := func(d *time.Duration, f func() error) error {
		t0 := time.Now()
		err := f()
		*d = time.Since(t0)
		return err
	}
	if err := stamp(&tt.CAIF, func() error { return CAIF(cfg, month) }); err != nil {
		return nil, tt, err
	}
	if err := stamp(&tt.MP, func() error { return MP(cfg, month) }); err != nil {
		return nil, tt, err
	}
	var diag *model.Diagnostics
	if err := stamp(&tt.PCR, func() error {
		d, err := PCR(cfg, month)
		diag = d
		return err
	}); err != nil {
		return nil, tt, err
	}
	if err := stamp(&tt.COF, func() error { return COF(cfg, month) }); err != nil {
		return nil, tt, err
	}
	if err := stamp(&tt.EMI, func() error { return EMI(cfg, month) }); err != nil {
		return nil, tt, err
	}
	if err := stamp(&tt.CD, func() error { return CD(cfg, month) }); err != nil {
		return nil, tt, err
	}
	return diag, tt, nil
}
