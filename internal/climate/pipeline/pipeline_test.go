package pipeline

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oagrid/internal/climate/field"
	"oagrid/internal/climate/sdf"
)

func fastConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Root:      t.TempDir(),
		Scenario:  2,
		Procs:     5,
		AtmosGrid: field.Grid{NLat: 12, NLon: 24},
		OceanGrid: field.Grid{NLat: 18, NLon: 36},
		Days:      3,
	}
}

func TestRunMonthFullPipeline(t *testing.T) {
	cfg := fastConfig(t)
	diag, tt, err := RunMonth(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if diag == nil || diag.Month != 0 {
		t.Fatal("missing or mislabelled diagnostics")
	}
	if tt.Total() <= 0 || tt.PCR <= 0 {
		t.Fatalf("task timings not recorded: %+v", tt)
	}
	dir := cfg.Dir()
	// caif output.
	if _, err := os.Stat(filepath.Join(dir, "inputs-m0000.bin")); err != nil {
		t.Fatalf("caif output missing: %v", err)
	}
	// mp output.
	nml, err := os.ReadFile(filepath.Join(dir, "params.nml"))
	if err != nil {
		t.Fatalf("namelist missing: %v", err)
	}
	if !strings.Contains(string(nml), "cloud_param") {
		t.Fatalf("namelist lacks cloud parameter:\n%s", nml)
	}
	// cof output is compressed away by cd; the gz must exist, the sdf not.
	if _, err := os.Stat(SDFPath(dir, 2, 0) + ".gz"); err != nil {
		t.Fatalf("compressed diagnostics missing: %v", err)
	}
	if _, err := os.Stat(SDFPath(dir, 2, 0)); err == nil {
		t.Fatal("uncompressed diagnostics not removed by cd")
	}
	// emi output.
	series, err := os.ReadFile(SeriesPath(dir))
	if err != nil {
		t.Fatalf("series missing: %v", err)
	}
	text := string(series)
	if !strings.HasPrefix(text, "month,field,region,mean\n") {
		t.Fatalf("series header wrong:\n%s", text)
	}
	for _, want := range []string{"tos,global", "t2m,tropics", "sic,arctic"} {
		if !strings.Contains(text, want) {
			t.Errorf("series lacks %q", want)
		}
	}
}

func TestCompressedDiagsRoundTrip(t *testing.T) {
	cfg := fastConfig(t)
	if _, _, err := RunMonth(cfg, 0); err != nil {
		t.Fatal(err)
	}
	records, err := DecompressDiags(cfg.Dir(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no records in compressed diagnostics")
	}
	if _, err := sdf.Find(records, "tos"); err != nil {
		t.Fatal(err)
	}
	if _, err := sdf.Find(records, "pr"); err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if !r.Field.IsFinite() {
			t.Fatalf("field %s has non-finite values", r.Field.Name)
		}
	}
}

func TestCompressionShrinks(t *testing.T) {
	cfg := fastConfig(t)
	if err := CAIF(cfg, 0); err != nil {
		t.Fatal(err)
	}
	if err := MP(cfg, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := PCR(cfg, 0); err != nil {
		t.Fatal(err)
	}
	if err := COF(cfg, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.Stat(SDFPath(cfg.Dir(), 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := CD(cfg, 0); err != nil {
		t.Fatal(err)
	}
	gz, err := os.Stat(SDFPath(cfg.Dir(), 2, 0) + ".gz")
	if err != nil {
		t.Fatal(err)
	}
	if gz.Size() >= raw.Size() {
		t.Fatalf("compression grew the file: %d → %d bytes", raw.Size(), gz.Size())
	}
}

// A scenario is months 0..n-1 run in order; their diagnostics chain into
// one series file.
func TestRunScenarioChains(t *testing.T) {
	cfg := fastConfig(t)
	for m := 0; m < 3; m++ {
		if _, _, err := RunMonth(cfg, m); err != nil {
			t.Fatalf("month %d: %v", m, err)
		}
	}
	// The series file accumulates all three months.
	f, err := os.Open(SeriesPath(cfg.Dir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	months := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), ",", 2)
		months[parts[0]] = true
	}
	for _, m := range []string{"0", "1", "2"} {
		if !months[m] {
			t.Errorf("series lacks month %s", m)
		}
	}
}

func TestTaskOrderEnforced(t *testing.T) {
	cfg := fastConfig(t)
	// pcr before mp must fail (namelist missing).
	if _, err := PCR(cfg, 0); err == nil {
		t.Fatal("pcr ran without a namelist")
	}
	// cof before pcr must fail (raw dump missing).
	if err := MP(cfg, 0); err != nil {
		t.Fatal(err)
	}
	if err := COF(cfg, 0); err == nil {
		t.Fatal("cof ran without raw diagnostics")
	}
	// emi before cof must fail (sdf missing).
	if err := EMI(cfg, 0); err == nil {
		t.Fatal("emi ran without sdf diagnostics")
	}
	// cd before cof must fail.
	if err := CD(cfg, 0); err == nil {
		t.Fatal("cd ran without sdf diagnostics")
	}
}

func TestEnsembleParamsDistinct(t *testing.T) {
	// Each scenario member gets a distinct cloud parametrization (paper §1).
	seen := map[float64]bool{}
	for s := 0; s < 10; s++ {
		p := cloudParamFor(s)
		if p <= 0 || p >= 1 {
			t.Fatalf("scenario %d: cloud parameter %g out of range", s, p)
		}
		if seen[p] {
			t.Fatalf("scenario %d: duplicate cloud parameter %g", s, p)
		}
		seen[p] = true
	}
}

func TestCAIFDeterministicForcing(t *testing.T) {
	cfg := fastConfig(t)
	if err := CAIF(cfg, 0); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(cfg.Dir(), "inputs-m0000.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// Re-running caif reuses the same chunks and yields identical output.
	if err := CAIF(cfg, 0); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(filepath.Join(cfg.Dir(), "inputs-m0000.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("caif output not deterministic")
	}
	if len(first) == 0 {
		t.Fatal("caif produced empty input file")
	}
}
