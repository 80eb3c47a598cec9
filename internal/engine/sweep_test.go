package engine_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"oagrid/internal/core"
	"oagrid/internal/engine"
	"oagrid/internal/figures"
)

// figure8Jobs builds the reduced Figure-8 job matrix the determinism and
// speedup checks run: 5 speed profiles × resource sweep × 4 heuristics.
func figure8Jobs(months, rstep int) []engine.Job {
	cfg := figures.Config{App: core.Application{Scenarios: 10, Months: months}, RStep: rstep}
	return figures.Figure8Matrix(cfg).Jobs()
}

// encodeResults flattens sweep results into bytes at float-bit granularity,
// the strictest possible equality for "bit-identical result slices".
func encodeResults(t *testing.T, results []engine.JobResult) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, r := range results {
		if r.Err != nil {
			b.WriteString(r.Err.Error())
			b.WriteByte(0)
			continue
		}
		for _, v := range []float64{
			r.Result.Makespan,
			r.Result.MainsDone,
			r.Result.BusyProcSeconds,
			r.Result.Utilization,
		} {
			if err := binary.Write(&b, binary.LittleEndian, math.Float64bits(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := binary.Write(&b, binary.LittleEndian, int64(r.Result.RestartedMains)); err != nil {
			t.Fatal(err)
		}
		for _, g := range r.Alloc.Groups {
			if err := binary.Write(&b, binary.LittleEndian, int64(g)); err != nil {
				t.Fatal(err)
			}
		}
		if err := binary.Write(&b, binary.LittleEndian, int64(r.Alloc.PostProcs)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestSweepDeterministicFigure8 is the engine's core guarantee: the Figure-8
// job matrix produces byte-identical result slices with 1 worker and with N
// workers, with and without duration jitter.
func TestSweepDeterministicFigure8(t *testing.T) {
	jobs := figure8Jobs(24, 10)
	// Jitter exercises the per-job seed path: determinism must come from the
	// job payload, never from execution order.
	for i := range jobs {
		jobs[i].Opts.Exec.Jitter = 0.1
		jobs[i].Opts.Exec.Seed = uint64(i)
	}
	for _, ev := range backends {
		serial := engine.Sweep(ev, jobs, 1)
		if err := engine.FirstError(serial); err != nil {
			t.Fatalf("%s: %v", ev.Name(), err)
		}
		for _, workers := range []int{2, 4, 16} {
			parallel := engine.Sweep(ev, jobs, workers)
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("%s: results with %d workers differ structurally from serial", ev.Name(), workers)
			}
			if !bytes.Equal(encodeResults(t, serial), encodeResults(t, parallel)) {
				t.Fatalf("%s: results with %d workers not byte-identical to serial", ev.Name(), workers)
			}
		}
	}
}

// TestSweepRepeatable re-runs the same matrix twice with the same worker
// count: the engine must also be deterministic run-to-run, not only
// serial-to-parallel.
func TestSweepRepeatable(t *testing.T) {
	jobs := figure8Jobs(24, 20)
	a := engine.Sweep(engine.DES{}, jobs, 8)
	b := engine.Sweep(engine.DES{}, jobs, 8)
	if !bytes.Equal(encodeResults(t, a), encodeResults(t, b)) {
		t.Fatal("two identical parallel sweeps disagree")
	}
}

// TestSweepParallelSpeedup checks the acceptance bar: with 4+ workers on 4+
// CPUs the Figure-8 matrix must run at least 2× faster than with 1 worker.
// DES jobs are pure CPU with no shared mutable state, so the bar is
// comfortable on real hardware; the test skips on smaller machines where the
// wall clock cannot show parallelism.
func TestSweepParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	cpus := runtime.NumCPU()
	if cpus < 4 {
		t.Skipf("need 4+ CPUs for a meaningful wall-clock comparison, have %d", cpus)
	}
	workers := 4
	if cpus >= 8 {
		workers = 8
	}
	jobs := figure8Jobs(60, 5) // 420 DES jobs, ~hundreds of ms serial
	measure := func(w int) time.Duration {
		t0 := time.Now()
		results := engine.Sweep(engine.DES{}, jobs, w)
		d := time.Since(t0)
		if err := engine.FirstError(results); err != nil {
			t.Fatal(err)
		}
		return d
	}
	engine.Sweep(engine.DES{}, jobs[:workers], workers) // warm up the pool path
	best := 0.0
	for attempt := 0; attempt < 3; attempt++ {
		serial := measure(1)
		parallel := measure(workers)
		speedup := serial.Seconds() / parallel.Seconds()
		if speedup > best {
			best = speedup
		}
		if best >= 2 {
			t.Logf("speedup %.2fx with %d workers (serial %v, parallel %v)", speedup, workers, serial, parallel)
			return
		}
	}
	t.Errorf("best speedup %.2fx with %d workers on %d CPUs, want >= 2x", best, workers, cpus)
}

// BenchmarkSweepSerial and BenchmarkSweepParallel track the evaluation hot
// path; compare with benchstat across PRs.
func BenchmarkSweepSerial(b *testing.B)   { benchmarkSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchmarkSweep(b, 0) }

func benchmarkSweep(b *testing.B, workers int) {
	jobs := figure8Jobs(36, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := engine.Sweep(engine.DES{}, jobs, workers)
		if err := engine.FirstError(results); err != nil {
			b.Fatal(err)
		}
	}
}
