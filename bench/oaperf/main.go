// Command oaperf is the repository's benchmark: four campaign workloads
// driven through the public API only, seven numbers a user of the service
// sees, a per-layer table, and a traced run recorded from outside the
// program. bench/README.md is the manual; BENCHMARK.json at the repository
// root is the contract a driver runs it by.
//
//	go run ./bench/oaperf -seed 1                  # every workload, untraced
//	go run ./bench/oaperf -seed 1 -trace out.jsonl # plus traced pass and layer table
//	go run ./bench/oaperf -selfcheck               # the suite twice, compared to its own bounds
//	go run ./bench/oaperf -workload small-wal -seed 3 -seconds 20 -trace 0
//
// With -workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeconds is the measured time per workload, the run_seconds of
// BENCHMARK.json: three repetitions of an open-loop and a closed-loop phase.
const defaultSeconds = 20

// Shares of one repetition's time. A traced invocation spends the third
// repetition's time on the layer probes instead.
const (
	repetitions = 3
	openShare   = 0.7
	probeLoops  = 24 // probe loops per workload, for splitting the probe budget
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     string
	short     bool
	selfcheck bool
	outDir    string
	jsonPath  string
}

// traced reports whether a traced pass was asked for; "0" is the driver's
// spelling of off, "1" of on with the span file in the scratch directory.
func (o *options) traced() bool { return o.trace != "" && o.trace != "0" }

func (o *options) tracePath() string {
	if o.trace != "1" {
		return o.trace
	}
	name := "suite"
	if o.workload != "" {
		name = o.workload
	}
	return filepath.Join(o.outDir, "trace-"+name+".jsonl")
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and end with the driver's JSON line (default: all four, interleaved)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per workload, split over the repetitions")
	flag.StringVar(&o.trace, "trace", "", "traced pass: a span file to write, or 1 (file under -out) / 0 (off)")
	flag.BoolVar(&o.short, "short", false, "smoke mode: every workload, one short repetition, no bounds")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced suite twice and fail if the two disagree by more than the bounds")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "scratch directory (state dirs, span files); must be on a real disk")
	flag.StringVar(&o.jsonPath, "json", "", "also write the results as JSON to this file")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "oaperf: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	ok, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oaperf:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run is main without the process: it reports whether every output was
// correct (and, under -selfcheck, whether the two suites agreed).
func run(ctx context.Context, o options, stdout io.Writer) (bool, error) {
	if o.seconds <= 0 {
		return false, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return false, err
	}
	which := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return false, err
		}
		which = []workload{*w}
	}
	if o.selfcheck {
		return selfcheck(ctx, o, which, stdout)
	}
	s, err := runSuite(ctx, o, which, stdout)
	if err != nil {
		return false, err
	}
	s.print(stdout)
	if o.traced() {
		if err := writeSpans(o.tracePath(), s.spans()); err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "spans written to %s\n", o.tracePath())
	}
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, s.report()); err != nil {
			return false, err
		}
	}
	if o.workload != "" {
		line, err := json.Marshal(s.results[0].driverLine(o.traced()))
		if err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return s.correct(), nil
}

// suite is one pass over a set of workloads.
type suite struct {
	opts    options
	results []*workloadResult
}

// workloadResult collects a workload's repetitions.
type workloadResult struct {
	w      *workload
	reps   []*repResult // untraced: the source of every end-to-end metric
	traced *repResult
	probes *prober
}

// runSuite measures the workloads: the untraced repetitions interleaved
// across workloads (A B C D A B C D …), each on a fresh runner and a fresh
// state dir, then — when tracing — one traced repetition and the layer
// probes per workload.
func runSuite(ctx context.Context, o options, which []workload, log io.Writer) (*suite, error) {
	s := &suite{opts: o}
	gens := make([]*generator, len(which))
	for i := range which {
		s.results = append(s.results, &workloadResult{w: &which[i]})
		gens[i] = newGenerator(o.seed, &which[i])
	}
	rng := rand.New(rand.NewPCG(o.seed, 0x6d6f6e)) // the monitor stream's picks
	ref, err := startReference()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	per := time.Duration(o.seconds / repetitions * float64(time.Second))
	untraced, warmup, refWindow := repetitions, warmupCampaigns, 250*time.Millisecond
	switch {
	case o.short:
		untraced, per, warmup, refWindow = 1, 300*time.Millisecond, 10, 40*time.Millisecond
	case o.traced() && o.workload != "":
		// The driver's traced invocation fits the same -seconds: one
		// untraced repetition for the counts, one traced, then the probes.
		untraced = 1
	}
	open := time.Duration(openShare * float64(per))
	ph := phases{
		open:    open,
		closed:  per - open,
		clients: min(runtime.GOMAXPROCS(0), 4),
		warmup:  warmup,
		ref:     refWindow,
	}
	stateDir := func(w *workload, rep int) string {
		return filepath.Join(o.outDir, fmt.Sprintf("state-%d-%s-%d", os.Getpid(), w.name, rep))
	}
	for rep := 0; rep < untraced; rep++ {
		for i, r := range s.results {
			fmt.Fprintf(log, "# %s: repetition %d/%d\n", r.w.name, rep+1, untraced)
			res, err := runRepetition(ctx, r.w, gens[i], ref, rng, ph, false, stateDir(r.w, rep))
			if err != nil {
				return nil, err
			}
			r.reps = append(r.reps, res)
		}
	}
	if !o.traced() {
		return s, nil
	}
	for i, r := range s.results {
		fmt.Fprintf(log, "# %s: traced repetition and layer probes\n", r.w.name)
		res, err := runRepetition(ctx, r.w, gens[i], ref, rng, ph, true, stateDir(r.w, untraced))
		if err != nil {
			return nil, err
		}
		r.traced = res
		r.probes, err = runProbes(ctx, r.w, gens[i], per/probeLoops, res.stateDir)
		if res.stateDir != "" {
			if rmErr := os.RemoveAll(res.stateDir); err == nil {
				err = rmErr
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *suite) correct() bool {
	for _, r := range s.results {
		if !r.correct() {
			return false
		}
	}
	return true
}

func (s *suite) spans() []span {
	var out []span
	for _, r := range s.results {
		if r.traced != nil {
			out = append(out, r.traced.spans...)
			out = append(out, r.probes.spans...)
		}
	}
	return out
}
