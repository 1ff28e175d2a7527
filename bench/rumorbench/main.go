// Command rumorbench is the repository's end-to-end benchmark. It runs one
// named workload in-process against the system's public entry points
// (rumor.RunExperiment, engine.Compile + Engine.RunReduceCompiledCtx,
// service.New + Handler on a loopback listener, cluster.New/Mount/NewWorker),
// checks every output, and prints each metric by name with its unit. The
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) measures the workload untraced and traced, recording spans
// around every call into a layer, runs the layer ladder, writes
// bench/out/trace-<workload>.json and reports the per-layer metrics.
// BENCHMARK.json declares the workloads, the metrics and their bounds.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload reproduce -seed 1 -seconds 20 -trace 0 [-out results.json]
//	bash bench/run.sh -compare A.json... -- B.json...
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Paths relative to the repository root, where the benchmark runs.
const (
	workRoot = ".bench_build/work"
	traceDir = "bench/out"
	specFile = "BENCHMARK.json"
)

// A traced run measures its untraced and traced deployments for
// tracedShare of -seconds in all, in tracedPhases phases. The share keeps a
// traced run, layer ladder included, under 30 s at -seconds 20.
const (
	tracedShare  = 0.25
	tracedPhases = 10
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rumorbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 20200424, "workload seed; every input of the run derives from it")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	out := fs.String("out", "", "append the full result record to this JSON file")
	compare := fs.Bool("compare", false, "compare result files: -compare A.json... -- B.json...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := runCompare(fs.Args(), specFile, stdout); err != nil {
			fmt.Fprintln(stderr, "rumorbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "rumorbench: -trace must be 0 or 1")
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(stderr, "rumorbench: unexpected arguments; see -help")
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "rumorbench:", err)
		return 2
	}
	opts := options{
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workRoot: workRoot,
		traceDir: traceDir,
	}
	res, err := runWorkload(context.Background(), w, opts, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "rumorbench:", err)
		return 1
	}
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(stderr, "rumorbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(summaryLine{
		Correct:   res.Correct,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   res.Metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "rumorbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// options configures one run.
type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	workRoot string // scratch state lives in a fresh directory below it
	traceDir string
}

// result is the full record of one run, as -out stores it.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Env       envInfo                `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples counts the timed samples behind the metrics: set-ups (untraced
	// runs), primary operations, and how many of those lie beyond the p90.
	Samples map[string]int `json:"samples"`
	// LatencyP90MS is the primary operation's 0.9-quantile. It is recorded
	// and reported but is not a metric: on a shared 2-CPU machine it does not
	// repeat across runs within any bound BENCHMARK.json may set.
	LatencyP90MS float64 `json:"latency_p90_ms"`
	// WallS is the run's wall time from start to result, build excluded.
	WallS    float64  `json:"wall_s"`
	Failures []string `json:"failures,omitempty"`
	Notes    []string `json:"notes,omitempty"`
}

// summaryLine is the last line a run prints.
type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload runs one workload and prints a human-readable report to
// report. An untraced run sets the workload up w.setups times and measures
// the last deployment for opts.seconds; a traced run measures the workload
// untraced and traced, then runs the layer ladder.
func runWorkload(ctx context.Context, w *workload, opts options, report io.Writer) (*result, error) {
	began := time.Now()
	env := currentEnv()
	fmt.Fprintf(report, "rumorbench %s seed=%d seconds=%g trace=%v\n", w.name, opts.seed, opts.seconds, opts.trace)
	fmt.Fprintf(report, "env nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		env.NProc, env.GOMAXPROCS, env.CPU, env.Go, env.Commit)
	if err := os.MkdirAll(opts.workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.workRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rc := &runContext{seed: opts.seed, dir: dir}

	res := &result{Workload: w.name, Seed: opts.seed, Seconds: opts.seconds, Env: env, Samples: map[string]int{}}
	var tl *tally
	var values map[string]float64
	var defs []metricDef
	if opts.trace {
		res.Trace = 1
		defs = perLayerMetrics()
		tl, values, err = runTraced(ctx, w, rc, opts, report)
	} else {
		defs = endToEndMetrics
		var setups int
		tl, setups, values, err = runUntraced(ctx, w, rc, opts)
		res.Samples["setup"] = setups
	}
	if err != nil {
		return nil, err
	}
	res.Correct = tl.wrong == 0
	res.Attempted, res.Failed = tl.attempted, tl.failed
	res.Samples["latency"] = len(tl.latencies)
	res.Samples["latency_beyond_p90"] = beyond(len(tl.latencies), 0.9)
	res.LatencyP90MS = quantile(tl.latencies, 0.9)
	res.Failures, res.Notes = tl.failureLines(), tl.notes
	if res.Metrics, err = withUnits(defs, values); err != nil {
		return nil, err
	}
	res.WallS = time.Since(began).Seconds()
	printReport(report, w, res, defs)
	return res, nil
}

// runUntraced sets the workload up w.setups times, measures the last
// deployment for opts.seconds and returns the end-to-end metrics and the
// number of set-ups.
func runUntraced(ctx context.Context, w *workload, rc *runContext, opts options) (*tally, int, map[string]float64, error) {
	dep, setups, err := setUp(ctx, w, rc, w.setups)
	if err != nil {
		return nil, 0, nil, err
	}
	tl := newTally()
	elapsed := measureFor(ctx, dep, opts.seconds, tl)
	dep.close()
	if len(tl.latencies) == 0 {
		return nil, 0, nil, fmt.Errorf("no %s succeeded: %v", w.primary, tl.failureLines())
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, 0, nil, err
	}
	return tl, len(setups), map[string]float64{
		"setup_s":        median(setups),
		"ops_per_s":      float64(tl.attempted-tl.failed) / elapsed.Seconds(),
		"latency_p50_ms": median(tl.latencies),
		"rss_peak_mb":    rss,
	}, nil
}

// runTraced sets up one untraced and one traced deployment of w on the
// same seed, measures them in alternating phases, and then runs the layer
// ladder. It writes the trace file and returns the per-layer metrics;
// trace.overhead_pct is the traced phases' median primary-operation latency
// against the untraced phases'.
func runTraced(ctx context.Context, w *workload, rc *runContext, opts options, report io.Writer) (*tally, map[string]float64, error) {
	type side struct {
		name string
		tr   *tracer
		dep  deployment
		tl   *tally
	}
	untraced := &side{name: "untraced", tl: newTally()}
	traced := &side{name: "traced", tr: newTracer(), tl: newTally()}
	sides := []*side{untraced, traced}
	if opts.seed%2 == 1 {
		sides = []*side{traced, untraced}
	}
	defer func() {
		for _, s := range sides {
			if s.dep != nil {
				s.dep.close()
			}
		}
	}()
	// Both set-ups come first, so neither side measures a colder process.
	for _, s := range sides {
		src := *rc
		src.tr = s.tr
		dep, _, err := setUp(ctx, w, &src, 1)
		if err != nil {
			return nil, nil, err
		}
		s.dep = dep
	}
	// The sides take turns in the order ABBA ABBA ..., so a drift in the
	// machine's speed falls on both alike, until the budget is spent and both
	// have had as many phases. A phase lasts at least one operation.
	budget := opts.seconds * tracedShare
	start := time.Now()
	for k := 0; k%2 == 1 || time.Since(start).Seconds() < budget; k++ {
		s := sides[(k^(k>>1))&1]
		measureFor(ctx, s.dep, budget/tracedPhases, s.tl)
	}
	for _, s := range sides {
		s.dep.close()
		s.dep = nil
	}
	tl := newTally()
	for _, s := range []*side{untraced, traced} {
		if len(s.tl.latencies) == 0 {
			return nil, nil, fmt.Errorf("%s phases: no %s succeeded: %v", s.name, w.primary, s.tl.failureLines())
		}
		tl.notef("%s phases: %d × %s, median %.4g ms", s.name, len(s.tl.latencies), w.primary, median(s.tl.latencies))
		tl.merge(s.tl)
	}

	ladder := *rc
	ladder.tr = newTracer()
	values, err := runLadder(ctx, &ladder, traced.tr)
	if err != nil {
		return nil, nil, fmt.Errorf("layer ladder: %w", err)
	}
	values["trace.overhead_pct"] = 100 * (median(traced.tl.latencies)/median(untraced.tl.latencies) - 1)
	path, err := writeTrace(opts.traceDir, traceFile{
		Workload: w.name,
		Seed:     opts.seed,
		Env:      currentEnv(),
		Measured: traced.tr.section(),
		Ladder:   ladder.tr.section(),
	})
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(report, "trace written to %s (%d spans while measuring)\n", path, traced.tr.spanCount())
	return tl, values, nil
}

// setUp starts n deployments of w one after another, closing all but the
// last, and returns the last with each set-up's duration in seconds. The
// heap is collected before each set-up, so the garbage of the one before is
// not charged to it.
func setUp(ctx context.Context, w *workload, rc *runContext, n int) (deployment, []float64, error) {
	var dep deployment
	var setups []float64
	for i := 0; i < n; i++ {
		if dep != nil {
			dep.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if dep, err = w.setup(ctx, rc); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return dep, setups, nil
}

// measureFor applies dep's load for the given number of seconds and returns
// the measured interval.
func measureFor(ctx context.Context, dep deployment, seconds float64, tl *tally) time.Duration {
	start := time.Now()
	dep.measure(ctx, start.Add(time.Duration(seconds*float64(time.Second))), tl)
	return time.Since(start)
}

func printReport(w io.Writer, wl *workload, res *result, defs []metricDef) {
	fmt.Fprintf(w, "primary operation: %s; %d samples, p90 %.4g ms with %d beyond it", wl.primary,
		res.Samples["latency"], res.LatencyP90MS, res.Samples["latency_beyond_p90"])
	if !tailMeasured(res.Samples["latency"], 0.9) {
		fmt.Fprintf(w, " (fewer than %d: indicative only)", minBeyond)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(w, "failure:", f)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v, wall %.1f s\n", res.Attempted, res.Failed, res.Correct, res.WallS)
}

// resultsFile is the document -out appends to and -compare reads.
type resultsFile struct {
	Runs []result `json:"runs"`
}

func readResults(path string) (resultsFile, error) {
	var rf resultsFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// appendResult adds res to the results file at path, creating it if needed.
func appendResult(path string, res *result) error {
	rf, err := readResults(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, *res)
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".results-")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
