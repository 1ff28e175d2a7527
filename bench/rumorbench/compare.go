package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// runCompare compares the untraced runs of two sets of result files, split
// by "--", on every (workload, end-to-end metric) pair, using the bounds in
// the spec. The first set is the baseline.
func runCompare(args []string, specPath string, w io.Writer) error {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep < 1 || sep == len(args)-1 {
		return fmt.Errorf("usage: rumorbench -compare A.json... -- B.json...")
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadRuns(args[:sep])
	if err != nil {
		return err
	}
	b, err := loadRuns(args[sep+1:])
	if err != nil {
		return err
	}
	nproc := -1
	for _, r := range append(append([]result(nil), a...), b...) {
		if nproc >= 0 && r.Env.NProc != nproc {
			return fmt.Errorf("refusing to compare runs measured on %d and %d CPUs", nproc, r.Env.NProc)
		}
		nproc = r.Env.NProc
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tB wins\tverdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			av, bv := metricValues(a, wl.Name, m.Name), metricValues(b, wl.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%d runs\t%d runs\t\tmissing\n", wl.Name, m.Name, len(av), len(bv))
				continue
			}
			c := judge(av, bv, m.Better == "lower", m.Bound, absoluteFloor[m.Name])
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%d/%d\t%s\n",
				wl.Name, m.Name, c.medA, c.q1A, c.q3A, m.Unit, c.medB, c.q1B, c.q3B, m.Unit,
				c.wins, c.pairs, c.verdict)
		}
	}
	return tw.Flush()
}

func loadRuns(paths []string) ([]result, error) {
	var out []result
	for _, p := range paths {
		rf, err := readResults(p)
		if err != nil {
			return nil, err
		}
		out = append(out, rf.Runs...)
	}
	return out, nil
}

// metricValues lists a metric's values over the untraced runs of a workload,
// in file order.
func metricValues(runs []result, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// comparison is one (workload, metric) row of -compare.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	wins, pairs    int
	verdict        string
}

// absoluteFloor is, per metric, the smallest difference -compare judges, in
// the metric's unit: a spread or a worsening below it counts as none,
// whatever its share of the median. A service set-up takes 20–40 ms, much
// of it fsyncs on a shared disk, so its spread is a large share of a small
// number.
var absoluteFloor = map[string]float64{"setup_s": 0.05}

// judge compares baseline a with candidate b. Runs are paired in order. A
// side's tolerance is the bound times its median, or floor if that is more.
// B "improved" when it wins at least nine tenths of the pairs and the
// medians differ by more than a's quartile spread and floor; the comparison
// is "unresolved" when either side's quartile spread exceeds its tolerance,
// unless every run of b beats every run of a; B is "worse" when its median
// is worse than a's by more than a's tolerance; otherwise "no change".
func judge(a, b []float64, lowerBetter bool, bound, floor float64) comparison {
	var c comparison
	c.q1A, c.medA, c.q3A = quartiles(a)
	c.q1B, c.medB, c.q3B = quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	c.pairs = min(len(a), len(b))
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	tolerance := func(median float64) float64 { return math.Max(bound*math.Abs(median), floor) }
	worsening := c.medB - c.medA
	if !lowerBetter {
		worsening = -worsening
	}
	noisy := c.q3A-c.q1A > tolerance(c.medA) || c.q3B-c.q1B > tolerance(c.medB)
	switch {
	case worsening < 0 && float64(c.wins) >= 0.9*float64(c.pairs) && -worsening > math.Max(c.q3A-c.q1A, floor):
		c.verdict = "improved"
	case noisy && allBetter:
		c.verdict = "improved"
	case noisy:
		c.verdict = "unresolved"
	case worsening > tolerance(c.medA):
		c.verdict = "worse"
	default:
		c.verdict = "no change"
	}
	return c
}
