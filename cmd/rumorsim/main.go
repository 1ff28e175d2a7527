// Command rumorsim simulates a rumor-spreading process on a chosen network
// family and reports spread-time statistics. The network and process are
// described by a rumor.Scenario — either assembled from the family flags or
// loaded from a JSON file — and executed by the batch engine, so results are
// bit-identical for every -parallel value.
//
// Example:
//
//	rumorsim -family clique -n 1000 -algo async -reps 20
//	rumorsim -family dynamic-star -n 500 -algo sync
//	rumorsim -family gnrho -n 1024 -rho 0.25 -algo async -reps 8
//	rumorsim -scenario examples/scenarios/clique.json -reps 64 -parallel 8
//	rumorsim -family er -n 2000 -p 0.01 -dump-scenario   # print the JSON spec
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"dynamicrumor/internal/buildinfo"
	"dynamicrumor/rumor"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rumorsim:", err)
		os.Exit(1)
	}
}

type options struct {
	scenario string
	dump     bool
	family   string
	algo     string
	n        int
	rho      float64
	p        float64
	q        float64
	reps     int
	parallel int
	chunk    int
	stream   int
	seed     uint64
	trace    bool
}

func run(args []string) error {
	fs := flag.NewFlagSet("rumorsim", flag.ContinueOnError)
	var opts options
	fs.StringVar(&opts.scenario, "scenario", "",
		"path to a JSON scenario file; overrides the family/algo flags")
	fs.BoolVar(&opts.dump, "dump-scenario", false,
		"print the scenario as JSON instead of running it")
	fs.StringVar(&opts.family, "family", "clique",
		"network family: clique, star, cycle, path, hypercube, expander, er, "+
			"dynamic-star, dichotomy-g1, gnrho, absgnrho, edge-markovian, mobile")
	fs.StringVar(&opts.algo, "algo", "async", "algorithm: async, sync, flood, push, pull")
	fs.IntVar(&opts.n, "n", 1000, "number of vertices")
	fs.Float64Var(&opts.rho, "rho", 0.25, "target diligence for gnrho/absgnrho")
	fs.Float64Var(&opts.p, "p", 0.05, "edge birth probability (edge-markovian) or ER edge probability")
	fs.Float64Var(&opts.q, "q", 0.5, "edge death probability (edge-markovian)")
	fs.IntVar(&opts.reps, "reps", 10, "number of repetitions")
	fs.IntVar(&opts.parallel, "parallel", 0, "worker goroutines for the repetitions (0 means GOMAXPROCS; results are identical for any value)")
	fs.IntVar(&opts.chunk, "chunk", 0, "repetitions claimed per worker lock acquisition (0 means automatic; results are identical for any value)")
	fs.IntVar(&opts.stream, "stream", 0, "async stream discipline: 1 is the frozen seed-compatible v1 (default), 2 the faster statistically-equivalent v2")
	fs.Uint64Var(&opts.seed, "seed", 1, "random seed")
	fs.BoolVar(&opts.trace, "trace", false, "print the informed-count trace of the first run")
	version := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println("rumorsim", buildinfo.Version())
		return nil
	}
	if opts.reps < 1 {
		return errors.New("-reps must be at least 1")
	}

	var sc rumor.Scenario
	if opts.scenario != "" {
		var err error
		sc, err = rumor.LoadScenario(opts.scenario)
		if err != nil {
			return err
		}
		if sc.Trace {
			opts.trace = true
		}
		// -stream overrides the scenario file's discipline, like -reps and
		// -parallel override execution knobs; 0 means "whatever the file says".
		if opts.stream != 0 {
			sc.Stream = opts.stream
			if err := sc.Validate(); err != nil {
				return err
			}
		}
	} else {
		if opts.n < 2 {
			return errors.New("-n must be at least 2")
		}
		var err error
		sc, err = buildScenario(opts)
		if err != nil {
			return err
		}
	}

	if opts.dump {
		data, err := rumor.EncodeScenario(sc)
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stdout, string(data))
		return nil
	}
	return simulate(sc, opts, os.Stdout)
}

// buildScenario translates the family/algo flags into a declarative scenario.
func buildScenario(opts options) (rumor.Scenario, error) {
	params := rumor.Params{"n": float64(opts.n)}
	switch opts.family {
	case "gnrho", "absgnrho":
		params["rho"] = opts.rho
	case "er":
		params["p"] = opts.p
	case "edge-markovian":
		params["p"] = opts.p
		params["q"] = opts.q
	}
	sc := rumor.Scenario{
		Network: rumor.NetworkSpec{Family: opts.family, Params: params},
		Trace:   opts.trace,
		Stream:  opts.stream,
	}
	switch opts.algo {
	case "async":
		sc.Protocol = rumor.ProtocolAsync
	case "push":
		sc.Protocol = rumor.ProtocolAsync
		sc.Mode = rumor.PushOnly
	case "pull":
		sc.Protocol = rumor.ProtocolAsync
		sc.Mode = rumor.PullOnly
	case "sync":
		sc.Protocol = rumor.ProtocolSync
	case "flood":
		sc.Protocol = rumor.ProtocolFlooding
	default:
		return rumor.Scenario{}, fmt.Errorf("unknown algorithm %q", opts.algo)
	}
	return sc, sc.Validate()
}

func simulate(sc rumor.Scenario, opts options, out *os.File) error {
	eng := rumor.Engine{Parallelism: opts.parallel, ChunkSize: opts.chunk, Seed: opts.seed}
	// The batch streams through Engine.RunReduceCtx without trace recording:
	// the CLI only reports summary statistics, so no repetition's result —
	// let alone a TracePoint per informed vertex — needs to outlive its
	// reduction, and memory stays O(1) no matter how large -reps is. The
	// accumulators mirror the historical Ensemble aggregation operation for
	// operation (sum in repetition order, then divide), so the printed
	// numbers are byte-identical to the materializing implementation.
	// Trace recording does not consume randomness, so stripping it changes
	// no statistic.
	batchSc := sc
	batchSc.Trace = false
	var (
		sum, min, max float64
		completed     int
	)
	err := eng.RunReduceCtx(context.Background(), batchSc, opts.reps, func(rep int, res *rumor.Result) error {
		t := res.SpreadTime
		sum += t
		if rep == 0 || t < min {
			min = t
		}
		if rep == 0 || t > max {
			max = t
		}
		if res.Completed {
			completed++
		}
		return nil
	})
	if err != nil {
		return err
	}
	if opts.trace {
		// Re-run repetition 0 with tracing on. A one-repetition batch draws
		// the same private stream as the batch's first repetition, so the
		// printed trajectory is exactly the one behind the batch's first
		// result.
		traceSc := sc
		traceSc.Trace = true
		first, err := eng.RunBatch(traceSc, 1)
		if err != nil {
			return err
		}
		for _, p := range first.Results[0].Trace {
			fmt.Fprintf(out, "trace t=%.4f informed=%d\n", p.Time, p.Informed)
		}
	}
	label := sc.Name
	if label == "" {
		label = fmt.Sprintf("family=%s algo=%s", sc.Network.Family, describeAlgo(sc))
		// Families like torus or complete-bipartite are not parameterized by
		// a vertex count; only report n when the spec carries one.
		if sc.Network.Params.Has("n") {
			label += fmt.Sprintf(" n=%d", sc.Network.Params.Int("n", 0))
		}
	} else {
		label = "scenario=" + label
	}
	fmt.Fprintf(out, "%s reps=%d\n", label, opts.reps)
	fmt.Fprintf(out, "spread time: mean=%.3f min=%.3f max=%.3f (all completed: %v)\n",
		sum/float64(opts.reps), min, max, completed == opts.reps)
	return nil
}

// describeAlgo reconstructs the historical -algo label from a scenario.
func describeAlgo(sc rumor.Scenario) string {
	switch sc.Protocol {
	case rumor.ProtocolSync:
		return "sync"
	case rumor.ProtocolFlooding:
		return "flood"
	default:
		switch sc.Mode {
		case rumor.PushOnly:
			return "push"
		case rumor.PullOnly:
			return "pull"
		default:
			return "async"
		}
	}
}
