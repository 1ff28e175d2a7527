package dynamicrumor_test

// The benchmark harness regenerates every result of the paper's evaluation
// (one benchmark per experiment E1–E11, matching the tables in
// EXPERIMENTS.md) and additionally benchmarks the core simulators so
// performance regressions in the hot paths are visible.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"dynamicrumor/rumor"
)

// benchConfig returns a deterministic, benchmark-sized experiment
// configuration: quick sizes so a full `go test -bench=.` stays in the range
// of minutes, but the same code paths as the full reproduction.
func benchConfig() rumor.ExperimentConfig {
	cfg := rumor.QuickExperimentConfig()
	cfg.Seed = 20200424
	return cfg
}

func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tbl, err := rumor.RunExperiment(id, cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if !tbl.Passed {
			b.Fatalf("%s failed its shape checks:\n%s", id, tbl.Text())
		}
	}
}

// One benchmark per paper result (theorem / observation / figure).

func BenchmarkE1Theorem11UpperBound(b *testing.B)        { benchmarkExperiment(b, "E1") }
func BenchmarkE2Theorem12Tightness(b *testing.B)         { benchmarkExperiment(b, "E2") }
func BenchmarkE3Theorem13AbsoluteBound(b *testing.B)     { benchmarkExperiment(b, "E3") }
func BenchmarkE4Theorem15AbsoluteTightness(b *testing.B) { benchmarkExperiment(b, "E4") }
func BenchmarkE5Theorem17Dichotomy(b *testing.B)         { benchmarkExperiment(b, "E5") }
func BenchmarkE6Theorem17StarTail(b *testing.B)          { benchmarkExperiment(b, "E6") }
func BenchmarkE7Lemma22PoissonTail(b *testing.B)         { benchmarkExperiment(b, "E7") }
func BenchmarkE8Observation41(b *testing.B)              { benchmarkExperiment(b, "E8") }
func BenchmarkE9Lemma52RegularUnitTime(b *testing.B)     { benchmarkExperiment(b, "E9") }
func BenchmarkE10RelatedWorkMG(b *testing.B)             { benchmarkExperiment(b, "E10") }
func BenchmarkE11Corollary16Combined(b *testing.B)       { benchmarkExperiment(b, "E11") }
func BenchmarkE12Lemma42StringCrossing(b *testing.B)     { benchmarkExperiment(b, "E12") }

// Monte-Carlo engine: serial vs parallel fan-out over the repetitions of a
// single experiment. The workload (E6, the dynamic-star tail experiment with
// the repetition count raised to 96) is dominated by independent simulation
// runs, so on an m-core machine the workers=GOMAXPROCS variant should
// approach an m× wall-clock speedup over workers=1; tables are bit-identical
// either way. These two benchmarks are the BENCH trajectory anchors for the
// parallel runner.

const monteCarloBenchReps = 96

func benchmarkMonteCarlo(b *testing.B, parallelism int) {
	b.Helper()
	cfg := benchConfig()
	cfg.Reps = monteCarloBenchReps
	cfg.Parallelism = parallelism
	for i := 0; i < b.N; i++ {
		tbl, err := rumor.RunExperiment("E6", cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !tbl.Passed {
			b.Fatalf("E6 failed its shape checks:\n%s", tbl.Text())
		}
	}
	// One op is a whole 96-repetition batch; report the per-repetition wall
	// time too, so the worker sweep exposes scaling directly instead of
	// hiding it inside a per-batch number.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/monteCarloBenchReps, "ns/rep")
}

func BenchmarkMonteCarloSerial(b *testing.B) { benchmarkMonteCarlo(b, 1) }

func BenchmarkMonteCarloParallel(b *testing.B) { benchmarkMonteCarlo(b, runtime.GOMAXPROCS(0)) }

// BenchmarkMonteCarloWorkers sweeps the worker count to expose the scaling
// curve in the ns/rep metric (flat on a single-core machine, ~linear up to
// the core count otherwise).
func BenchmarkMonteCarloWorkers(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", p), func(b *testing.B) {
			benchmarkMonteCarlo(b, p)
		})
	}
}

// BenchmarkMonteCarloStream records both async stream disciplines in the
// BENCH trajectory: the frozen seed-compatible v1 and the opt-in v2 (alias
// sampling + batched variates, statistically equivalent — see
// internal/statcheck). The workload is a clique — the dense regime the v2
// envelope sampler is built for, where one inform changes every live weight
// and v1 pays a Fenwick update per change (sparse hub-dominated families
// stay on v1's Fenwick path even under v2; see the worker-sweep anchor for
// that regime). 96 repetitions, reported per repetition.
func BenchmarkMonteCarloStream(b *testing.B) {
	for _, sv := range []int{rumor.StreamV1, rumor.StreamV2} {
		for _, p := range []int{1, 8} {
			b.Run(fmt.Sprintf("stream=v%d/workers=%d", sv, p), func(b *testing.B) {
				eng := rumor.Engine{Parallelism: p, Seed: 20200424}
				sc := rumor.Scenario{
					Network: rumor.NetworkSpec{Family: "clique", Params: rumor.Params{"n": 256}},
					Stream:  sv,
				}
				for i := 0; i < b.N; i++ {
					st := rumor.NewBatchStats()
					if err := eng.RunReduceCtx(context.Background(), sc, monteCarloBenchReps, st.Add); err != nil {
						b.Fatal(err)
					}
					if st.Completed != st.Reps {
						b.Fatal("incomplete repetitions on the clique")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/monteCarloBenchReps, "ns/rep")
			})
		}
	}
}

// BenchmarkRunReduce1e5Reps is the streaming-reduction anchor: 10⁵
// repetitions of a small async scenario aggregated in O(1) memory. Watch
// B/op — it is the whole batch's allocation footprint and must not scale
// with the repetition count.
func BenchmarkRunReduce1e5Reps(b *testing.B) {
	eng := rumor.Engine{Seed: 20200424}
	sc := rumor.Scenario{
		Network: rumor.NetworkSpec{Family: "clique", Params: rumor.Params{"n": 24}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := rumor.NewBatchStats()
		if err := eng.RunReduceCtx(context.Background(), sc, 100000, st.Add); err != nil {
			b.Fatal(err)
		}
		if st.Completed != st.Reps {
			b.Fatal("incomplete repetitions on the clique")
		}
	}
}

// Simulator micro-benchmarks (hot paths of the harness).

func BenchmarkAsyncCliqueN1000(b *testing.B) {
	net := rumor.Static(rumor.Clique(1000))
	rng := rumor.NewRNG(1)
	proto := rumor.AsyncProtocol{Opts: rumor.AsyncOptions{Start: 0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proto.Run(net, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAsyncExpanderN10000(b *testing.B) {
	rng := rumor.NewRNG(2)
	net := rumor.Static(rumor.Expander(10000, 6, rng))
	proto := rumor.AsyncProtocol{Opts: rumor.AsyncOptions{Start: 0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proto.Run(net, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAsyncDynamicStarN5000(b *testing.B) {
	rng := rumor.NewRNG(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := rumor.NewDichotomyG2(5000, rng.Split(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		proto := rumor.AsyncProtocol{Opts: rumor.AsyncOptions{Start: net.StartVertex()}}
		if _, err := proto.Run(net, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSyncCliqueN1000(b *testing.B) {
	net := rumor.Static(rumor.Clique(1000))
	rng := rumor.NewRNG(4)
	proto := rumor.SyncProtocol{Opts: rumor.SyncOptions{Start: 0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proto.Run(net, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFloodingTorus64x64(b *testing.B) {
	net := rumor.Static(rumor.Torus(64, 64))
	rng := rumor.NewRNG(5)
	proto := rumor.FloodingProtocol{Opts: rumor.SyncOptions{Start: 0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proto.Run(net, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFloodingLargeN anchors the frontier-based flooding scan: on a
// 512×512 torus the old scan-everyone loop touched all n vertices in every
// one of the ~512 rounds, while the frontier only ever holds the expanding
// diamond wavefront — O(n) work overall instead of O(n · rounds).
func BenchmarkFloodingLargeN(b *testing.B) {
	net := rumor.Static(rumor.Torus(512, 512))
	rng := rumor.NewRNG(6)
	proto := rumor.FloodingProtocol{Opts: rumor.SyncOptions{Start: 0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := proto.Run(net, rng)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("flooding did not complete")
		}
	}
}

func BenchmarkConductanceEstimateN2000(b *testing.B) {
	rng := rumor.NewRNG(6)
	g := rumor.Expander(2000, 6, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rumor.ConductanceEstimate(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGNRhoConstructionN2048(b *testing.B) {
	rng := rumor.NewRNG(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rumor.NewRhoDiligentNetwork(2048, 0.1, 0, rng.Split(uint64(i)+1)); err != nil {
			b.Fatal(err)
		}
	}
}
