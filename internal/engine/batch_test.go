package engine

import (
	"context"
	"runtime"
	"testing"

	"dynamicrumor/internal/dynamic"
	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/xrand"
)

// spreadTimes runs a batch and extracts the per-repetition spread times.
func spreadTimes(t *testing.T, eng Engine, sc Scenario, reps int) []float64 {
	t.Helper()
	ens, err := eng.RunBatch(sc, reps)
	if err != nil {
		t.Fatal(err)
	}
	return ens.SpreadTimes()
}

// TestSharedStaticMatchesPerRepBuild is the batch-compilation identity gate:
// a deterministic static family (compiled once, shared by every worker) must
// produce byte-identical ensembles to an equivalent custom factory that
// builds a fresh network every repetition — across seeds and parallelism
// levels.
func TestSharedStaticMatchesPerRepBuild(t *testing.T) {
	perRep := func(*xrand.RNG) (dynamic.Network, int, error) {
		return dynamic.NewStatic(gen.Cycle(96)), 0, nil
	}
	for _, seed := range []uint64{3, 20200424} {
		var want []float64
		for _, par := range []int{1, 3, 8} {
			eng := Engine{Seed: seed, Parallelism: par}
			shared := spreadTimes(t, eng, Scenario{
				Network: NetworkSpec{Family: "cycle", Params: gen.Params{"n": 96}},
			}, 24)
			fresh := spreadTimes(t, eng, Scenario{
				Network: NetworkSpec{Custom: perRep},
			}, 24)
			if len(shared) != len(fresh) {
				t.Fatal("rep count mismatch")
			}
			for i := range shared {
				if shared[i] != fresh[i] {
					t.Fatalf("seed %d parallelism %d rep %d: shared %v != per-rep %v",
						seed, par, i, shared[i], fresh[i])
				}
			}
			if want == nil {
				want = shared
			} else {
				for i := range shared {
					if shared[i] != want[i] {
						t.Fatalf("seed %d: parallelism %d diverged at rep %d", seed, par, i)
					}
				}
			}
		}
	}
}

// TestRecycledDynamicMatchesPerRepBuild pins the Reset reuse path: a dynamic
// family recycled through dynamic.Reusable must reproduce the
// build-per-repetition ensembles bit for bit.
func TestRecycledDynamicMatchesPerRepBuild(t *testing.T) {
	perRep := func(rng *xrand.RNG) (dynamic.Network, int, error) {
		net, err := dynamic.NewDichotomyG2(60, rng)
		if err != nil {
			return nil, 0, err
		}
		return net, net.StartVertex(), nil
	}
	for _, par := range []int{1, 4, 7} {
		eng := Engine{Seed: 11, Parallelism: par}
		recycled := spreadTimes(t, eng, Scenario{
			Network: NetworkSpec{Family: "dynamic-star", Params: gen.Params{"n": 61}},
		}, 20)
		fresh := spreadTimes(t, eng, Scenario{Network: NetworkSpec{Custom: perRep}}, 20)
		for i := range recycled {
			if recycled[i] != fresh[i] {
				t.Fatalf("parallelism %d rep %d: recycled %v != fresh %v", par, i, recycled[i], fresh[i])
			}
		}
	}
}

// TestRecycledRandomStaticMatchesPerRepBuild pins the worker-local builder
// path: a random static family rebuilt through gen.BuildInto must match a
// factory that allocates a fresh graph per repetition.
func TestRecycledRandomStaticMatchesPerRepBuild(t *testing.T) {
	perRep := func(rng *xrand.RNG) (dynamic.Network, int, error) {
		return dynamic.NewStatic(gen.ErdosRenyi(150, 0.05, rng)), 0, nil
	}
	for _, par := range []int{1, 3, 8} {
		eng := Engine{Seed: 7, Parallelism: par}
		recycled := spreadTimes(t, eng, Scenario{
			Network: NetworkSpec{Family: "er", Params: gen.Params{"n": 150, "p": 0.05}},
		}, 24)
		fresh := spreadTimes(t, eng, Scenario{Network: NetworkSpec{Custom: perRep}}, 24)
		for i := range recycled {
			if recycled[i] != fresh[i] {
				t.Fatalf("parallelism %d rep %d: recycled %v != fresh %v", par, i, recycled[i], fresh[i])
			}
		}
	}
}

// TestRunReduceMatchesRunBatch pins that the streaming entry point reduces
// exactly the results RunBatch materializes, in repetition order, at every
// parallelism.
func TestRunReduceMatchesRunBatch(t *testing.T) {
	scenarios := []Scenario{
		{Network: NetworkSpec{Family: "cycle", Params: gen.Params{"n": 64}}},
		{Network: NetworkSpec{Family: "er", Params: gen.Params{"n": 100, "p": 0.06}}, Protocol: ProtocolSync},
		{Network: NetworkSpec{Family: "dynamic-star", Params: gen.Params{"n": 41}}},
		{Network: NetworkSpec{Family: "torus", Params: gen.Params{"rows": 8, "cols": 8}}, Protocol: ProtocolFlooding},
	}
	for _, sc := range scenarios {
		want, err := Engine{Seed: 5}.RunBatch(sc, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			eng := Engine{Seed: 5, Parallelism: par}
			n := 0
			err := eng.RunReduceCtx(context.Background(), sc, 12, func(rep int, res *sim.Result) error {
				w := want.Results[rep]
				if res.SpreadTime != w.SpreadTime || res.Informed != w.Informed ||
					res.Steps != w.Steps || res.Events != w.Events || res.Completed != w.Completed {
					t.Fatalf("%s parallelism %d rep %d: reduce saw %+v, want %+v",
						sc.Network.Family, par, rep, res, w)
				}
				if rep != n {
					t.Fatalf("reduce out of order: got rep %d, want %d", rep, n)
				}
				n++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != 12 {
				t.Fatalf("reduced %d reps, want 12", n)
			}
		}
	}
}

// TestRunStatsMatchesEnsembleAggregates checks the streaming aggregate
// (BatchStats.Add as the reducer) against the materializing aggregation
// (exact fields only; quantiles are estimates and are checked for
// plausibility).
func TestRunStatsMatchesEnsembleAggregates(t *testing.T) {
	sc := Scenario{Network: NetworkSpec{Family: "clique", Params: gen.Params{"n": 200}}}
	ens, err := Engine{Seed: 2}.RunBatch(sc, 60)
	if err != nil {
		t.Fatal(err)
	}
	st := NewBatchStats()
	if err := (Engine{Seed: 2}).RunReduceCtx(context.Background(), sc, 60, st.Add); err != nil {
		t.Fatal(err)
	}
	if st.Reps != 60 || st.SpreadTime.N() != 60 {
		t.Fatalf("stats cover %d/%d reps, want 60", st.Reps, st.SpreadTime.N())
	}
	mean := ens.MeanSpreadTime()
	if d := st.SpreadTime.Mean() - mean; d > 1e-9 || d < -1e-9 {
		t.Fatalf("streaming mean %v != ensemble mean %v", st.SpreadTime.Mean(), mean)
	}
	min, max := ens.MinMaxSpreadTime()
	if st.SpreadTime.Min() != min || st.SpreadTime.Max() != max {
		t.Fatal("streaming extremes disagree with the ensemble")
	}
	if st.CompletionRate() != ens.CompletionRate() {
		t.Fatal("completion rates disagree")
	}
	med := st.SpreadTime.QuantileEstimate(0)
	if med < min || med > max {
		t.Fatalf("median estimate %v outside [%v, %v]", med, min, max)
	}
}

// TestRunReduceSteadyStateAllocsShared is the allocation gate for the shared
// deterministic-static path: growing the repetition count must not grow the
// allocation count, i.e. steady-state repetitions allocate nothing. Serial
// workers make the measurement exact.
func TestRunReduceSteadyStateAllocsShared(t *testing.T) {
	testRunReduceSteadyStateAllocs(t, Scenario{
		Network: NetworkSpec{Family: "cycle", Params: gen.Params{"n": 256}},
	})
}

// TestRunReduceSteadyStateAllocsRecycledRandom is the same gate for the
// recycled random-static path (worker-local builder + gen.BuildInto).
func TestRunReduceSteadyStateAllocsRecycledRandom(t *testing.T) {
	testRunReduceSteadyStateAllocs(t, Scenario{
		Network: NetworkSpec{Family: "er", Params: gen.Params{"n": 256, "p": 0.03}},
	})
}

// TestRunReduceSteadyStateAllocsRecycledExpander covers the emitter path
// that needs the per-worker permutation scratch.
func TestRunReduceSteadyStateAllocsRecycledExpander(t *testing.T) {
	testRunReduceSteadyStateAllocs(t, Scenario{
		Network: NetworkSpec{Family: "expander", Params: gen.Params{"n": 200, "degree": 6}},
	})
}

// TestRunReduceSteadyStateAllocsRecycledDynamic covers the dynamic
// Reset-reuse path.
func TestRunReduceSteadyStateAllocsRecycledDynamic(t *testing.T) {
	testRunReduceSteadyStateAllocs(t, Scenario{
		Network: NetworkSpec{Family: "dynamic-star", Params: gen.Params{"n": 129}},
	})
}

func testRunReduceSteadyStateAllocs(t *testing.T, sc Scenario) {
	t.Helper()
	eng := Engine{Seed: 31, Parallelism: 1}
	run := func(reps int) float64 {
		return testing.AllocsPerRun(3, func() {
			err := eng.RunReduceCtx(context.Background(), sc, reps, func(int, *sim.Result) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	run(8) // warm any lazily sized buffers outside the measured runs
	base := run(32)
	grown := run(96)
	// 64 extra repetitions; random families may ratchet a buffer once in a
	// blue moon, so allow a hair of slack rather than exact equality.
	if grown-base > 2 {
		t.Fatalf("allocations grow with reps: %d reps -> %.1f allocs, %d reps -> %.1f allocs (per-rep %.3f, want ~0)",
			32, base, 96, grown, (grown-base)/64)
	}
}

// TestRunReduceConstantMemory is the memory-ceiling check of the streaming
// path: 10⁵ repetitions must complete without accumulating per-repetition
// garbage — total heap churn stays bounded by a constant, not by reps.
func TestRunReduceConstantMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-repetition memory ceiling is not a -short test")
	}
	sc := Scenario{Network: NetworkSpec{Family: "clique", Params: gen.Params{"n": 24}}}
	eng := Engine{Seed: 13, Parallelism: 1}
	reduce := func(int, *sim.Result) error { return nil }
	// Warm every lazily grown buffer, then measure cumulative allocation.
	if err := eng.RunReduceCtx(context.Background(), sc, 100, reduce); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := eng.RunReduceCtx(context.Background(), sc, 100000, reduce); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const ceiling = 1 << 20 // 1 MiB for compile + scratch warmup, vs ~2 GiB if results were retained
	if churn := after.TotalAlloc - before.TotalAlloc; churn > ceiling {
		t.Fatalf("10⁵-rep RunReduceCtx allocated %d bytes total, want <= %d (O(1) in reps)", churn, ceiling)
	}
}
