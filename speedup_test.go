package dynamicrumor_test

// The workers-speedup smoke: the chunked claiming in internal/runner exists
// so parallel Monte-Carlo batches get a real wall-clock speedup, not just a
// bit-identity guarantee. A unit test cannot assert the BENCH trajectory's
// ≥2× target — CI machines are small and noisy — but it can catch the
// regression class where turn-taking or claiming serializes the workers and
// "parallel" silently degrades to serial-with-overhead.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"dynamicrumor/rumor"
)

// speedupWorkload runs one parallel Monte-Carlo batch and returns its wall
// time. The workload matches the BenchmarkMonteCarloWorkers anchor shape:
// many independent mid-sized repetitions, nothing shared but the reduction.
func speedupWorkload(t *testing.T, parallelism, reps int) time.Duration {
	t.Helper()
	eng := rumor.Engine{Parallelism: parallelism, Seed: 20200424}
	sc := rumor.Scenario{
		Network: rumor.NetworkSpec{Family: "dynamic-star", Params: rumor.Params{"n": 101}},
	}
	start := time.Now()
	st := rumor.NewBatchStats()
	if err := eng.RunReduceCtx(context.Background(), sc, reps, st.Add); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if st.Completed != st.Reps {
		t.Fatal("incomplete repetitions on the dynamic star")
	}
	return elapsed
}

// TestWorkersSpeedupSmoke checks that a multi-worker batch beats a serial
// one on a multi-core machine. The 1.3× bar at ≥4 cores is deliberately far
// below the ideal (≈ min(4, cores)×) so scheduler noise cannot flake the
// gate, while a serialized runner — whose parallel path is serial work plus
// locking overhead, i.e. ratio ≤ 1 — still fails it clearly.
func TestWorkersSpeedupSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement, skipped in short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need ≥ 4 CPUs for a meaningful speedup bound, have %d", runtime.NumCPU())
	}
	const reps = 768
	workers := runtime.NumCPU()
	if workers > 8 {
		workers = 8
	}
	speedupWorkload(t, 1, reps/4) // warm up code paths and the page cache
	// Best-of-three on both sides, so one descheduled run cannot fail (or
	// pass) the gate on its own.
	best := func(par int) time.Duration {
		min := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			if d := speedupWorkload(t, par, reps); d < min {
				min = d
			}
		}
		return min
	}
	serial, parallel := best(1), best(workers)
	speedup := float64(serial) / float64(parallel)
	t.Logf("serial %v, %d workers %v: speedup %.2fx", serial, workers, parallel, speedup)
	if speedup < 1.3 {
		t.Fatalf("parallel batch only %.2fx faster than serial (workers=%d, serial %v, parallel %v)",
			speedup, workers, serial, parallel)
	}
}
