package experiment

import (
	"context"

	"fmt"

	"dynamicrumor/internal/dynamic"
	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/runner"
	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/stats"
	"dynamicrumor/internal/xrand"
)

// RunE9 reproduces Lemma 5.2: on a Δ-regular graph, starting from a single
// informed vertex, the number of vertices informed by the asynchronous
// algorithm within one unit of time has constant mean and constant variance —
// independent of both Δ and n.
func RunE9(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Lemma 5.2: informed vertices within unit time on a Δ-regular graph are Θ(1) in mean and variance",
		Columns: []string{"n", "Delta", "mean I_1", "var I_1", "max I_1"},
	}
	type instance struct{ n, delta int }
	instances := []instance{
		{n: 256, delta: 4}, {n: 256, delta: 16}, {n: 1024, delta: 4},
		{n: 1024, delta: 16}, {n: 1024, delta: 64},
	}
	reps := cfg.reps(300)
	if cfg.Quick {
		instances = []instance{{n: 128, delta: 4}, {n: 128, delta: 16}}
		reps = cfg.reps(100)
	}

	passed := true
	var means []float64
	for i, inst := range instances {
		rng := cfg.rng(uint64(900 + i))
		g, err := gen.CirculantRegular(inst.n, inst.delta)
		if err != nil {
			return nil, fmt.Errorf("regular graph n=%d d=%d: %w", inst.n, inst.delta, err)
		}
		net := dynamic.NewStatic(g)
		counts := make([]float64, reps)
		err = runner.Run(context.Background(), runner.Plan{Count: reps, Parallelism: cfg.Parallelism}, rng, newRepScratch,
			func(rep int, sub *xrand.RNG, rs *repScratch) (float64, error) {
				res, err := sim.RunAsyncInto(net, sim.AsyncOptions{Start: rep % inst.n, MaxTime: 1}, sub, rs.sc, &rs.res)
				if err != nil {
					return 0, fmt.Errorf("async run: %w", err)
				}
				return float64(res.Informed), nil
			},
			func(rep int, c float64) error {
				counts[rep] = c
				return nil
			})
		if err != nil {
			return nil, err
		}
		maxSeen := 0.0
		for _, c := range counts {
			if c > maxSeen {
				maxSeen = c
			}
		}
		mean := stats.Mean(counts)
		variance := stats.Variance(counts)
		means = append(means, mean)
		t.AddRow(inst.n, inst.delta, mean, variance, maxSeen)
		// Θ(1): the mean must be a small constant, far below any polynomial
		// in n or Δ.
		if mean < 1.5 || mean > 40 {
			passed = false
			t.AddNote("VIOLATION: n=%d Δ=%d mean I_1 = %.2f outside the Θ(1) window [1.5, 40]", inst.n, inst.delta, mean)
		}
	}
	// Constancy across the sweep: the means must agree within a small factor.
	if len(means) > 1 {
		min, max := means[0], means[0]
		for _, m := range means[1:] {
			if m < min {
				min = m
			}
			if m > max {
				max = m
			}
		}
		t.AddNote("mean I_1 ranges over [%.2f, %.2f] across all (n, Δ) — independent of both, as Lemma 5.2 predicts", min, max)
		if min > 0 && max/min > 3 {
			passed = false
			t.AddNote("VIOLATION: mean I_1 varies by factor %.1f across the sweep", max/min)
		}
	}
	t.Passed = passed
	return t, nil
}
