package experiment

import (
	"fmt"

	"dynamicrumor/internal/bound"
	"dynamicrumor/internal/dynamic"
	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

// e1Family is one network family of the E1 sweep together with the profile
// used to evaluate the Theorem 1.1 bound.
type e1Family struct {
	name    string
	factory func(n int, rng *xrand.RNG) (networkFactory, bound.ProfileFunc, error)
}

// RunE1 reproduces Theorem 1.1: on every family the measured asynchronous
// spread time must lie below the T(G, c=1) upper bound, and the bound (with
// its proof constant stripped) must track the measured time within a
// polylogarithmic factor.
func RunE1(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Theorem 1.1: conductance·diligence upper bound T(G,c) vs measured async spread time",
		Columns: []string{"family", "n", "async mean", "async q90",
			"T(G,1)", "T normalized", "bound/measured"},
	}
	sizes := []int{64, 128, 256}
	reps := cfg.reps(16)
	if cfg.Quick {
		sizes = []int{32, 64}
		reps = cfg.reps(6)
	}

	families := []e1Family{
		{name: "clique", factory: func(n int, _ *xrand.RNG) (networkFactory, bound.ProfileFunc, error) {
			g := gen.Clique(n)
			return staticFactory(dynamic.NewStatic(g), 0), bound.ConstantProfile(bound.MeasureProfile(g)), nil
		}},
		{name: "star", factory: func(n int, _ *xrand.RNG) (networkFactory, bound.ProfileFunc, error) {
			net := dynamic.NewStatic(gen.Star(n, 0))
			// Φ(star) = 1, ρ(star) = 1 (the paper's own example).
			return staticFactory(net, 1), bound.ConstantProfile(bound.StepProfile{
				Phi: 1, Rho: 1, AbsRho: 1, Connected: true}), nil
		}},
		{name: "hypercube", factory: func(n int, _ *xrand.RNG) (networkFactory, bound.ProfileFunc, error) {
			d := 0
			for 1<<uint(d+1) <= n {
				d++
			}
			g := gen.Hypercube(d)
			// Φ(Q_d) = 1/d (dimension cut), ρ = 1 (regular).
			return staticFactory(dynamic.NewStatic(g), 0), bound.ConstantProfile(bound.StepProfile{
				Phi: 1 / float64(d), Rho: 1, AbsRho: 1 / float64(d), Connected: true}), nil
		}},
		{name: "expander", factory: func(n int, rng *xrand.RNG) (networkFactory, bound.ProfileFunc, error) {
			g := gen.Expander(n, 6, rng)
			return staticFactory(dynamic.NewStatic(g), 0), bound.ConstantProfile(bound.MeasureProfile(g)), nil
		}},
		{name: "alt-expander-cycle", factory: func(n int, rng *xrand.RNG) (networkFactory, bound.ProfileFunc, error) {
			exp := gen.Expander(n, 6, rng)
			cyc := gen.Cycle(n)
			net := dynamic.NewAlternating([]*graph.Graph{exp, cyc})
			prof := bound.NewNetworkProfiler(func(t int) *graph.Graph { return net.GraphAt(t, nil) })
			return staticFactory(net, 0), prof.Func(), nil
		}},
		{name: "dynamic-star", factory: func(n int, _ *xrand.RNG) (networkFactory, bound.ProfileFunc, error) {
			factory := func(r *xrand.RNG) (dynamic.Network, int, error) {
				net, err := dynamic.NewDichotomyG2(n-1, r)
				if err != nil {
					return nil, 0, err
				}
				return net, net.StartVertex(), nil
			}
			// Every step is a star: Φ = 1, ρ = 1.
			return factory, bound.ConstantProfile(bound.StepProfile{
				Phi: 1, Rho: 1, AbsRho: 1, Connected: true}), nil
		}},
	}

	passed := true
	for _, fam := range families {
		err := sweepOver(cfg, 100, sizes, func(sizeIdx, n int, rng *xrand.RNG) error {
			factory, profile, err := fam.factory(n, rng.Split(3))
			if err != nil {
				return fmt.Errorf("family %s n=%d: %w", fam.name, n, err)
			}
			times, err := measureAsync(cfg, factory, reps, rng.Split(4), 0)
			if err != nil {
				return fmt.Errorf("family %s n=%d: %w", fam.name, n, err)
			}
			mean, q90 := summary(times)

			full, err := bound.Theorem11(profile, n, 1, 0)
			if err != nil {
				return fmt.Errorf("family %s n=%d bound: %w", fam.name, n, err)
			}
			norm, err := bound.Theorem11Normalized(profile, n, 1, 0)
			if err != nil {
				return fmt.Errorf("family %s n=%d normalized bound: %w", fam.name, n, err)
			}
			t.AddRow(fam.name, n, mean, q90, full, norm, ratio(float64(full), mean))
			// Theorem 1.1 guarantees measured <= T(G,1) with probability
			// 1 - 1/n; the q90 over the repetitions must respect it.
			if q90 > float64(full) {
				passed = false
				t.AddNote("VIOLATION: %s n=%d q90 spread %.2f exceeds T(G,1)=%d", fam.name, n, q90, full)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if passed {
		t.AddNote("measured q90 spread time <= T(G,1) for every family and size, as Theorem 1.1 predicts")
	}
	t.Passed = passed
	return t, nil
}
