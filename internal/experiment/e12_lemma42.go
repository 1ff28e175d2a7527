package experiment

import (
	"context"

	"fmt"
	"math"

	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/runner"
	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/xrand"
)

// RunE12 reproduces Lemma 4.2 and Claim 4.3: on the string of complete
// bipartite layers S_0 - ... - S_k inside H_{k,Δ}, with all of S_0 informed,
// the expected number of vertices of S_k informed by the forward 2-push
// within one unit of time is at most (2^k / k!)·Δ, and the plain 2-push
// reaches S_k no more often than the forward 2-push. These are the two
// ingredients that make the adversary of Theorem 1.2 lose at most kΔ vertices
// of B per time step.
func RunE12(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "Lemma 4.2 / Claim 4.3: crossing the bipartite string within one time unit",
		Columns: []string{"k", "Delta", "E[I(1,k)] fwd", "bound 2^k/k!·Δ",
			"Pr reach (2-push)", "Pr reach (forward)", "ok"},
	}
	type instance struct{ k, delta int }
	instances := []instance{{2, 6}, {3, 6}, {4, 8}, {5, 8}, {6, 10}}
	reps := cfg.reps(2000)
	if cfg.Quick {
		instances = []instance{{2, 4}, {4, 6}}
		reps = cfg.reps(400)
	}

	passed := true
	for idx, inst := range instances {
		rng := cfg.rng(uint64(1200 + idx))
		g, layers, err := bipartiteString(inst.k, inst.delta)
		if err != nil {
			return nil, err
		}
		type crossing struct {
			last         float64
			fwd, twoPush bool
		}
		crossings := make([]crossing, reps)
		err = runner.Run(context.Background(), runner.Plan{Count: reps, Parallelism: cfg.Parallelism}, rng,
			func() struct{} { return struct{}{} },
			func(rep int, sub *xrand.RNG, _ struct{}) (crossing, error) {
				fw, err := sim.RunForwardTwoPush(g, sim.LayeredOptions{Layers: layers, Horizon: 1}, sub.Split(1))
				if err != nil {
					return crossing{}, fmt.Errorf("forward 2-push: %w", err)
				}
				tp, err := sim.RunTwoPushOnLayers(g, sim.LayeredOptions{Layers: layers, Horizon: 1}, sub.Split(2))
				if err != nil {
					return crossing{}, fmt.Errorf("2-push: %w", err)
				}
				return crossing{
					last:    float64(fw.InformedPerLayer[inst.k]),
					fwd:     fw.ReachedLast,
					twoPush: tp.ReachedLast,
				}, nil
			},
			func(rep int, c crossing) error {
				crossings[rep] = c
				return nil
			})
		if err != nil {
			return nil, err
		}
		var sumLast float64
		reachedFwd, reachedTwoPush := 0, 0
		for _, c := range crossings {
			sumLast += c.last
			if c.fwd {
				reachedFwd++
			}
			if c.twoPush {
				reachedTwoPush++
			}
		}
		meanLast := sumLast / float64(reps)
		factorial := 1.0
		for i := 2; i <= inst.k; i++ {
			factorial *= float64(i)
		}
		lemmaBound := math.Pow(2, float64(inst.k)) / factorial * float64(inst.delta)
		pFwd := float64(reachedFwd) / float64(reps)
		pTwoPush := float64(reachedTwoPush) / float64(reps)
		// Monte-Carlo slack: three standard errors on each estimate.
		seMean := 3 * math.Sqrt(lemmaBound/float64(reps))
		seP := 3 * math.Sqrt(0.25/float64(reps))
		ok := meanLast <= lemmaBound+seMean && pTwoPush <= pFwd+seP
		t.AddRow(inst.k, inst.delta, meanLast, lemmaBound, pTwoPush, pFwd, ok)
		if !ok {
			passed = false
			if meanLast > lemmaBound+seMean {
				t.AddNote("VIOLATION: k=%d E[I(1,k)] = %.3f exceeds the Lemma 4.2 bound %.3f", inst.k, meanLast, lemmaBound)
			}
			if pTwoPush > pFwd+seP {
				t.AddNote("VIOLATION: k=%d 2-push reach probability %.3f exceeds forward 2-push %.3f (Claim 4.3)", inst.k, pTwoPush, pFwd)
			}
		}
	}
	if passed {
		t.AddNote("E[I(1,k)] stays below (2^k/k!)·Δ and the forward coupling dominates, as Lemma 4.2 / Claim 4.3 state")
	}
	t.Passed = passed
	return t, nil
}

// bipartiteString builds the string S_0-...-S_k of complete bipartite layers
// used by the Lemma 4.2 analysis, with every layer of size delta.
func bipartiteString(k, delta int) (*graph.Graph, [][]int, error) {
	if k < 1 || delta < 1 {
		return nil, nil, fmt.Errorf("experiment: bipartiteString needs k >= 1 and delta >= 1")
	}
	n := (k + 1) * delta
	builder := graph.NewBuilder(n)
	layers := make([][]int, k+1)
	for i := 0; i <= k; i++ {
		for j := 0; j < delta; j++ {
			layers[i] = append(layers[i], i*delta+j)
		}
	}
	for i := 0; i < k; i++ {
		for _, u := range layers[i] {
			for _, v := range layers[i+1] {
				builder.AddEdge(u, v)
			}
		}
	}
	return builder.Build(), layers, nil
}
