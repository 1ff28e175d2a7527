// Dichotomy: reproduce Figure 1 and Theorem 1.7 interactively — the two
// dynamic networks on which the synchronous and asynchronous push-pull
// algorithms are separated in opposite directions.
//
// G1 starts as a clique with a pendant vertex (the source) and then becomes
// two cliques joined by a single bridge: the synchronous algorithm informs the
// clique in Θ(log n) rounds, while the asynchronous one is stuck waiting for
// the bridge with constant probability, taking Ω(n) time.
//
// G2 is a star whose center moves to an uninformed vertex at every step: the
// synchronous algorithm informs exactly one vertex per round (n rounds total),
// while the asynchronous algorithm finishes in Θ(log n) time.
package main

import (
	"fmt"
	"log"
	"math"

	"dynamicrumor/rumor"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 400
	const reps = 20
	rng := rumor.NewRNG(7)

	fmt.Printf("n = %d, %d repetitions per cell, log n = %.1f\n\n", n, reps, math.Log(float64(n)))

	g1Async, g1Sync, err := measureDichotomy(n, reps, rng, buildG1)
	if err != nil {
		return err
	}
	fmt.Println("G1 (clique+pendant → two bridged cliques), Theorem 1.7(i):")
	fmt.Printf("  async: mean %.1f, max %.1f   (Ω(n) with constant probability)\n", g1Async.mean, g1Async.max)
	fmt.Printf("  sync:  mean %.1f rounds       (Θ(log n))\n\n", g1Sync.mean)

	g2Async, g2Sync, err := measureDichotomy(n, reps, rng, buildG2)
	if err != nil {
		return err
	}
	fmt.Println("G2 (adaptive dynamic star), Theorem 1.7(ii):")
	fmt.Printf("  async: mean %.1f              (Θ(log n))\n", g2Async.mean)
	fmt.Printf("  sync:  mean %.1f rounds       (exactly n)\n\n", g2Sync.mean)

	fmt.Println("Conclusion: neither algorithm dominates on dynamic networks —")
	fmt.Println("the asynchronous/synchronous spread times cannot be estimated from one another.")
	return nil
}

type sample struct{ mean, max float64 }

type builder func(n int, rng *rumor.RNG) (rumor.Network, int, error)

func buildG1(n int, _ *rumor.RNG) (rumor.Network, int, error) {
	net, err := rumor.NewDichotomyG1(n)
	if err != nil {
		return nil, 0, err
	}
	return net, net.StartVertex(), nil
}

func buildG2(n int, rng *rumor.RNG) (rumor.Network, int, error) {
	net, err := rumor.NewDichotomyG2(n, rng)
	if err != nil {
		return nil, 0, err
	}
	return net, net.StartVertex(), nil
}

func measureDichotomy(n, reps int, rng *rumor.RNG, build builder) (async, sync sample, err error) {
	for rep := 0; rep < reps; rep++ {
		sub := rng.Split(uint64(rep) + 1)

		netA, start, err := build(n, sub.Split(1))
		if err != nil {
			return async, sync, err
		}
		resA, err := rumor.AsyncProtocol{Opts: rumor.AsyncOptions{Start: start}}.Run(netA, sub.Split(2))
		if err != nil {
			return async, sync, err
		}
		async.mean += resA.SpreadTime / float64(reps)
		if resA.SpreadTime > async.max {
			async.max = resA.SpreadTime
		}

		netS, start, err := build(n, sub.Split(3))
		if err != nil {
			return async, sync, err
		}
		resS, err := rumor.SyncProtocol{Opts: rumor.SyncOptions{Start: start}}.Run(netS, sub.Split(4))
		if err != nil {
			return async, sync, err
		}
		sync.mean += resS.SpreadTime / float64(reps)
		if resS.SpreadTime > sync.max {
			sync.max = resS.SpreadTime
		}
	}
	return async, sync, nil
}
