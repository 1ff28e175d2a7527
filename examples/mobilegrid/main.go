// Mobilegrid: rumor spreading among mobile agents. Agents perform independent
// random walks on a torus grid and can exchange the rumor whenever they are in
// the same or an adjacent cell — the dynamic-network scenario that motivates
// the paper's model (Section 1.2 related work on information dissemination via
// random walks). The example compares the asynchronous push-pull algorithm
// against synchronous flooding on the same mobility trace density.
package main

import (
	"fmt"
	"log"

	"dynamicrumor/rumor"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const agents = 200
	const reps = 5
	rng := rumor.NewRNG(99)

	fmt.Printf("%-10s %-10s %-16s %-16s\n", "grid side", "density", "async push-pull", "flooding rounds")
	for _, side := range []int{10, 20, 40} {
		density := float64(agents) / float64(side*side)
		asyncMean, floodMean := 0.0, 0.0
		for rep := 0; rep < reps; rep++ {
			sub := rng.Split(uint64(side*1000 + rep))

			netA, err := rumor.NewMobileAgents(agents, side, sub.Split(1))
			if err != nil {
				return err
			}
			resA, err := rumor.AsyncProtocol{Opts: rumor.AsyncOptions{Start: 0, MaxTime: 1e6}}.Run(netA, sub.Split(2))
			if err != nil {
				return err
			}
			asyncMean += resA.SpreadTime / float64(reps)

			netF, err := rumor.NewMobileAgents(agents, side, sub.Split(3))
			if err != nil {
				return err
			}
			resF, err := rumor.FloodingProtocol{Opts: rumor.SyncOptions{Start: 0}}.Run(netF, sub.Split(4))
			if err != nil {
				return err
			}
			floodMean += resF.SpreadTime / float64(reps)
		}
		fmt.Printf("%-10d %-10.2f %-16.1f %-16.1f\n", side, density, asyncMean, floodMean)
	}
	fmt.Println("\nSparser grids (lower density) slow both processes: the proximity graph is")
	fmt.Println("disconnected most of the time and the spread is driven by agent encounters,")
	fmt.Println("exactly the regime the dynamic-network bounds are designed for.")
	return nil
}
