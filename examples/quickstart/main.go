// Quickstart: simulate the asynchronous push-pull algorithm on a static
// expander and on a dynamic network that alternates between an expander and a
// sparse cycle, then compare the measured spread times with the Theorem 1.1
// bound computed from the per-step conductance and diligence.
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
	const n = 2000
	rng := rumor.NewRNG(42)

	// A static constant-degree expander.
	expander := rumor.Expander(n, 6, rng)
	static := rumor.Static(expander)
	async := rumor.AsyncProtocol{Opts: rumor.AsyncOptions{Start: 0}}
	res, err := async.Run(static, rng)
	if err != nil {
		return fmt.Errorf("static expander: %w", err)
	}
	fmt.Printf("static expander (n=%d): async spread time %.2f\n", n, res.SpreadTime)

	// The same expander alternating with a cycle: conductance collapses on
	// every other step, and the Theorem 1.1 bound adapts automatically.
	alternating := rumor.Alternating([]*rumor.Graph{expander, rumor.Cycle(n)})
	res2, err := async.Run(alternating, rng)
	if err != nil {
		return fmt.Errorf("alternating network: %w", err)
	}
	fmt.Printf("alternating expander/cycle:  async spread time %.2f\n", res2.SpreadTime)

	// Theorem 1.1 bound from measured per-step profiles. The profile of the
	// two alternating graphs is measured once each and then repeats.
	expanderProfile := rumor.MeasureProfile(expander)
	cycleProfile := rumor.MeasureProfile(rumor.Cycle(n))
	profile := func(t int) rumor.StepProfile {
		if t%2 == 0 {
			return expanderProfile
		}
		return cycleProfile
	}
	tBound, err := rumor.Theorem11Bound(profile, n, 1, 0)
	if err != nil {
		return fmt.Errorf("bound: %w", err)
	}
	fmt.Printf("Theorem 1.1 bound T(G,1) for the alternating network: %d\n", tBound)
	fmt.Printf("measured/bound ratio: %.3f (the bound holds with probability 1-1/n)\n",
		res2.SpreadTime/float64(tBound))

	// The universal worst case of Remark 1.4 for any connected dynamic network.
	fmt.Printf("Remark 1.4 worst-case bound for any connected dynamic network: %.0f\n",
		rumor.WorstCaseSpreadTime(n))
	return nil
}
