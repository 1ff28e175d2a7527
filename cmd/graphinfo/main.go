// Command graphinfo prints the graph parameters studied by the paper —
// conductance Φ(G), diligence ρ(G), absolute diligence ρ̄(G) — for a chosen
// graph family, together with the resulting static spread-time bounds.
//
// Example:
//
//	graphinfo -family hypercube -n 256
//	graphinfo -family star -n 1000
package main

import (
	"flag"
	"fmt"
	"os"

	"dynamicrumor/rumor"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "graphinfo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("graphinfo", flag.ContinueOnError)
	family := fs.String("family", "clique", "graph family: clique, star, cycle, path, hypercube, torus, expander, er, barbell")
	n := fs.Int("n", 64, "number of vertices")
	p := fs.Float64("p", 0.05, "edge probability for -family er")
	seed := fs.Uint64("seed", 1, "random seed for randomized families")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := buildGraph(*family, *n, *p, rumor.NewRNG(*seed))
	if err != nil {
		return err
	}
	return printInfo(os.Stdout, *family, g)
}

func buildGraph(family string, n int, p float64, rng *rumor.RNG) (*rumor.Graph, error) {
	switch family {
	case "clique":
		return rumor.Clique(n), nil
	case "star":
		return rumor.Star(n, 0), nil
	case "cycle":
		return rumor.Cycle(n), nil
	case "path":
		return rumor.Path(n), nil
	case "hypercube":
		d := 0
		for 1<<uint(d+1) <= n {
			d++
		}
		return rumor.Hypercube(d), nil
	case "torus":
		side := 2
		for side*side < n {
			side++
		}
		return rumor.Torus(side, side), nil
	case "expander":
		return rumor.Expander(n, 6, rng), nil
	case "er":
		return rumor.ErdosRenyi(n, p, rng), nil
	case "barbell":
		// Two cliques of size n/2 joined by an edge, built via the builder.
		half := n / 2
		b := rumor.NewBuilder(2 * half)
		for u := 0; u < half; u++ {
			for v := u + 1; v < half; v++ {
				b.AddEdge(u, v)
				b.AddEdge(half+u, half+v)
			}
		}
		b.AddEdge(half-1, half)
		return b.Build(), nil
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}

func printInfo(out *os.File, family string, g *rumor.Graph) error {
	fmt.Fprintf(out, "family=%s n=%d m=%d min/avg/max degree = %d / %.2f / %d\n",
		family, g.N(), g.M(), g.MinDegree(), g.AverageDegree(), g.MaxDegree())
	fmt.Fprintf(out, "connected: %v\n", g.IsConnected())

	profile := rumor.MeasureProfile(g)
	if phi, err := rumor.Conductance(g); err == nil {
		fmt.Fprintf(out, "conductance Φ(G) (exact):        %.6f\n", phi)
	} else {
		upper, lower, err := rumor.ConductanceEstimate(g)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "conductance Φ(G) (estimate):     sweep-cut %.6f, Cheeger lower bound %.6f\n", upper, lower)
	}
	if rho, err := rumor.Diligence(g); err == nil {
		fmt.Fprintf(out, "diligence ρ(G) (exact):          %.6f\n", rho)
	} else {
		fmt.Fprintf(out, "diligence ρ(G) (stand-in):       %.6f (ρ̄·d̄; exact ρ is limited to 22 vertices)\n", profile.Rho)
	}
	fmt.Fprintf(out, "absolute diligence ρ̄(G):         %.6f\n", rumor.AbsoluteDiligence(g))

	if profile.Connected && profile.Phi > 0 && profile.Rho > 0 {
		t11, err := rumor.Theorem11Bound(rumor.ConstantProfile(profile), g.N(), 1, 0)
		if err == nil {
			fmt.Fprintf(out, "Theorem 1.1 bound T(G,1) if exposed at every step: %d\n", t11)
		}
		tabs, err := rumor.AbsoluteBound(rumor.ConstantProfile(profile), g.N(), 0)
		if err == nil {
			fmt.Fprintf(out, "Theorem 1.3 bound T_abs if exposed at every step:  %d\n", tabs)
		}
	}
	fmt.Fprintf(out, "Remark 1.4 universal bound for connected dynamic networks: %.0f\n",
		rumor.WorstCaseSpreadTime(g.N()))
	return nil
}
