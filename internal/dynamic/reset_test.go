package dynamic

import (
	"testing"

	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

// resetCase builds a fresh Reusable network from a seed; the test compares a
// once-constructed-then-Reset instance against a freshly constructed one.
type resetCase struct {
	name  string
	build func(seed uint64) (Reusable, error)
}

func resetCases() []resetCase {
	return []resetCase{
		{"dichotomy-g2", func(seed uint64) (Reusable, error) {
			return NewDichotomyG2(40, xrand.New(seed))
		}},
		{"gnrho", func(seed uint64) (Reusable, error) {
			return NewGNRho(128, 0.2, 0, xrand.New(seed))
		}},
		{"absgnrho", func(seed uint64) (Reusable, error) {
			return NewAbsGNRho(120, 0.2, xrand.New(seed))
		}},
		{"edge-markovian", func(seed uint64) (Reusable, error) {
			return NewEdgeMarkovian(48, 0.08, 0.4, gen.Cycle(48), xrand.New(seed))
		}},
		{"mobile", func(seed uint64) (Reusable, error) {
			return NewMobileAgents(60, 5, xrand.New(seed))
		}},
	}
}

// driveNetwork steps a network like a synchronous simulator would — growing
// an informed set frontier-style so the adaptive adversaries actually adapt —
// and returns a fingerprint of every step graph.
func driveNetwork(t *testing.T, net Network, steps int, seed uint64) []uint64 {
	t.Helper()
	n := net.N()
	informed := make([]bool, n)
	informed[0] = true
	count := 1
	rng := xrand.New(seed)
	var prints []uint64
	for step := 0; step < steps; step++ {
		g := net.GraphAt(step, informed)
		prints = append(prints, fingerprint(g))
		// Inform a few random uninformed vertices so the adversaries move.
		for k := 0; k < 1+n/16 && count < n; k++ {
			v := rng.Intn(n)
			if !informed[v] {
				informed[v] = true
				count++
			}
		}
	}
	return prints
}

// fingerprint hashes a graph's edge set.
func fingerprint(g *graph.Graph) uint64 {
	h := uint64(1469598103934665603)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	mix(uint64(g.N()))
	for _, e := range g.AppendEdges(nil) {
		mix(uint64(e.U)<<32 | uint64(e.V))
	}
	return h
}

// TestResetMatchesFreshConstruction is the recycling contract of
// dynamic.Reusable: construct, run a repetition's worth of adaptive steps,
// Reset with a new seed — and the instance must then behave bit-identically
// to a freshly constructed network with that seed, including the stream it
// draws during construction and during later adaptive steps. This is what
// lets the batch engine reuse one instance per worker across repetitions.
func TestResetMatchesFreshConstruction(t *testing.T) {
	for _, tc := range resetCases() {
		t.Run(tc.name, func(t *testing.T) {
			recycled, err := tc.build(100)
			if err != nil {
				t.Fatal(err)
			}
			// Dirty the instance with a full drive on the first seed.
			driveNetwork(t, recycled, 30, 1000)

			// Reset must reproduce a fresh seed-200 instance exactly. The
			// constructors take ownership of their rng, so hand Reset the
			// same generator state a fresh construction would receive.
			if err := recycled.Reset(xrand.New(200)); err != nil {
				t.Fatal(err)
			}
			fresh, err := tc.build(200)
			if err != nil {
				t.Fatal(err)
			}
			got := driveNetwork(t, recycled, 30, 2000)
			want := driveNetwork(t, fresh, 30, 2000)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: reset instance diverged from fresh construction", i)
				}
			}
		})
	}
}

// TestResetCasesCoverEveryReusable fails when a new Reusable implementation
// is added without a reset-equivalence case.
func TestResetCasesCoverEveryReusable(t *testing.T) {
	covered := map[string]bool{}
	for _, tc := range resetCases() {
		covered[tc.name] = true
	}
	for _, name := range []string{"dichotomy-g2", "gnrho", "absgnrho", "edge-markovian", "mobile"} {
		if !covered[name] {
			t.Errorf("Reusable network %q has no reset-equivalence case", name)
		}
	}
}
