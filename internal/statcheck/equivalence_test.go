package statcheck_test

import (
	"context"
	"fmt"
	"testing"

	"dynamicrumor/internal/engine"
	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/statcheck"
)

// TestStreamV2EquivalenceSuite is the regression gate for the opt-in v2
// stream discipline (sim.StreamV2): across static and dynamic network
// families, spread-time ensembles drawn with stream v1 and stream v2 must be
// statistically indistinguishable under the documented statcheck thresholds.
// Seeds are fixed, so a failure is exactly reproducible; the engine runs with
// parallelism and chunking enabled so the suite also exercises the chunked
// reduce path under -race.
//
// This is the suite the acceptance criteria of the v2 discipline point at:
// any change to the v2 sampler (alias envelope, rebuild policy, batched
// variates) must keep every family below the gate.
func TestStreamV2EquivalenceSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical equivalence suite is slow")
	}
	cases := []struct {
		name string
		spec engine.NetworkSpec
		mode sim.Mode
		reps int
		seed uint64
	}{
		// Static families: the dense regular case and a sparse random one.
		{"clique", engine.NetworkSpec{Family: "clique", Params: engine.Params{"n": 32}}, 0, 400, 101},
		{"expander", engine.NetworkSpec{Family: "expander", Params: engine.Params{"n": 48, "degree": 4}}, 0, 400, 102},
		// Dynamic families: the adaptive dynamic star of Figure 1(b) and the
		// ρ-diligent G(n, ρ) of Theorem 1.2.
		{"dynamic-star", engine.NetworkSpec{Family: "dynamic-star", Params: engine.Params{"n": 13}}, 0, 300, 103},
		{"gnrho", engine.NetworkSpec{Family: "gnrho", Params: engine.Params{"n": 32, "rho": 0.25}}, 0, 300, 104},
		// A non-default transfer mode, where the two disciplines weight the
		// informed set differently (push weights sit on informed vertices).
		{"clique-push", engine.NetworkSpec{Family: "clique", Params: engine.Params{"n": 32}}, sim.PushOnly, 400, 105},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			collect := func(stream int) []float64 {
				sc := engine.Scenario{Network: tc.spec, Mode: tc.mode, Stream: stream}
				eng := engine.Engine{Parallelism: 3, ChunkSize: 4, Seed: tc.seed}
				out := make([]float64, 0, tc.reps)
				err := eng.RunReduceCtx(context.Background(), sc, tc.reps, func(rep int, res *sim.Result) error {
					if res.Informed != res.N {
						return fmt.Errorf("rep %d: only %d/%d informed — family must complete for spread times to be comparable", rep, res.Informed, res.N)
					}
					out = append(out, res.SpreadTime)
					return nil
				})
				if err != nil {
					t.Fatalf("stream %d: %v", stream, err)
				}
				return out
			}
			v1, v2 := collect(sim.StreamV1), collect(sim.StreamV2)
			r := statcheck.Compare(v1, v2, statcheck.Options{})
			if err := r.Err(); err != nil {
				t.Fatalf("v1 vs v2 on %s: %v", tc.name, err)
			}
			t.Logf("%s: KS %.4f (limit %.4f), median %.4g vs %.4g",
				tc.name, r.KS, r.KSLimit, r.Quantiles[0].A, r.Quantiles[0].B)
		})
	}
}
