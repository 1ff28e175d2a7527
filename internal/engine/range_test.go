package engine

import (
	"context"
	"testing"

	"dynamicrumor/internal/sim"
)

// repRecord captures the reducer-visible facts of one repetition.
type repRecord struct {
	spread    float64
	completed bool
	informed  int
}

func recordOf(res *sim.Result) repRecord {
	return repRecord{spread: res.SpreadTime, completed: res.Completed, informed: res.Informed}
}

// TestRunReduceRangeMatchesFullRun: splitting an ensemble into ranges and
// executing each with its own engine (any parallelism, any chunking)
// reproduces the full run's per-repetition results bit for bit — the property
// the distributed coordinator's exact merge rests on.
func TestRunReduceRangeMatchesFullRun(t *testing.T) {
	scenarios := []Scenario{
		{Network: NetworkSpec{Family: "gnrho", Params: map[string]float64{"n": 64, "rho": 0.25}}},
		{Network: NetworkSpec{Family: "clique", Params: map[string]float64{"n": 48}}, Protocol: ProtocolSync},
		{Network: NetworkSpec{Family: "dynamic-star", Params: map[string]float64{"n": 40}}},
	}
	const reps = 37
	for _, sc := range scenarios {
		full := Engine{Parallelism: 1, Seed: 7}
		want := make([]repRecord, 0, reps)
		if err := full.RunReduceCtx(context.Background(), sc, reps, func(rep int, res *sim.Result) error {
			want = append(want, recordOf(res))
			return nil
		}); err != nil {
			t.Fatalf("%s: full run: %v", sc.Network.Family, err)
		}

		c, err := Compile(sc)
		if err != nil {
			t.Fatalf("%s: compile: %v", sc.Network.Family, err)
		}
		cuts := []int{0, 5, 6, 20, reps}
		for _, parallelism := range []int{1, 4} {
			got := make([]repRecord, 0, reps)
			for i := 0; i+1 < len(cuts); i++ {
				start, count := cuts[i], cuts[i+1]-cuts[i]
				eng := Engine{Parallelism: parallelism, Seed: 7, ChunkSize: 3}
				if err := eng.RunReduceRangeCtx(context.Background(), c, start, count, func(rep int, res *sim.Result) error {
					if rep != len(got) {
						t.Fatalf("%s: reducer saw rep %d, want %d", sc.Network.Family, rep, len(got))
					}
					got = append(got, recordOf(res))
					return nil
				}); err != nil {
					t.Fatalf("%s: range [%d,%d): %v", sc.Network.Family, start, start+count, err)
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s parallelism %d: rep %d = %+v, want %+v",
						sc.Network.Family, parallelism, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRunReduceRangeValidation pins the argument contract.
func TestRunReduceRangeValidation(t *testing.T) {
	c, err := Compile(Scenario{Network: NetworkSpec{Family: "clique", Params: map[string]float64{"n": 8}}})
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Seed: 1}
	discard := func(int, *sim.Result) error { return nil }
	if err := eng.RunReduceRangeCtx(context.Background(), c, -1, 4, discard); err == nil {
		t.Error("negative start accepted")
	}
	if err := eng.RunReduceRangeCtx(context.Background(), c, 0, 0, discard); err == nil {
		t.Error("zero count accepted")
	}
}
