package engine

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/stats"
)

func streamScenario(stream int) Scenario {
	return Scenario{
		Network: NetworkSpec{Family: "clique", Params: Params{"n": 24}},
		Stream:  stream,
	}
}

func TestStreamValidation(t *testing.T) {
	if err := streamScenario(1).Validate(); err != nil {
		t.Fatalf("stream 1: %v", err)
	}
	if err := streamScenario(2).Validate(); err != nil {
		t.Fatalf("stream 2: %v", err)
	}
	if err := streamScenario(3).Validate(); err == nil || !strings.Contains(err.Error(), "stream") {
		t.Fatalf("stream 3: got %v, want a stream-version error", err)
	}
	for _, kind := range []ProtocolKind{ProtocolSync, ProtocolFlooding} {
		sc := streamScenario(2)
		sc.Protocol = kind
		if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "stream") {
			t.Fatalf("%s with stream 2: got %v, want a stream-applies-to-async error", kind, err)
		}
	}
}

// TestStreamCanonicalStability pins the cache-key contract: stream 0 and
// stream 1 canonicalize to the exact bytes pre-stream scenarios produced
// (v1 cache entries survive the upgrade), while stream 2 gets its own key.
func TestStreamCanonicalStability(t *testing.T) {
	legacy, err := Canonical(streamScenario(0))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(legacy, []byte("stream")) {
		t.Fatalf("v1 canonical form mentions stream: %s", legacy)
	}
	v1, err := Canonical(streamScenario(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy, v1) {
		t.Fatalf("explicit stream 1 changed the canonical form:\n%s\n%s", legacy, v1)
	}
	v2, err := Canonical(streamScenario(2))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(legacy, v2) {
		t.Fatal("stream 2 shares the v1 canonical form (cache collision)")
	}
	if !bytes.Contains(v2, []byte(`"stream":2`)) {
		t.Fatalf("v2 canonical form does not spell the stream version: %s", v2)
	}
}

// TestStreamV2DeterministicAcrossParallelismAndChunks: v2 changes the random
// stream, not the determinism contract — a v2 ensemble is bit-identical for
// every parallelism and chunk size.
func TestStreamV2DeterministicAcrossParallelismAndChunks(t *testing.T) {
	sc := streamScenario(2)
	const reps = 40
	ref, err := Engine{Parallelism: 1, Seed: 11}.RunBatch(sc, reps)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{3, 8} {
		for _, chunk := range []int{0, 1, 5} {
			ens, err := Engine{Parallelism: par, Seed: 11, ChunkSize: chunk}.RunBatch(sc, reps)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ens.Results {
				if ens.Results[i].SpreadTime != ref.Results[i].SpreadTime {
					t.Fatalf("par=%d chunk=%d: rep %d spread time %v, want %v",
						par, chunk, i, ens.Results[i].SpreadTime, ref.Results[i].SpreadTime)
				}
			}
			// The reduce path must agree rep for rep too — chunked reduction
			// with the recycled result ring is where a stale-slot bug would
			// show up.
			i := 0
			err = Engine{Parallelism: par, Seed: 11, ChunkSize: chunk}.RunReduceCtx(context.Background(), sc, reps, func(rep int, res *sim.Result) error {
				if res.SpreadTime != ref.Results[rep].SpreadTime {
					t.Fatalf("par=%d chunk=%d: reduced rep %d spread time %v, want %v",
						par, chunk, rep, res.SpreadTime, ref.Results[rep].SpreadTime)
				}
				i++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if i != reps {
				t.Fatalf("par=%d chunk=%d: reduced %d reps, want %d", par, chunk, i, reps)
			}
		}
	}
}

// TestStreamV2StatisticallyMatchesV1AtEngineLevel is a fast engine-level
// sanity check that the two stream versions draw from the same spread-time
// law; the thorough multi-family gate lives in internal/statcheck.
func TestStreamV2StatisticallyMatchesV1AtEngineLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison is slow")
	}
	const reps = 300
	collect := func(stream int) []float64 {
		out := make([]float64, 0, reps)
		err := Engine{Parallelism: 1, Seed: 5}.RunReduceCtx(context.Background(), streamScenario(stream), reps, func(rep int, res *sim.Result) error {
			out = append(out, res.SpreadTime)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	v1, v2 := collect(1), collect(2)
	if d := stats.KSDistance(v1, v2); d > 0.12 {
		t.Fatalf("KS distance between stream versions = %v (means %.3f vs %.3f)",
			d, stats.Mean(v1), stats.Mean(v2))
	}
}
