package runner

import (
	"context"
	"errors"
	"testing"

	"dynamicrumor/internal/xrand"
)

// rangeJob is a deterministic job whose value depends on both the repetition
// index and its private stream, so any stream-labeling or ordering mistake in
// the range executor shows up as a value mismatch.
func rangeJob(rep int, rng *xrand.RNG, _ struct{}) (uint64, error) {
	return uint64(rep)*0x9e3779b97f4a7c15 ^ rng.Uint64() ^ rng.Uint64(), nil
}

func noLocal() struct{} { return struct{}{} }

// collectFull runs a whole run from 0 and returns the reduced values in order.
func collectFull(t *testing.T, parallelism, chunk, reps int, seed uint64) []uint64 {
	t.Helper()
	out := make([]uint64, 0, reps)
	err := Run(context.Background(), Plan{Count: reps, Parallelism: parallelism, ChunkSize: chunk},
		xrand.New(seed), noLocal, rangeJob,
		func(rep int, v uint64) error {
			if rep != len(out) {
				t.Fatalf("reducer saw rep %d, want %d", rep, len(out))
			}
			out = append(out, v)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMapReduceRangeMatchesFullRun: executing any partition of [0, reps) as
// independent ranges — each from a fresh base generator, under different
// parallelism and chunking — reproduces the full run's values exactly, in
// global repetition order within each range.
func TestMapReduceRangeMatchesFullRun(t *testing.T) {
	const reps = 97
	const seed = 20200424
	want := collectFull(t, 1, 1, reps, seed)

	partitions := [][]int{
		{0, reps},
		{0, 1, 2, 40, 96, reps},
		{0, 13, 13, 50, reps}, // includes an empty range
	}
	for _, cuts := range partitions {
		for _, parallelism := range []int{1, 3, 8} {
			for _, chunk := range []int{0, 1, 5} {
				got := make([]uint64, 0, reps)
				for i := 0; i+1 < len(cuts); i++ {
					start, count := cuts[i], cuts[i+1]-cuts[i]
					if count == 0 {
						continue
					}
					base := xrand.New(seed)
					err := Run(context.Background(),
						Plan{Start: start, Count: count, Parallelism: parallelism, ChunkSize: chunk},
						base, noLocal, rangeJob,
						func(rep int, v uint64) error {
							if rep != len(got) {
								t.Fatalf("range [%d,%d): reducer saw rep %d, want %d", start, start+count, rep, len(got))
							}
							got = append(got, v)
							return nil
						})
					if err != nil {
						t.Fatalf("range [%d,%d): %v", start, start+count, err)
					}
					// The base generator ends advanced start+count draws: its
					// next draw must match a reference advanced the same way.
					ref := xrand.New(seed)
					for j := 0; j < start+count; j++ {
						ref.Uint64()
					}
					if base.Uint64() != ref.Uint64() {
						t.Fatalf("range [%d,%d): base generator not advanced exactly start+count draws", start, start+count)
					}
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("partition %v parallelism %d chunk %d: rep %d = %#x, want %#x",
							cuts, parallelism, chunk, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestMapReduceRangeErrors: negative starts are rejected; a failing
// repetition reports its global index.
func TestMapReduceRangeErrors(t *testing.T) {
	err := Run(context.Background(), Plan{Start: -1, Count: 5, Parallelism: 2}, xrand.New(1), noLocal, rangeJob,
		func(int, uint64) error { return nil })
	if err == nil {
		t.Fatal("negative start accepted")
	}

	boom := errors.New("boom")
	err = Run(context.Background(), Plan{Start: 10, Count: 5, Parallelism: 2}, xrand.New(1), noLocal,
		func(rep int, rng *xrand.RNG, _ struct{}) (uint64, error) {
			if rep == 12 {
				return 0, boom
			}
			return uint64(rep), nil
		},
		func(int, uint64) error { return nil })
	var re *RepError
	if !errors.As(err, &re) || re.Rep != 12 {
		t.Fatalf("err = %v, want RepError at global rep 12", err)
	}
}
