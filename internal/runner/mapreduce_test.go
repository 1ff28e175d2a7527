package runner

import (
	"context"

	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dynamicrumor/internal/xrand"
)

// TestMapReduceMatchesMapLocal pins the core contract: for every parallelism
// the reduced sequence is exactly the serial run's values, in repetition
// order.
func TestMapReduceMatchesMapLocal(t *testing.T) {
	const reps = 64
	job := func(rep int, rng *xrand.RNG) (float64, error) {
		// Consume a rep-dependent number of draws so stream mixups surface.
		sum := 0.0
		for i := 0; i <= rep%7; i++ {
			sum += rng.Float64()
		}
		return sum + float64(rep), nil
	}
	want, err := collect(context.Background(), Plan{Count: reps, Parallelism: 1}, xrand.New(42), job)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 3, 8, 16} {
		got := make([]float64, 0, reps)
		err := Run(context.Background(), Plan{Count: reps, Parallelism: par}, xrand.New(42), noLocal,
			func(rep int, rng *xrand.RNG, _ struct{}) (float64, error) { return job(rep, rng) },
			func(rep int, v float64) error {
				if rep != len(got) {
					return fmt.Errorf("reduce called with rep %d, want %d", rep, len(got))
				}
				got = append(got, v)
				return nil
			})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(got) != reps {
			t.Fatalf("parallelism %d: reduced %d values, want %d", par, len(got), reps)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: rep %d got %v, want %v", par, i, got[i], want[i])
			}
		}
	}
}

// TestMapReduceOrderUnderSkew forces wildly uneven repetition durations and
// checks the reduction order is still strictly the repetition order.
func TestMapReduceOrderUnderSkew(t *testing.T) {
	const reps = 40
	next := 0
	err := Run(context.Background(), Plan{Count: reps, Parallelism: 8}, xrand.New(1), noLocal,
		func(rep int, _ *xrand.RNG, _ struct{}) (int, error) {
			if rep%5 == 0 {
				time.Sleep(2 * time.Millisecond)
			}
			return rep, nil
		},
		func(rep int, v int) error {
			if rep != next || v != rep {
				return fmt.Errorf("out of order: rep %d value %d, want %d", rep, v, next)
			}
			next++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if next != reps {
		t.Fatalf("reduced %d reps, want %d", next, reps)
	}
}

// TestMapReduceAdvancesBaseLikeMapLocal pins that a serial and a parallel run
// both leave the base generator advanced exactly one draw per repetition, so
// a caller can interleave runs in a longer deterministic experiment.
func TestMapReduceAdvancesBaseLikeMapLocal(t *testing.T) {
	a, b, ref := xrand.New(9), xrand.New(9), xrand.New(9)
	job := func(rep int, _ *xrand.RNG, _ struct{}) (int, error) { return rep, nil }
	for _, run := range []struct {
		base *xrand.RNG
		par  int
	}{{a, 1}, {b, 4}} {
		if err := Run(context.Background(), Plan{Count: 17, Parallelism: run.par}, run.base, noLocal, job,
			func(int, int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 17; i++ {
		ref.Uint64()
	}
	want := ref.Uint64()
	if a.Uint64() != want || b.Uint64() != want {
		t.Fatal("serial and parallel runs advanced the base generator differently")
	}
}

// TestMapReduceJobError checks the deterministic error contract: the lowest
// failing repetition is reported, every earlier repetition was reduced, and
// no later repetition is.
func TestMapReduceJobError(t *testing.T) {
	boom := errors.New("boom")
	for _, par := range []int{1, 4} {
		reduced := 0
		err := Run(context.Background(), Plan{Count: 50, Parallelism: par}, xrand.New(3), noLocal,
			func(rep int, _ *xrand.RNG, _ struct{}) (int, error) {
				if rep == 20 || rep == 35 {
					return 0, boom
				}
				return rep, nil
			},
			func(rep int, v int) error {
				if rep >= 20 {
					return fmt.Errorf("reduced rep %d after the failure point", rep)
				}
				reduced++
				return nil
			})
		var re *RepError
		if !errors.As(err, &re) || re.Rep != 20 || !errors.Is(err, boom) {
			t.Fatalf("parallelism %d: got error %v, want RepError for rep 20", par, err)
		}
		if reduced != 20 {
			t.Fatalf("parallelism %d: reduced %d reps before the failure, want 20", par, reduced)
		}
	}
}

// TestMapReduceReducerError checks that a reducer failure aborts the run and
// is returned unwrapped. ChunkSize 1 makes the bound below a per-repetition
// one (TestMapReduceChunkedReducerError covers chunks): each worker holds at
// most one claimed repetition when the abort lands.
func TestMapReduceReducerError(t *testing.T) {
	stop := errors.New("stop")
	for _, par := range []int{1, 6} {
		var ran atomic.Int64
		err := Run(context.Background(), Plan{Count: 100, Parallelism: par, ChunkSize: 1}, xrand.New(4), noLocal,
			func(rep int, _ *xrand.RNG, _ struct{}) (int, error) {
				ran.Add(1)
				return rep, nil
			},
			func(rep int, v int) error {
				if rep == 10 {
					return stop
				}
				return nil
			})
		if !errors.Is(err, stop) {
			t.Fatalf("parallelism %d: got %v, want the reducer error", par, err)
		}
		// Workers stop claiming after the abort; with par in-flight slots at
		// most a handful of extra jobs ran.
		if n := ran.Load(); n > 10+int64(par)+int64(par) {
			t.Fatalf("parallelism %d: %d jobs ran after an abort at rep 10", par, n)
		}
	}
}

// TestMapReduceZeroReps: a run with no repetitions is a no-op.
func TestMapReduceZeroReps(t *testing.T) {
	err := Run(context.Background(), Plan{Parallelism: 4}, xrand.New(1), noLocal,
		func(rep int, _ *xrand.RNG, _ struct{}) (int, error) { return 0, nil },
		func(int, int) error { t.Error("reduce called"); return nil })
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapLazyStreamsMatchEagerStreams pins that the lazy claim-order stream
// derivation hands every repetition exactly the stream the eager Streams
// pre-derivation would.
func TestMapLazyStreamsMatchEagerStreams(t *testing.T) {
	const reps = 12
	want := Streams(xrand.New(77), reps)
	wantFirst := make([]uint64, reps)
	for i, s := range want {
		wantFirst[i] = s.Uint64()
	}
	for _, par := range []int{1, 5} {
		got, err := collect(context.Background(), Plan{Count: reps, Parallelism: par}, xrand.New(77), func(rep int, rng *xrand.RNG) (uint64, error) {
			return rng.Uint64(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != wantFirst[i] {
				t.Fatalf("parallelism %d: rep %d stream differs from eager derivation", par, i)
			}
		}
	}
}
