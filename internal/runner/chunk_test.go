package runner

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dynamicrumor/internal/xrand"
)

// TestChunkFor pins the chunk-size policy: an explicit size always wins,
// serial runs claim per repetition, and the automatic size keeps every worker
// several claims while staying within [1, maxAutoChunk].
func TestChunkFor(t *testing.T) {
	cases := []struct {
		chunk, reps, par, want int
	}{
		{chunk: 5, reps: 100, par: 8, want: 5},     // explicit wins
		{chunk: 5, reps: 100, par: 1, want: 5},     // explicit wins even serially
		{chunk: 0, reps: 100, par: 1, want: 1},     // serial → per-rep
		{chunk: 0, reps: 96, par: 8, want: 6},      // reps/(2·workers)
		{chunk: 0, reps: 10, par: 8, want: 1},      // floor at 1
		{chunk: 0, reps: 100000, par: 4, want: 64}, // ceiling at maxAutoChunk
		{chunk: 0, reps: 4, par: 8, want: 1},       // workers clamped to reps → serialish
	}
	for _, c := range cases {
		if got := ChunkFor(c.chunk, c.reps, c.par); got != c.want {
			t.Errorf("ChunkFor(%d, %d, %d) = %d, want %d", c.chunk, c.reps, c.par, got, c.want)
		}
	}
	if got := ChunkFor(0, 1000, 2); got < 1 || got > maxAutoChunk {
		t.Errorf("automatic chunk %d outside [1, %d]", got, maxAutoChunk)
	}
}

// chunkProbeJob consumes a rep-dependent number of draws so any
// stream-to-repetition mixup under chunked claiming changes the output.
func chunkProbeJob(rep int, rng *xrand.RNG) (float64, error) {
	sum := 0.0
	for i := 0; i <= rep%5; i++ {
		sum += rng.Float64()
	}
	return sum + float64(rep)*1e-9, nil
}

// TestChunkSizesByteIdentical is the chunk-equivalence regression test:
// chunk size 1 reproduces the historical per-repetition claiming, and every
// other chunk size produces byte-identical outputs, reduced in repetition
// order, across parallelism 1/3/8 and two seeds, both collected by index and
// streamed through an order-checking reducer.
func TestChunkSizesByteIdentical(t *testing.T) {
	const reps = 97 // intentionally not a multiple of any chunk size below
	for _, seed := range []uint64{7, 20200424} {
		// Reference: the serial per-repetition path (parallelism 1, chunk 1)
		// is exactly what the pre-chunking runner produced.
		want, err := collect(context.Background(), Plan{Count: reps, Parallelism: 1, ChunkSize: 1},
			xrand.New(seed), chunkProbeJob)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 3, 8} {
			for _, chunk := range []int{0, 1, 2, 7, 64, reps + 10} {
				plan := Plan{Count: reps, Parallelism: par, ChunkSize: chunk}
				label := fmt.Sprintf("seed=%d par=%d chunk=%d", seed, par, chunk)

				// The collecting reducer E9 and E12 use.
				got, err := collect(context.Background(), plan, xrand.New(seed), chunkProbeJob)
				if err != nil {
					t.Fatalf("%s: collect: %v", label, err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: collect rep %d = %v, want %v", label, i, got[i], want[i])
					}
				}

				reduced := make([]float64, 0, reps)
				err = Run(context.Background(), plan, xrand.New(seed), noLocal,
					func(rep int, rng *xrand.RNG, _ struct{}) (float64, error) { return chunkProbeJob(rep, rng) },
					func(rep int, v float64) error {
						if rep != len(reduced) {
							return fmt.Errorf("reduce called with rep %d, want %d", rep, len(reduced))
						}
						reduced = append(reduced, v)
						return nil
					})
				if err != nil {
					t.Fatalf("%s: Run: %v", label, err)
				}
				if len(reduced) != reps {
					t.Fatalf("%s: reduced %d reps, want %d", label, len(reduced), reps)
				}
				for i := range reduced {
					if reduced[i] != want[i] {
						t.Fatalf("%s: rep %d = %v, want %v", label, i, reduced[i], want[i])
					}
				}
			}
		}
	}
}

// TestChunkedBaseAdvance pins that chunked claiming leaves the base generator
// in the identical fully-advanced state as per-repetition claiming.
func TestChunkedBaseAdvance(t *testing.T) {
	a, b := xrand.New(11), xrand.New(11)
	job := func(rep int, _ *xrand.RNG, _ struct{}) (int, error) { return rep, nil }
	discard := func(int, int) error { return nil }
	if err := Run(context.Background(), Plan{Count: 33, Parallelism: 1, ChunkSize: 1}, a, noLocal, job, discard); err != nil {
		t.Fatal(err)
	}
	if err := Run(context.Background(), Plan{Count: 33, Parallelism: 4, ChunkSize: 8}, b, noLocal, job, discard); err != nil {
		t.Fatal(err)
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("chunked and per-rep claiming advanced the base generator differently")
	}
}

// TestMapReduceCancelMidChunk cancels the context from the reducer while
// workers hold large multi-repetition chunks. The contract is the chunked
// extension of the claimed-repetitions-always-reduce rule: a claimed chunk
// runs to completion and takes its full turn, so the reduced set stays a
// strict-order prefix, the turn counter reaches the claimed frontier, and no
// worker is stranded in cond.Wait.
func TestMapReduceCancelMidChunk(t *testing.T) {
	const reps = 10000
	for _, chunk := range []int{8, 64} {
		ctx, cancel := context.WithCancel(context.Background())
		var reduced []int
		err := waitDone(t, 30*time.Second, func() error {
			return Run(ctx, Plan{Count: reps, Parallelism: 8, ChunkSize: chunk}, xrand.New(1), noLocal,
				func(rep int, rng *xrand.RNG, _ struct{}) (float64, error) {
					return rng.Float64(), nil
				},
				func(rep int, v float64) error {
					reduced = append(reduced, rep)
					if rep == 100 {
						cancel()
					}
					return nil
				})
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("chunk=%d: got %v, want context.Canceled", chunk, err)
		}
		if len(reduced) == reps {
			t.Fatalf("chunk=%d: cancellation mid-chunk still reduced all %d repetitions", chunk, reps)
		}
		if len(reduced) < 101 {
			t.Fatalf("chunk=%d: only %d repetitions reduced, want at least the 101 before the cancel", chunk, len(reduced))
		}
		for i, rep := range reduced {
			if rep != i {
				t.Fatalf("chunk=%d: reduction order broken at position %d: got rep %d", chunk, i, rep)
			}
		}
	}
}

// TestMapReduceChunkedCancelDrainsBase: a cancelled chunked run still
// advances the base generator exactly reps draws.
func TestMapReduceChunkedCancelDrainsBase(t *testing.T) {
	const reps = 500
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base := xrand.New(7)
	err := Run(ctx, Plan{Count: reps, Parallelism: 4, ChunkSize: 16}, base, noLocal,
		func(rep int, rng *xrand.RNG, _ struct{}) (int, error) { return rep, nil },
		func(rep int, v int) error {
			if rep == 40 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	ref := xrand.New(7)
	for i := 0; i < reps; i++ {
		ref.Uint64()
	}
	if got, want := base.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("base generator not drained after chunked cancel: next draw %d, want %d", got, want)
	}
}

// TestMapReduceErrorInChunk places failures in the interior of chunks and
// checks the deterministic error contract survives chunking: the lowest
// failing repetition is reported, every earlier repetition was reduced, and
// no later repetition is — for several chunk sizes and worker counts.
func TestMapReduceErrorInChunk(t *testing.T) {
	boom := errors.New("boom")
	for _, par := range []int{1, 3, 8} {
		for _, chunk := range []int{1, 4, 16, 64} {
			label := fmt.Sprintf("par=%d chunk=%d", par, chunk)
			reduced := 0
			err := Run(context.Background(), Plan{Count: 200, Parallelism: par, ChunkSize: chunk},
				xrand.New(3), noLocal,
				func(rep int, _ *xrand.RNG, _ struct{}) (int, error) {
					// 21 sits mid-chunk for every chunk size above; 35 and 150
					// are later failures that must lose deterministically.
					if rep == 21 || rep == 35 || rep == 150 {
						return 0, boom
					}
					return rep, nil
				},
				func(rep int, v int) error {
					if rep >= 21 {
						return fmt.Errorf("reduced rep %d after the failure point", rep)
					}
					reduced++
					return nil
				})
			var re *RepError
			if !errors.As(err, &re) || re.Rep != 21 || !errors.Is(err, boom) {
				t.Fatalf("%s: got error %v, want RepError for rep 21", label, err)
			}
			if reduced != 21 {
				t.Fatalf("%s: reduced %d reps before the failure, want 21", label, reduced)
			}
		}
	}
}

// TestMapLocalErrorInChunk mirrors the deterministic lowest-rep error
// contract on a collecting run under chunked claiming.
func TestMapLocalErrorInChunk(t *testing.T) {
	boom := errors.New("boom")
	for _, chunk := range []int{1, 8, 64} {
		_, err := collect(context.Background(), Plan{Count: 100, Parallelism: 4, ChunkSize: chunk},
			xrand.New(9), func(rep int, _ *xrand.RNG) (int, error) {
				if rep == 30 || rep == 60 {
					return 0, boom
				}
				return rep, nil
			})
		var re *RepError
		if !errors.As(err, &re) || re.Rep != 30 || !errors.Is(err, boom) {
			t.Fatalf("chunk=%d: got error %v, want RepError for rep 30", chunk, err)
		}
	}
}

// TestMapReduceChunkedReducerError: a reducer failure inside a chunk aborts
// the run, is returned unwrapped, and stops workers from claiming far beyond
// the failure point.
func TestMapReduceChunkedReducerError(t *testing.T) {
	stop := errors.New("stop")
	err := Run(context.Background(), Plan{Count: 10000, Parallelism: 4, ChunkSize: 16},
		xrand.New(4), noLocal,
		func(rep int, _ *xrand.RNG, _ struct{}) (int, error) { return rep, nil },
		func(rep int, v int) error {
			if rep == 10 {
				return stop
			}
			if rep > 10 {
				return fmt.Errorf("reduced rep %d after the reducer failed at rep 10", rep)
			}
			return nil
		})
	if !errors.Is(err, stop) {
		t.Fatalf("got %v, want the reducer error", err)
	}
}
