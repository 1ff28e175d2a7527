package runner

import (
	"context"

	"errors"
	"sync/atomic"
	"testing"

	"dynamicrumor/internal/xrand"
)

// drain consumes a deterministic amount of randomness from a stream and
// returns a digest of it, standing in for a simulation repetition.
func drain(rep int, rng *xrand.RNG) (uint64, error) {
	var h uint64
	for i := 0; i < 100+rep%7; i++ {
		h = h*1099511628211 + rng.Uint64()
	}
	return h, nil
}

// collect runs fn over the plan's range through Run with a reducer that
// stores every value by index — the collecting pattern of E9 and E12 — and
// returns the values in repetition order, or nil and the run's error.
func collect[T any](ctx context.Context, p Plan, base *xrand.RNG, fn func(rep int, rng *xrand.RNG) (T, error)) ([]T, error) {
	out := make([]T, max(p.Count, 0))
	err := Run(ctx, p, base, noLocal,
		func(rep int, rng *xrand.RNG, _ struct{}) (T, error) { return fn(rep, rng) },
		func(rep int, v T) error {
			out[rep-p.Start] = v
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func TestMapMatchesSerialLoop(t *testing.T) {
	const reps = 33
	// The historical serial pattern: split the base RNG inside the loop.
	base := xrand.New(42)
	want := make([]uint64, reps)
	for rep := 0; rep < reps; rep++ {
		v, err := drain(rep, base.Split(uint64(rep)+1))
		if err != nil {
			t.Fatal(err)
		}
		want[rep] = v
	}
	for _, p := range []int{0, 1, 2, 3, 8, 64} {
		got, err := collect(context.Background(), Plan{Count: reps, Parallelism: p}, xrand.New(42), drain)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: rep %d = %x, want %x (serial)", p, i, got[i], want[i])
			}
		}
	}
}

// TestMapZeroReps: an empty or negative count runs nothing, reduces nothing
// and leaves the base generator untouched.
func TestMapZeroReps(t *testing.T) {
	for _, count := range []int{0, -3} {
		base := xrand.New(1)
		err := Run(context.Background(), Plan{Count: count, Parallelism: 4}, base, noLocal,
			func(int, *xrand.RNG, struct{}) (uint64, error) { t.Error("job called"); return 0, nil },
			func(int, uint64) error { t.Error("reduce called"); return nil })
		if err != nil {
			t.Fatalf("count %d: %v", count, err)
		}
		if base.Uint64() != xrand.New(1).Uint64() {
			t.Fatalf("count %d: base generator advanced", count)
		}
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, p := range []int{1, 4} {
		_, err := collect(context.Background(), Plan{Count: 16, Parallelism: p}, xrand.New(9), func(rep int, _ *xrand.RNG) (int, error) {
			if rep%5 == 2 { // reps 2, 7, 12 fail
				return 0, sentinel
			}
			return rep, nil
		})
		var re *RepError
		if !errors.As(err, &re) {
			t.Fatalf("parallelism %d: error %v is not a *RepError", p, err)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("parallelism %d: error %v does not unwrap to the sentinel", p, err)
		}
		if p == 4 && re.Rep != 2 {
			t.Fatalf("parallelism %d: reported rep %d, want lowest failed rep 2", p, re.Rep)
		}
		if p == 1 && re.Rep != 2 {
			t.Fatalf("serial: reported rep %d, want 2", re.Rep)
		}
	}
}

func TestMapRunsEveryRepExactlyOnce(t *testing.T) {
	const reps = 200
	var calls [reps]atomic.Int32
	out, err := collect(context.Background(), Plan{Count: reps, Parallelism: 8}, xrand.New(3), func(rep int, _ *xrand.RNG) (int, error) {
		calls[rep].Add(1)
		return rep * rep, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("rep %d executed %d times", i, n)
		}
		if out[i] != i*i {
			t.Fatalf("out[%d] = %d, results out of repetition order", i, out[i])
		}
	}
}

func TestParallelismNormalization(t *testing.T) {
	if Parallelism(0) < 1 || Parallelism(-3) < 1 {
		t.Fatal("non-positive parallelism must normalize to at least 1 worker")
	}
	if Parallelism(5) != 5 {
		t.Fatal("positive parallelism must pass through")
	}
}

func TestStreamsMatchSerialSplits(t *testing.T) {
	a := xrand.New(77)
	b := xrand.New(77)
	streams := Streams(a, 5)
	for i := 0; i < 5; i++ {
		want := b.Split(uint64(i) + 1).Uint64()
		if got := streams[i].Uint64(); got != want {
			t.Fatalf("stream %d first draw %x, want %x", i, got, want)
		}
	}
}
