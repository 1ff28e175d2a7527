package runner

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dynamicrumor/internal/xrand"
)

// waitDone fails the test if fn does not return within the deadline — the
// regression guard against cancellation deadlocking the condvar turn-taking.
func waitDone(t *testing.T, deadline time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(deadline):
		t.Fatalf("run did not return within %v (cancellation deadlock?)", deadline)
		return nil
	}
}

// TestMapReduceCancelMidBatch cancels the context from inside the reducer,
// mid-batch, with many workers in flight. The historical hazard: a worker
// that notices cancellation between claiming a repetition and taking its
// reduction turn would strand every later repetition's worker in cond.Wait
// forever. The contract is that claimed repetitions always complete and
// reduce, so the reduced set stays a strict-order prefix and the call
// returns context.Canceled promptly.
func TestMapReduceCancelMidBatch(t *testing.T) {
	const reps = 10000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reduced []int
	err := waitDone(t, 30*time.Second, func() error {
		return Run(ctx, Plan{Count: reps, Parallelism: 8}, xrand.New(1), noLocal,
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
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if len(reduced) == reps {
		t.Fatalf("cancellation mid-batch still reduced all %d repetitions", reps)
	}
	if len(reduced) < 101 {
		t.Fatalf("only %d repetitions reduced, want at least the 101 before the cancel", len(reduced))
	}
	for i, rep := range reduced {
		if rep != i {
			t.Fatalf("reduction order broken at position %d: got rep %d", i, rep)
		}
	}
}

// TestMapReduceCancelExternal cancels from outside the run while workers are
// slow, for both the serial and the parallel paths.
func TestMapReduceCancelExternal(t *testing.T) {
	for _, par := range []int{1, 6} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		errc := make(chan error, 1)
		go func() {
			errc <- Run(ctx, Plan{Count: 100000, Parallelism: par}, xrand.New(2), noLocal,
				func(rep int, rng *xrand.RNG, _ struct{}) (int, error) {
					started.Add(1)
					time.Sleep(200 * time.Microsecond)
					return rep, nil
				},
				func(rep int, v int) error { return nil })
		}()
		for started.Load() < 10 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("par=%d: got %v, want context.Canceled", par, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("par=%d: Run did not return after cancel", par)
		}
		if n := started.Load(); n == 100000 {
			t.Fatalf("par=%d: cancellation did not stop the batch early", par)
		}
	}
}

// TestMapCancel: a job cancels its own run, and the collecting run reports
// context.Canceled instead of partial results. Repetitions after the
// cancelling one wait for the cancellation: rep 50 is claimed before any of
// them and a claimed chunk runs to completion, so it is certain to run, and
// the claims cannot run past the last repetition before it lands.
func TestMapCancel(t *testing.T) {
	for _, par := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		out, err := collect(ctx, Plan{Count: 5000, Parallelism: par}, xrand.New(3), func(rep int, rng *xrand.RNG) (int, error) {
			if rep == 50 {
				cancel()
			}
			if rep > 50 {
				<-ctx.Done()
			}
			return rep, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("par=%d: got %v, want context.Canceled", par, err)
		}
		if out != nil {
			t.Fatalf("par=%d: cancelled run returned results", par)
		}
	}
}

// TestMapPreCancelled: a context cancelled before the run claims nothing and
// returns the context error.
func TestMapPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := collect(ctx, Plan{Count: 16, Parallelism: 4}, xrand.New(4), func(rep int, rng *xrand.RNG) (int, error) {
		ran.Add(1)
		return rep, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("pre-cancelled run executed %d repetitions", n)
	}
}

// TestCancelDrainsBase: even a cancelled run advances the base generator
// exactly reps draws, so callers threading one generator through a sequence
// of batches stay deterministic whether or not a batch was cancelled — and
// the same holds when a repetition error and a cancellation race, where the
// error return path must still drain the claims the cancellation stopped.
//
// In the cancel-only case, repetitions after the cancelling rep 20 wait for
// the cancellation, which rep 20 is certain to deliver, so the run cannot
// finish before it lands. The error case must not wait: rep 10's failure
// aborts the run, and rep 20, in the same chunk, may never run.
func TestCancelDrainsBase(t *testing.T) {
	const reps = 200
	cases := map[string]struct {
		fail int // the failing repetition, or -1
		wait bool
	}{
		"cancel only":       {fail: -1, wait: true},
		"error then cancel": {fail: 10},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			base := xrand.New(7)
			_, err := collect(ctx, Plan{Count: reps, Parallelism: 4}, base, func(rep int, rng *xrand.RNG) (int, error) {
				if rep == 20 {
					cancel()
				}
				if tc.wait && rep > 20 {
					<-ctx.Done()
				}
				if rep == tc.fail {
					return 0, errors.New("boom")
				}
				return rep, nil
			})
			if err == nil {
				t.Fatal("run reported no error")
			}
			ref := xrand.New(7)
			for i := 0; i < reps; i++ {
				ref.Uint64()
			}
			if got, want := base.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("base generator not drained to the post-batch state: next draw %d, want %d", got, want)
			}
		})
	}
}

// TestRepErrorBeatsCancel: when a repetition fails and the run is also
// cancelled, the deterministic lowest-rep error contract wins for errors that
// happened before cancellation stopped the claims.
func TestRepErrorBeatsCancel(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := Run(ctx, Plan{Count: 1000, Parallelism: 4}, xrand.New(5), noLocal,
		func(rep int, rng *xrand.RNG, _ struct{}) (int, error) {
			if rep == 10 {
				return 0, boom
			}
			return rep, nil
		},
		func(rep int, v int) error {
			if rep == 5 {
				cancel()
			}
			return nil
		})
	var re *RepError
	if !errors.As(err, &re) || re.Rep != 10 {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want rep-10 RepError or context.Canceled", err)
		}
	}
}
