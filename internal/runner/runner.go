// Package runner executes independent Monte-Carlo repetitions across a pool
// of worker goroutines.
//
// Every repetition receives its own deterministic RNG stream, derived from a
// single base generator by splitting serially in repetition order (see
// Streams). Because a repetition never touches the base generator — only its
// private stream — the results are bit-identical for any worker count and any
// scheduling order, and identical to what the historical serial loops
// produced. This is the determinism contract documented in DESIGN.md:
// parallelism is a pure throughput knob, never an output knob.
//
// Streams are derived lazily, in claim order, under a lock: stream i is
// seeded from the i-th Uint64 draw of the base generator, exactly the value
// Streams would have pre-derived, but without materializing O(reps) RNGs.
// Workers receive their stream in a per-worker reusable RNG value, so the
// fan-out itself allocates nothing per repetition.
//
// Claims are batched: a worker claims a chunk of consecutive repetitions per
// lock acquisition (Plan.ChunkSize, automatic by default) and hands the whole
// chunk to the reducer in one condvar turn. Chunking never changes outputs —
// the claimed set is still a sequential prefix and streams are still derived
// in repetition order — it only divides the per-repetition synchronization
// cost by the chunk size.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"dynamicrumor/internal/xrand"
)

// Parallelism normalizes a worker-count knob: values <= 0 select
// runtime.GOMAXPROCS(0), everything else is returned unchanged.
func Parallelism(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// Plan describes one run: which repetitions to execute and the two
// execution-policy knobs. Neither knob ever changes outputs — both are pure
// throughput controls.
type Plan struct {
	// Start and Count select the repetition range [Start, Start+Count) of a
	// larger deterministic sequence. A whole run is Start 0, Count reps.
	Start, Count int
	// Parallelism is the worker goroutine count (<= 0 means GOMAXPROCS).
	Parallelism int
	// ChunkSize is the number of consecutive repetitions a worker claims per
	// lock acquisition and reduces per condvar turn (<= 0 selects an automatic
	// size, see ChunkFor). Larger chunks amortize synchronization; smaller
	// chunks balance load. ChunkSize 1 reproduces the historical per-repetition
	// claiming exactly.
	ChunkSize int
}

// maxAutoChunk caps the automatic chunk size: past this point the remaining
// synchronization cost is negligible and bigger chunks only hurt load balance
// and per-worker value buffering.
const maxAutoChunk = 64

// ChunkFor returns the effective chunk size for a run: chunkSize when
// positive, otherwise an automatic size that gives every worker several
// claims for load balance (reps / (2·workers), clamped to [1, 64]; serial
// runs always claim one repetition at a time). Callers that buffer one value
// slot per in-flight repetition (see Reducer) size their buffers with it.
func ChunkFor(chunkSize, reps, parallelism int) int {
	workers := Parallelism(parallelism)
	if workers > reps {
		workers = reps
	}
	return effectiveChunk(chunkSize, reps, workers)
}

func effectiveChunk(chunkSize, reps, workers int) int {
	if chunkSize > 0 {
		return chunkSize
	}
	if workers <= 1 {
		// The serial loops claim per repetition: the lock is uncontended and
		// per-rep claiming keeps cancellation at its historical granularity.
		return 1
	}
	c := reps / (2 * workers)
	if c < 1 {
		c = 1
	}
	if c > maxAutoChunk {
		c = maxAutoChunk
	}
	return c
}

// RepError reports the failure of a single repetition, identifying which one
// failed so that deterministic reruns can reproduce it.
type RepError struct {
	// Rep is the zero-based index of the failed repetition.
	Rep int
	// Err is the underlying failure.
	Err error
}

// Error implements the error interface.
func (e *RepError) Error() string { return fmt.Sprintf("runner: rep %d: %v", e.Rep, e.Err) }

// Unwrap returns the underlying repetition failure.
func (e *RepError) Unwrap() error { return e.Err }

// Streams derives reps private RNG streams from base by splitting serially in
// repetition order: stream i is base.Split(i+1). This matches the labeling
// convention of the historical serial loops, so parallel runs reproduce the
// exact bit patterns of serial runs. The base generator is advanced reps
// times and must not be used concurrently with this call.
func Streams(base *xrand.RNG, reps int) []*xrand.RNG {
	streams := make([]*xrand.RNG, reps)
	for i := range streams {
		streams[i] = base.Split(uint64(i) + 1)
	}
	return streams
}

// streamSource hands out (repetition, stream) pairs in chunks. Claims are
// serialized under the mutex in increasing repetition order, so the i-th
// Uint64 drawn from the base generator always seeds stream i — the exact
// derivation Streams performs eagerly. It stops handing out repetitions once
// aborted or once the run's context is cancelled; because claims are
// sequential, the set of claimed repetitions is always a prefix of the range.
type streamSource struct {
	ctx  context.Context
	mu   sync.Mutex
	base *xrand.RNG
	// first is the global index of the source's first repetition: the source
	// hands out [first, first+reps) with stream labels derived from the global
	// index, so a range produces exactly the streams a full run would give
	// those repetitions.
	first   int
	next    int
	reps    int
	aborted bool
}

// claimChunk derives up to len(dst) consecutive repetition streams into dst
// and returns the first claimed index plus the claimed count (count == 0 when
// the repetitions are exhausted, the run was aborted, or the context was
// cancelled). The streams are derived in repetition order under the lock, so
// every chunk size produces the identical stream-to-repetition mapping — a
// chunk is just several one-repetition claims for one lock acquisition.
// Cancellation is observed only here — between chunks — so a claimed chunk
// always runs to completion and always takes its full reduction turn.
func (s *streamSource) claimChunk(dst []xrand.RNG) (start, count int) {
	s.mu.Lock()
	if s.aborted || s.next >= s.reps {
		s.mu.Unlock()
		return 0, 0
	}
	if s.ctx.Err() != nil {
		s.aborted = true
		s.mu.Unlock()
		return 0, 0
	}
	start = s.first + s.next
	count = len(dst)
	if rem := s.reps - s.next; count > rem {
		count = rem
	}
	for j := 0; j < count; j++ {
		s.base.SplitInto(uint64(start+j)+1, &dst[j])
	}
	s.next += count
	s.mu.Unlock()
	return start, count
}

// cancelErr is the shared cancellation epilogue: it returns ctx.Err() when
// the run was cut short — some repetition was never claimed — and nil when
// every repetition had been claimed before the cancellation landed (the run
// finished). It must run before drain, which advances next to reps.
func (s *streamSource) cancelErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ctx.Err(); err != nil && s.next < s.reps {
		return err
	}
	return nil
}

// abort stops further claims; in-flight repetitions still complete.
func (s *streamSource) abort() {
	s.mu.Lock()
	s.aborted = true
	s.mu.Unlock()
}

// drain advances the base generator past every unclaimed repetition, so the
// base ends in the same state regardless of how the run terminated.
func (s *streamSource) drain() {
	s.mu.Lock()
	for ; s.next < s.reps; s.next++ {
		s.base.Uint64()
	}
	s.mu.Unlock()
}

// LocalJob is one Monte-Carlo repetition. It receives the repetition index, a
// private RNG stream derived from the run's base generator, and a
// worker-local state L (a scratch buffer pool, a reusable simulator state,
// ...). The state is shared by every repetition the same worker executes but
// never by two concurrent repetitions, so it may be mutated freely; it must
// not influence results — it is a recycling vehicle, not an input. A job must
// not retain the rng after returning: the runner recycles the RNG value for
// the worker's next repetition.
type LocalJob[T, L any] func(rep int, rng *xrand.RNG, local L) (T, error)

// Reducer consumes one repetition's value. Run calls it in strict repetition
// order (Start, Start+1, ...), exactly once per repetition, and never
// concurrently, so a reducer needs no locking and may fold values into plain
// accumulators — or store them by index to collect the whole range. The value
// (and anything it points to) is only guaranteed valid for the duration of
// the call: workers recycle their result storage as soon as their chunk has
// been reduced. A job that hands out pointers to worker-local storage must
// therefore keep one distinct value slot per repetition of a chunk — ChunkFor
// reports how many that is — because a worker computes its whole chunk
// before any of it is reduced.
type Reducer[T any] func(rep int, v T) error

// Run executes the repetitions [p.Start, p.Start+p.Count) of a deterministic
// sequence across a pool of p.Parallelism workers and streams their values
// into reduce: memory stays O(workers × chunk) regardless of the count.
// newLocal is invoked once per worker goroutine (once total in the serial
// case) and its state is threaded through every repetition that worker
// executes.
//
// Streams: fn and reduce receive global repetition indices, and repetition i
// gets exactly the stream a whole run from 0 gives it — base.Split(i+1) after
// i earlier draws, the labeling of Streams — whatever the range, parallelism
// or chunk size. That is what lets a distributed run shard [0, reps) into
// ranges, execute them on independent processes from nothing but (seed,
// start, count), and merge the partial results into a bit-identical whole
// (see internal/cluster). base must be positioned where a whole run would
// start; Run advances it past the Start earlier repetitions first (one
// Uint64 draw each) and ends with it advanced Start+Count draws, even when
// the run fails or is cancelled, so callers threading one generator through
// a sequence of runs stay deterministic. It must not be used concurrently
// with the call.
//
// Ordering: workers compute concurrently, but each takes a turn — in
// repetition order — to hand its claimed chunk to reduce. Within a turn the
// chunk's values are reduced in repetition order, so the reducer sees exactly
// the sequence Start, Start+1, ... A worker claims its next chunk only after
// its previous chunk has been reduced, which is what makes recycled result
// storage safe and bounds in-flight values by workers × chunk size.
//
// Errors: the first failure in repetition order (from the job or the
// reducer) aborts the run — no later repetition is reduced, workers stop
// claiming new repetitions, and the failure is returned; a job failure is
// wrapped in a *RepError naming the repetition, a reducer failure is returned
// unwrapped. Which error is returned is deterministic regardless of
// parallelism and chunking: turns execute in repetition order, a worker stops
// computing its chunk at its first failure, and every repetition before the
// failure was reduced.
//
// Cancelling ctx stops the run at the next chunk boundary and returns
// ctx.Err() once every in-flight repetition has been reduced (unless every
// repetition had already been claimed, in which case the run finishes
// normally). Cancellation can never deadlock the turn-taking: it is observed
// only in claimChunk, before a repetition exists, so every claimed chunk runs
// to completion and takes its full reduction turn — the claimed set is a
// prefix, each claimed chunk advances the turn by exactly its claimed count,
// and the turn therefore reaches the claimed frontier and releases every
// waiting worker. A worker must not bail out between claimChunk and takeTurn
// for exactly this reason: an abandoned claimed chunk would strand every
// later chunk's worker in cond.Wait. A run whose context is never cancelled
// pays one atomic load per claim and nothing else.
func Run[T, L any](ctx context.Context, p Plan, base *xrand.RNG, newLocal func() L, fn LocalJob[T, L], reduce Reducer[T]) error {
	if p.Start < 0 {
		return fmt.Errorf("runner: negative range start %d", p.Start)
	}
	for i := 0; i < p.Start; i++ {
		base.Uint64()
	}
	reps := p.Count
	if reps <= 0 {
		return nil
	}
	src := &streamSource{ctx: ctx, base: base, first: p.Start, reps: reps}
	defer src.drain()

	workers := Parallelism(p.Parallelism)
	if workers > reps {
		workers = reps
	}
	if workers == 1 {
		local := newLocal()
		rng := make([]xrand.RNG, 1)
		for {
			i, n := src.claimChunk(rng)
			if n == 0 {
				return src.cancelErr()
			}
			v, err := fn(i, &rng[0], local)
			if err != nil {
				return &RepError{Rep: i, Err: err}
			}
			if err := reduce(i, v); err != nil {
				return err
			}
		}
	}

	chunk := effectiveChunk(p.ChunkSize, reps, workers)

	// turn serializes the reducer: a worker holding the chunk starting at
	// repetition i waits until every repetition < i has been reduced, reduces
	// its whole chunk, then advances the turn by the chunk's claimed count.
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		turn     = p.Start
		firstErr error
	)
	// takeTurn reduces one claimed chunk [start, start+count): vals[0..n) are
	// the values of the chunk's first n repetitions and jobErr, when non-nil,
	// is the failure of repetition start+n (the worker stops computing a chunk
	// at its first failure, so nothing after it exists). The turn advances by
	// the full claimed count even when the chunk failed or was skipped after
	// an abort — every claimed repetition must advance the turn exactly once
	// or later chunks would wait forever.
	takeTurn := func(start, count int, vals []T, n int, jobErr error) {
		mu.Lock()
		for turn != start {
			cond.Wait()
		}
		if firstErr == nil {
			for j := 0; j < n; j++ {
				if err := reduce(start+j, vals[j]); err != nil {
					firstErr = err
					break
				}
			}
			if firstErr == nil && jobErr != nil {
				firstErr = &RepError{Rep: start + n, Err: jobErr}
			}
			if firstErr != nil {
				src.abort()
			}
		}
		turn += count
		cond.Broadcast()
		mu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			local := newLocal()
			rngs := make([]xrand.RNG, chunk)
			vals := make([]T, chunk)
			for {
				start, count := src.claimChunk(rngs)
				if count == 0 {
					return
				}
				n := 0
				var jobErr error
				for ; n < count; n++ {
					v, err := fn(start+n, &rngs[n], local)
					if err != nil {
						jobErr = err
						break
					}
					vals[n] = v
				}
				takeTurn(start, count, vals, n, jobErr)
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = src.cancelErr()
	}
	return firstErr
}
