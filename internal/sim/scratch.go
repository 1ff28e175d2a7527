package sim

// Scratch holds the reusable per-worker state of the simulators: the
// asynchronous cut-rate bookkeeping (informed set, neighbor counts, Fenwick
// tree) and the synchronous round buffers. A single Scratch serves runs of
// any vertex count — the backing arrays grow to the largest n seen and are
// then recycled — so a Monte-Carlo worker carries one Scratch across all of
// its repetitions and the simulate loop stops allocating in steady state.
//
// A Scratch must not be shared between concurrent runs; the runner hands each
// worker goroutine its own (see runner.Run's per-worker local state, which
// the engine uses for exactly this).
// All Run*Into entry points accept a nil Scratch and fall back to a
// throwaway one, which is exactly what the historical RunAsync/RunSync/
// RunFlooding wrappers do.
type Scratch struct {
	async    asyncState
	asyncV2  asyncStateV2 // v2 stream discipline (AsyncOptions.StreamVersion)
	informed []bool       // synchronous informed set
	next     []bool       // synchronous next-round buffer
	frontier []int        // flooding: vertices informed in the previous round
	spread   []int        // flooding: vertices informed in the current round
}

// frontierBuffers returns the emptied (frontier, spread) vertex lists for the
// flooding simulator, reusing their capacity.
func (sc *Scratch) frontierBuffers() (frontier, spread []int) {
	return sc.frontier[:0], sc.spread[:0]
}

// NewScratch returns an empty scratch; arrays are sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

// syncBuffers returns the zeroed (informed, next) round buffers for a run on
// n vertices.
func (sc *Scratch) syncBuffers(n int) (informed, next []bool) {
	return sc.informedBuffer(n), sc.nextBuffer(n)
}

// informedBuffer returns the zeroed informed set for a run on n vertices.
// Flooding uses only this one — its frontier rewrite has no next-round
// buffer, so preparing one would be an O(n) clear per repetition for
// nothing.
func (sc *Scratch) informedBuffer(n int) []bool {
	sc.informed = growBools(sc.informed, n)
	return sc.informed
}

// nextBuffer returns the zeroed next-round buffer for a run on n vertices.
func (sc *Scratch) nextBuffer(n int) []bool {
	sc.next = growBools(sc.next, n)
	return sc.next
}

// growBools returns s resized to length n with every entry false, reusing
// capacity when possible.
func growBools(s []bool, n int) []bool {
	if cap(s) >= n {
		s = s[:n]
	} else {
		s = make([]bool, n)
	}
	for i := range s {
		s[i] = false
	}
	return s
}

// growInts returns s resized to length n, reusing capacity when possible.
// Contents are unspecified — stale entries from a previous run survive on
// the reuse path; callers must overwrite every entry before reading.
func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

// reset re-initializes a Result for a fresh run on n vertices, recycling the
// trace backing array.
func (r *Result) reset(n int) {
	trace := r.Trace[:0]
	*r = Result{N: n, Informed: 1, Trace: trace}
}
