package sim

import (
	"errors"

	"dynamicrumor/internal/dynamic"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

// ErrInvalidStart is returned when the start vertex is out of range.
var ErrInvalidStart = errors.New("sim: start vertex out of range")

// AsyncOptions configures the asynchronous simulator.
type AsyncOptions struct {
	// Start is the initially informed vertex.
	Start int
	// Mode selects push-pull (default), push-only or pull-only transfer.
	Mode Mode
	// ClockRate is the Poisson rate of every vertex's clock; 0 means 1, the
	// paper's standard model. The asynchronous "2-push" coupling of Section 4
	// corresponds to Mode PushOnly with ClockRate 2.
	ClockRate float64
	// MaxTime aborts the run once simulated time exceeds it (0 means the
	// generous default 16·n², beyond the paper's worst-case O(n²) bound).
	MaxTime float64
	// RecordTrace stores a TracePoint per newly informed vertex.
	RecordTrace bool
	// StreamVersion selects the sampling discipline: 0 or StreamV1 is the
	// frozen seed-compatible v1 stream (Fenwick sampling, scalar variates);
	// StreamV2 is the opt-in fast discipline (alias-snapshot rejection
	// sampling, batched variates). v2 simulates the identical process law but
	// consumes a different random stream, so its results are statistically
	// equivalent — not byte-identical — to v1; see internal/statcheck.
	StreamVersion int
}

// RunAsync simulates the asynchronous rumor-spreading process on a dynamic
// network. The simulation is exact: within a unit interval the graph is
// fixed, every vertex holds an independent Poisson clock and contacts a
// uniformly random neighbor on each tick; only informative contacts change
// state, so the simulator samples the next informative contact directly from
// the aggregate informative-contact rate (the λ(τ) of Equation 1), which by
// the memorylessness of exponential clocks has the same law as simulating
// every tick.
func RunAsync(net dynamic.Network, opts AsyncOptions, rng *xrand.RNG) (*Result, error) {
	return RunAsyncInto(net, opts, rng, nil, nil)
}

// RunAsyncInto is RunAsync with recycled state: sc provides the simulator's
// working arrays and res the result to fill (either may be nil, in which
// case a fresh one is used). The run consumes exactly the same random stream
// and produces exactly the same result as RunAsync; with both arguments
// recycled the steady-state loop performs zero heap allocations (traces
// reuse the result's backing array once it has grown).
func RunAsyncInto(net dynamic.Network, opts AsyncOptions, rng *xrand.RNG, sc *Scratch, res *Result) (*Result, error) {
	if opts.StreamVersion >= StreamV2 {
		return runAsyncV2Into(net, opts, rng, sc, res)
	}
	n := net.N()
	if opts.Start < 0 || opts.Start >= n {
		return nil, ErrInvalidStart
	}
	if res == nil {
		res = &Result{}
	}
	if n == 0 {
		res.reset(0)
		res.Informed = 0
		res.Completed = true
		return res, nil
	}
	mode := opts.Mode.normalize()
	clockRate := opts.ClockRate
	if clockRate <= 0 {
		clockRate = 1
	}
	maxTime := opts.MaxTime
	if maxTime <= 0 {
		maxTime = 16 * float64(n) * float64(n)
	}
	if sc == nil {
		sc = NewScratch()
	}

	st := &sc.async
	st.prepare(n, mode, clockRate)
	st.informed[opts.Start] = true
	res.reset(n)
	if opts.RecordTrace {
		res.Trace = append(res.Trace, TracePoint{Time: 0, Informed: 1})
	}

	now := 0.0
	step := 0
	g := net.GraphAt(step, st.informed)
	st.loadGraph(g)

	for res.Informed < n {
		if now >= maxTime {
			res.SpreadTime = now
			return res, nil
		}
		boundary := float64(step + 1)
		// An interval ends without an informative contact when the aggregate
		// rate is zero (the exposed graph disconnects informed from
		// uninformed vertices), when the sampled waiting time overshoots the
		// unit boundary, or when rounding empties the cut; in each case the
		// clock jumps to the boundary and the next graph is exposed. If the
		// dynamic network returns the same *graph.Graph the incremental
		// state is still valid and the O(n+m) reload is skipped.
		advance := false
		total := st.weights.Total()
		if total <= 0 {
			advance = true
		} else {
			wait := rng.Exp(total)
			if now+wait >= boundary {
				advance = true
			} else {
				now += wait
				v := st.sampleNewlyInformed(rng, total)
				if v < 0 {
					// Numerically empty cut; treat like a zero-rate interval.
					advance = true
				} else {
					st.inform(v)
					res.Informed++
					res.Events++
					if opts.RecordTrace {
						res.Trace = append(res.Trace, TracePoint{Time: now, Informed: res.Informed})
					}
					continue
				}
			}
		}
		if advance {
			now = boundary
			step++
			res.Steps++
			next := net.GraphAt(step, st.informed)
			if next != g {
				g = next
				st.loadGraph(g)
			}
		}
	}
	res.SpreadTime = now
	res.Completed = true
	return res, nil
}

// asyncState holds the incremental bookkeeping of the cut-rate simulator.
//
// For every vertex it maintains an "informative rate":
//   - an informed vertex u contributes pushRate(u) = rate·(#uninformed
//     neighbors of u)/deg(u) when pushing is allowed;
//   - an uninformed vertex v contributes pullRate(v) = rate·(#informed
//     neighbors of v)/deg(v) when pulling is allowed.
//
// The sum of these weights is exactly λ(τ) of Equation (1) (for the standard
// push-pull with rate 1), and sampling a vertex proportionally to its weight
// followed by the appropriate neighbor choice reproduces the law of the next
// informative contact.
type asyncState struct {
	n        int
	mode     Mode
	rate     float64
	informed []bool
	g        *graph.Graph
	// counts[v] is the number of uninformed neighbors if v is informed, and
	// the number of informed neighbors if v is uninformed.
	counts  []int
	weights fenwick
}

// prepare re-targets the state to a run on n vertices, recycling every
// backing array.
func (st *asyncState) prepare(n int, mode Mode, rate float64) {
	st.n = n
	st.mode = mode
	st.rate = rate
	st.g = nil
	st.informed = growBools(st.informed, n)
	st.counts = growInts(st.counts, n)
	st.weights.Resize(n)
}

// loadGraph recomputes all counts and weights for a freshly exposed graph.
// The fused pass is bit-identical to the straightforward
// Reset-then-Set-per-vertex rebuild: weights are accumulated into the
// Fenwick tree in the same ascending vertex order (see fenwick.Add), the
// weight formula is vertexWeight inlined, and zero weights touch nothing —
// the pass only avoids the per-neighbor closure and the Set delta
// bookkeeping, which dominate graph reloads on rebuilding dynamic networks.
func (st *asyncState) loadGraph(g *graph.Graph) {
	st.g = g
	st.weights.Reset()
	informed := st.informed
	mode, rate := st.mode, st.rate
	for v := 0; v < st.n; v++ {
		cnt := 0
		inf := informed[v]
		nb := g.Neighbors(v)
		for _, u := range nb {
			if informed[u] != inf {
				cnt++
			}
		}
		st.counts[v] = cnt
		if cnt == 0 {
			continue
		}
		if inf {
			if mode == PullOnly {
				continue
			}
		} else if mode == PushOnly {
			continue
		}
		st.weights.Add(v, rate*float64(cnt)/float64(len(nb)))
	}
}

// vertexWeight returns the informative-contact rate contributed by v.
func (st *asyncState) vertexWeight(v int) float64 {
	d := st.g.Degree(v)
	if d == 0 || st.counts[v] == 0 {
		return 0
	}
	if st.informed[v] {
		if st.mode == PullOnly {
			return 0
		}
	} else {
		if st.mode == PushOnly {
			return 0
		}
	}
	return st.rate * float64(st.counts[v]) / float64(d)
}

// sampleNewlyInformed draws the vertex that becomes informed by the next
// informative contact. total must be the current weights.Total(), which the
// simulate loop has already computed for the waiting-time draw. It returns
// -1 if no contact is possible.
func (st *asyncState) sampleNewlyInformed(rng *xrand.RNG, total float64) int {
	if total <= 0 {
		return -1
	}
	x := st.weights.Sample(rng.Float64() * total)
	if x < 0 {
		return -1
	}
	if !st.informed[x] {
		// x pulled the rumor from one of its informed neighbors.
		return x
	}
	// x pushed the rumor to a uniformly random uninformed neighbor.
	target := rng.Intn(st.counts[x])
	seen := 0
	for _, u := range st.g.Neighbors(x) {
		if !st.informed[u] {
			if seen == target {
				return int(u)
			}
			seen++
		}
	}
	return -1
}

// inform marks v as informed and updates all incremental structures.
func (st *asyncState) inform(v int) {
	if st.informed[v] {
		return
	}
	st.informed[v] = true
	// v's own count switches meaning: it now counts uninformed neighbors.
	nb := st.g.Neighbors(v)
	cnt := 0
	for _, u := range nb {
		if !st.informed[u] {
			cnt++
		}
	}
	st.counts[v] = cnt
	st.weights.Set(v, st.vertexWeight(v))
	// Every neighbor's count changes by one. The weight formula is
	// vertexWeight inlined, minus the degree-zero branch (a neighbor has
	// degree >= 1 by construction); the informing of a hub vertex updates
	// every leaf here, so this loop is the hottest edge of the simulator.
	mode, rate := st.mode, st.rate
	for _, u := range nb {
		cu := st.counts[u]
		inf := st.informed[u]
		if inf {
			// u lost an uninformed neighbor.
			cu--
		} else {
			// u gained an informed neighbor.
			cu++
		}
		st.counts[u] = cu
		var w float64
		if cu != 0 {
			if inf {
				if mode != PullOnly {
					w = rate * float64(cu) / float64(st.g.Degree(int(u)))
				}
			} else if mode != PushOnly {
				w = rate * float64(cu) / float64(st.g.Degree(int(u)))
			}
		}
		st.weights.Set(int(u), w)
	}
}
