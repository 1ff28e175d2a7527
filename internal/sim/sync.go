package sim

import (
	"dynamicrumor/internal/dynamic"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

// SyncOptions configures the synchronous round-based simulators.
type SyncOptions struct {
	// Start is the initially informed vertex.
	Start int
	// Mode selects push-pull (default), push-only or pull-only exchanges.
	Mode Mode
	// MaxRounds aborts the run after this many rounds (0 means 16·n²).
	MaxRounds int
	// RecordTrace stores one TracePoint per round in which the informed set
	// grew.
	RecordTrace bool
}

// RunSync simulates the synchronous rumor-spreading algorithm: in every round
// each vertex contacts a uniformly random neighbor in the current graph, and
// exchanges are evaluated against the informed set from the beginning of the
// round (so a vertex informed in round t starts spreading in round t+1).
// The network's step counter coincides with the round number, matching the
// paper's convention that the synchronous algorithm is synchronized with the
// network dynamics.
func RunSync(net dynamic.Network, opts SyncOptions, rng *xrand.RNG) (*Result, error) {
	return RunSyncInto(net, opts, rng, nil, nil)
}

// RunSyncInto is RunSync with recycled round buffers and result (either may
// be nil for a fresh one); stream and output are identical to RunSync.
func RunSyncInto(net dynamic.Network, opts SyncOptions, rng *xrand.RNG, sc *Scratch, res *Result) (*Result, error) {
	n := net.N()
	if opts.Start < 0 || opts.Start >= n {
		return nil, ErrInvalidStart
	}
	mode := opts.Mode.normalize()
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 16 * n * n
	}
	if sc == nil {
		sc = NewScratch()
	}
	if res == nil {
		res = &Result{}
	}

	informed, next := sc.syncBuffers(n)
	informed[opts.Start] = true
	res.reset(n)
	if opts.RecordTrace {
		res.Trace = append(res.Trace, TracePoint{Time: 0, Informed: 1})
	}
	if n == 1 {
		res.Completed = true
		return res, nil
	}

	for round := 0; round < maxRounds; round++ {
		g := net.GraphAt(round, informed)
		res.Steps++
		copy(next, informed)
		newCount := 0
		for v := 0; v < n; v++ {
			d := g.Degree(v)
			if d == 0 {
				continue
			}
			u := g.Neighbor(v, rng.Intn(d))
			// v calls u: push if v knows the rumor, pull if u knows it,
			// evaluated on the start-of-round informed set.
			if informed[v] && !informed[u] && mode != PullOnly {
				if !next[u] {
					next[u] = true
					newCount++
				}
			}
			if !informed[v] && informed[u] && mode != PushOnly {
				if !next[v] {
					next[v] = true
					newCount++
				}
			}
		}
		copy(informed, next)
		res.Informed += newCount
		res.Events += newCount
		res.SpreadTime = float64(round + 1)
		if opts.RecordTrace && newCount > 0 {
			res.Trace = append(res.Trace, TracePoint{Time: res.SpreadTime, Informed: res.Informed})
		}
		if res.Informed == n {
			res.Completed = true
			return res, nil
		}
	}
	return res, nil
}

// RunFlooding simulates synchronous flooding: in every round each informed
// vertex informs all of its neighbors in the current graph. This is the
// baseline process studied in the related work on Markovian evolving graphs.
func RunFlooding(net dynamic.Network, opts SyncOptions, rng *xrand.RNG) (*Result, error) {
	return RunFloodingInto(net, opts, rng, nil, nil)
}

// RunFloodingInto is RunFlooding with recycled round buffers and result
// (either may be nil for a fresh one).
//
// The scan is frontier-based: in a round whose graph is unchanged from the
// previous round (pointer equality, which the rebuilding dynamic networks
// guarantee is reliable), only the vertices informed in the previous round
// probe their neighbors — an older informed vertex already informed its
// whole neighborhood the round it was on the frontier, so scanning it again
// cannot add anything. When the network exposes a different graph the
// frontier is rebuilt as the full informed set, because any informed vertex
// may have gained uninformed neighbors. Flooding is deterministic and
// consumes no randomness, so the informed set, counts and trace are provably
// identical to the historical scan-everyone loop; only the work changes —
// O(volume of the frontier) instead of O(n + m) per round on static graphs.
func RunFloodingInto(net dynamic.Network, opts SyncOptions, rng *xrand.RNG, sc *Scratch, res *Result) (*Result, error) {
	n := net.N()
	if opts.Start < 0 || opts.Start >= n {
		return nil, ErrInvalidStart
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 16 * n * n
	}
	_ = rng // flooding is deterministic given the network; kept for symmetry
	if sc == nil {
		sc = NewScratch()
	}
	if res == nil {
		res = &Result{}
	}

	informed := sc.informedBuffer(n)
	informed[opts.Start] = true
	res.reset(n)
	if opts.RecordTrace {
		res.Trace = append(res.Trace, TracePoint{Time: 0, Informed: 1})
	}
	if n == 1 {
		res.Completed = true
		return res, nil
	}

	frontier, spread := sc.frontierBuffers()
	frontier = append(frontier, opts.Start)
	var prev *graph.Graph
	for round := 0; round < maxRounds; round++ {
		g := net.GraphAt(round, informed)
		res.Steps++
		if g != prev && round > 0 {
			// New graph: every informed vertex may have new uninformed
			// neighbors, so this round floods from the full informed set.
			frontier = frontier[:0]
			for v := 0; v < n; v++ {
				if informed[v] {
					frontier = append(frontier, v)
				}
			}
		}
		prev = g
		spread = spread[:0]
		for _, v := range frontier {
			for _, u := range g.Neighbors(v) {
				if !informed[u] {
					informed[u] = true
					spread = append(spread, int(u))
				}
			}
		}
		newCount := len(spread)
		frontier, spread = spread, frontier
		res.Informed += newCount
		res.Events += newCount
		res.SpreadTime = float64(round + 1)
		if opts.RecordTrace && newCount > 0 {
			res.Trace = append(res.Trace, TracePoint{Time: res.SpreadTime, Informed: res.Informed})
		}
		if res.Informed == n {
			res.Completed = true
			break
		}
	}
	sc.frontier, sc.spread = frontier, spread
	return res, nil
}
