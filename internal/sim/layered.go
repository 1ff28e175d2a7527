package sim

import (
	"errors"

	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/xrand"
)

// ErrBadLayers is returned when the layer description passed to the layered
// push simulators is inconsistent with the graph.
var ErrBadLayers = errors.New("sim: invalid layer description")

// LayeredOptions configures the coupling algorithms of Section 4 (Lemma 4.2):
// the asynchronous 2-push and the forward 2-push processes running on a
// "string of complete bipartite graphs" S_0 - S_1 - ... - S_k.
type LayeredOptions struct {
	// Layers lists the vertices of S_0..S_k. Every listed vertex must exist
	// in the graph; vertices outside the layers are ignored by the forward
	// process.
	Layers [][]int
	// ClockRate is the per-vertex clock rate (the paper uses 2). 0 means 2.
	ClockRate float64
	// Horizon is the simulated time budget (the paper analyses one unit of
	// time). 0 means 1.
	Horizon float64
}

// LayeredResult reports the outcome of a layered push run.
type LayeredResult struct {
	// InformedPerLayer[i] is the number of informed vertices of layer i at
	// the end of the horizon.
	InformedPerLayer []int
	// ReachedLast is true if any vertex of the last layer became informed.
	ReachedLast bool
	// FirstReachTime is the time at which the last layer was first reached
	// (meaningful only when ReachedLast is true).
	FirstReachTime float64
}

// RunForwardTwoPush simulates the "forward 2-push" coupling of Lemma 4.2:
// every vertex of S_0..S_{k-1} carries an exponential clock of rate
// ClockRate; when the clock of an informed vertex of S_i rings it pushes the
// rumor to a uniformly random neighbor in S_{i+1}. All of S_0 starts
// informed. The run stops at the horizon.
//
// The paper proves E[I(1, k)] <= 2^k/k! · Δ for this process, which upper
// bounds the probability that the original algorithm crosses the whole string
// within one time unit (Claim 4.3); experiment E12 validates that bound.
func RunForwardTwoPush(g *graph.Graph, opts LayeredOptions, rng *xrand.RNG) (*LayeredResult, error) {
	layers, _, err := checkLayers(g, opts.Layers)
	if err != nil {
		return nil, err
	}
	rate := opts.ClockRate
	if rate <= 0 {
		rate = 2
	}
	horizon := opts.Horizon
	if horizon <= 0 {
		horizon = 1
	}

	k := len(layers) - 1
	informed := make(map[int]bool, len(layers[0]))
	informedPerLayer := make([]int, len(layers))
	for _, v := range layers[0] {
		informed[v] = true
	}
	informedPerLayer[0] = len(layers[0])

	res := &LayeredResult{}
	// Event-driven simulation over the informed vertices only: the aggregate
	// informative rate from layer i is rate · informed(i) · (fraction of
	// S_{i+1} neighbors that are uninformed is handled per push, uninformative
	// pushes are kept because the target is chosen uniformly from S_{i+1}).
	now := 0.0
	for {
		totalRate := 0.0
		for i := 0; i < k; i++ {
			totalRate += rate * float64(informedPerLayer[i])
		}
		if totalRate <= 0 {
			break
		}
		now += rng.Exp(totalRate)
		if now > horizon {
			break
		}
		// Pick the pushing layer proportionally to its informed count, then a
		// uniformly random informed vertex of that layer, then a uniformly
		// random neighbor in the next layer.
		target := rng.Float64() * totalRate
		layer := 0
		for ; layer < k; layer++ {
			w := rate * float64(informedPerLayer[layer])
			if target < w {
				break
			}
			target -= w
		}
		if layer >= k {
			layer = k - 1
		}
		next := layers[layer+1]
		dst := next[rng.Intn(len(next))]
		if !informed[dst] {
			informed[dst] = true
			informedPerLayer[layer+1]++
			if layer+1 == k && !res.ReachedLast {
				res.ReachedLast = true
				res.FirstReachTime = now
			}
		}
	}
	res.InformedPerLayer = informedPerLayer
	return res, nil
}

// RunTwoPushOnLayers simulates the plain asynchronous 2-push of Lemma 4.2 on
// the subgraph induced by the layers: every vertex of every layer has a clock
// of rate ClockRate and, when informed, pushes to a uniformly random neighbor
// (restricted to vertices that belong to some layer). All of S_0 starts
// informed. Claim 4.3 states that the forward 2-push reaches the last layer
// at least as often; experiment E12 checks that ordering empirically.
func RunTwoPushOnLayers(g *graph.Graph, opts LayeredOptions, rng *xrand.RNG) (*LayeredResult, error) {
	layers, layerOf, err := checkLayers(g, opts.Layers)
	if err != nil {
		return nil, err
	}
	rate := opts.ClockRate
	if rate <= 0 {
		rate = 2
	}
	horizon := opts.Horizon
	if horizon <= 0 {
		horizon = 1
	}
	k := len(layers) - 1

	// Precompute the layer-restricted adjacency once (a CSR over the graph's
	// vertex ids, preserving neighbor order) instead of re-filtering and
	// re-allocating a candidate slice on every push event: pushes are the hot
	// loop and the filter result never changes.
	layerIndex := make([]int, g.N())
	for v := range layerIndex {
		layerIndex[v] = -1
	}
	for v, i := range layerOf {
		layerIndex[v] = i
	}
	candOff := make([]int, g.N()+1)
	for v := 0; v < g.N(); v++ {
		cnt := 0
		if layerIndex[v] >= 0 {
			for _, u := range g.Neighbors(v) {
				if layerIndex[u] >= 0 {
					cnt++
				}
			}
		}
		candOff[v+1] = candOff[v] + cnt
	}
	cands := make([]int, candOff[g.N()])
	for v := 0; v < g.N(); v++ {
		if layerIndex[v] < 0 {
			continue
		}
		fill := candOff[v]
		for _, u := range g.Neighbors(v) {
			if layerIndex[u] >= 0 {
				cands[fill] = int(u)
				fill++
			}
		}
	}

	informed := make([]bool, g.N())
	var informedList []int
	for _, v := range layers[0] {
		informed[v] = true
		informedList = append(informedList, v)
	}
	res := &LayeredResult{InformedPerLayer: make([]int, len(layers))}
	res.InformedPerLayer[0] = len(layers[0])

	now := 0.0
	for {
		totalRate := rate * float64(len(informedList))
		if totalRate <= 0 {
			break
		}
		now += rng.Exp(totalRate)
		if now > horizon {
			break
		}
		src := informedList[rng.Intn(len(informedList))]
		// Push to a uniformly random neighbor that belongs to a layer.
		candidates := cands[candOff[src]:candOff[src+1]]
		if len(candidates) == 0 {
			continue
		}
		dst := candidates[rng.Intn(len(candidates))]
		if !informed[dst] {
			informed[dst] = true
			informedList = append(informedList, dst)
			li := layerIndex[dst]
			res.InformedPerLayer[li]++
			if li == k && !res.ReachedLast {
				res.ReachedLast = true
				res.FirstReachTime = now
			}
		}
	}
	return res, nil
}

// checkLayers validates the layer description and returns the layers plus a
// vertex-to-layer index.
func checkLayers(g *graph.Graph, layers [][]int) ([][]int, map[int]int, error) {
	if len(layers) < 2 {
		return nil, nil, ErrBadLayers
	}
	layerOf := make(map[int]int)
	for i, layer := range layers {
		if len(layer) == 0 {
			return nil, nil, ErrBadLayers
		}
		for _, v := range layer {
			if v < 0 || v >= g.N() {
				return nil, nil, ErrBadLayers
			}
			if _, dup := layerOf[v]; dup {
				return nil, nil, ErrBadLayers
			}
			layerOf[v] = i
		}
	}
	return layers, layerOf, nil
}
