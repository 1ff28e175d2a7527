package sim

import (
	"container/heap"
	"testing"

	"dynamicrumor/internal/dynamic"
	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/stats"
	"dynamicrumor/internal/xrand"
)

// RunAsyncNaive simulates the asynchronous algorithm by explicitly generating
// every clock tick of every vertex, exactly as in Definition 1: each vertex
// owns an exponential clock (rate opts.ClockRate, default 1) and contacts a
// uniformly random neighbor of the graph exposed at ⌊τ⌋ on each tick.
//
// This test-only oracle is Θ(n · spread time) and exists to cross-validate
// the fast cut-rate simulator (RunAsync) on small instances; they sample the
// same process, so their spread-time distributions must agree.
func RunAsyncNaive(net dynamic.Network, opts AsyncOptions, rng *xrand.RNG) (*Result, error) {
	n := net.N()
	if opts.Start < 0 || opts.Start >= n {
		return nil, ErrInvalidStart
	}
	mode := opts.Mode
	if mode == 0 {
		mode = PushPull
	}
	clockRate := opts.ClockRate
	if clockRate <= 0 {
		clockRate = 1
	}
	maxTime := opts.MaxTime
	if maxTime <= 0 {
		maxTime = 16 * float64(n) * float64(n)
	}

	informed := make([]bool, n)
	informed[opts.Start] = true
	res := &Result{N: n, Informed: 1}
	if opts.RecordTrace {
		res.Trace = append(res.Trace, TracePoint{Time: 0, Informed: 1})
	}
	if n <= 1 {
		res.Completed = true
		return res, nil
	}

	// Schedule the first tick of every vertex. Tick times are continuous, so
	// they never tie and the pop order is fixed by the draws alone.
	q := make(tickQueue, n)
	for v := range q {
		q[v] = tick{at: rng.Exp(clockRate), v: v}
	}
	heap.Init(&q)

	step := 0
	g := net.GraphAt(0, informed)
	for {
		v, at := q[0].v, q[0].at
		if at > maxTime {
			res.SpreadTime = at
			return res, nil
		}
		// Expose all graphs up to ⌊at⌋.
		for float64(step+1) <= at {
			step++
			res.Steps++
			g = net.GraphAt(step, informed)
		}
		// v contacts a uniformly random neighbor.
		if d := g.Degree(v); d > 0 {
			u := g.Neighbor(v, rng.Intn(d))
			transferred := false
			switch {
			case informed[v] && !informed[u] && mode != PullOnly:
				informed[u] = true
				transferred = true
			case !informed[v] && informed[u] && mode != PushOnly:
				informed[v] = true
				transferred = true
			}
			if transferred {
				res.Informed++
				res.Events++
				if opts.RecordTrace {
					res.Trace = append(res.Trace, TracePoint{Time: at, Informed: res.Informed})
				}
				if res.Informed == n {
					res.SpreadTime = at
					res.Completed = true
					return res, nil
				}
			}
		}
		// Reschedule v's next tick in place.
		q[0].at = at + rng.Exp(clockRate)
		heap.Fix(&q, 0)
	}
}

// tick is a vertex's next clock tick.
type tick struct {
	at float64
	v  int
}

// tickQueue is a container/heap min-heap of ticks by time.
type tickQueue []tick

func (q tickQueue) Len() int           { return len(q) }
func (q tickQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q tickQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *tickQueue) Push(x any)        { *q = append(*q, x.(tick)) }
func (q *tickQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

func TestRunAsyncNaiveCompletes(t *testing.T) {
	rng := xrand.New(1)
	nets := map[string]dynamic.Network{
		"clique": dynamic.NewStatic(gen.Clique(12)),
		"star":   dynamic.NewStatic(gen.Star(12, 0)),
		"cycle":  dynamic.NewStatic(gen.Cycle(12)),
	}
	for name, net := range nets {
		res, err := RunAsyncNaive(net, AsyncOptions{Start: 0, RecordTrace: true}, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Completed || res.Informed != net.N() {
			t.Fatalf("%s: incomplete run %+v", name, res)
		}
		if res.SpreadTime <= 0 {
			t.Fatalf("%s: non-positive spread time", name)
		}
	}
}

func TestRunAsyncNaiveSingleVertex(t *testing.T) {
	net := dynamic.NewStatic(gen.Clique(1))
	res, err := RunAsyncNaive(net, AsyncOptions{Start: 0}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.SpreadTime != 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestRunAsyncNaiveMaxTime(t *testing.T) {
	net := dynamic.NewStatic(gen.Path(100))
	res, err := RunAsyncNaive(net, AsyncOptions{Start: 0, MaxTime: 0.5}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("naive run should have been cut off")
	}
}

func TestRunAsyncNaiveModes(t *testing.T) {
	rng := xrand.New(4)
	net := dynamic.NewStatic(gen.Clique(10))
	for _, mode := range []Mode{PushOnly, PullOnly, PushPull} {
		res, err := RunAsyncNaive(net, AsyncOptions{Start: 0, Mode: mode}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("mode %v did not complete", mode)
		}
	}
}

func TestRunAsyncNaiveTwoVertexMeanIsHalf(t *testing.T) {
	// Two vertices joined by an edge: each has a rate-1 clock and always
	// contacts the other, so the first contact happens at an Exp(2) time with
	// mean 1/2. This checks the clock mechanics of the naive simulator (and,
	// via the cross-validation test, of the fast simulator too).
	net := dynamic.NewStatic(gen.Path(2))
	rng := xrand.New(5)
	var times []float64
	for rep := 0; rep < 4000; rep++ {
		res, err := RunAsyncNaive(net, AsyncOptions{Start: 0}, rng)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, res.SpreadTime)
	}
	mean := stats.Mean(times)
	if mean < 0.45 || mean > 0.55 {
		t.Fatalf("two-vertex mean spread time %v, want about 0.5", mean)
	}
}

func TestRunAsyncFastTwoVertexMeanIsHalf(t *testing.T) {
	net := dynamic.NewStatic(gen.Path(2))
	rng := xrand.New(6)
	var times []float64
	for rep := 0; rep < 4000; rep++ {
		res, err := RunAsync(net, AsyncOptions{Start: 0}, rng)
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, res.SpreadTime)
	}
	mean := stats.Mean(times)
	if mean < 0.45 || mean > 0.55 {
		t.Fatalf("two-vertex mean spread time %v, want about 0.5", mean)
	}
}

func TestRunAsyncNaiveStepsAdvanceWithDynamicNetwork(t *testing.T) {
	// A path that only becomes a clique at step 3: the naive simulator must
	// cross at least 3 boundaries when started from an end of the path.
	rng := xrand.New(7)
	slow := gen.Path(6)
	fast := gen.Clique(6)
	seq := dynamic.NewSequence(repeatGraphs(slow, 3, fast))
	res, err := RunAsyncNaive(seq, AsyncOptions{Start: 0}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	if res.Steps < 1 {
		t.Fatal("expected at least one boundary crossing")
	}
}
