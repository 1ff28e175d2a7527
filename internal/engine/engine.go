package engine

import (
	"context"
	"fmt"
	"slices"

	"dynamicrumor/internal/dynamic"
	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/runner"
	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/xrand"
)

// Engine executes scenarios. It holds the two execution-policy knobs —
// parallelism and the seed policy — and nothing about any particular
// scenario, so one engine can serve many scenarios.
//
// The zero value is ready to use: GOMAXPROCS workers, seed 0.
type Engine struct {
	// Parallelism is the number of worker goroutines for batch runs
	// (0 or negative means runtime.GOMAXPROCS(0)). Results are bit-identical
	// for every value; parallelism only changes wall-clock time.
	Parallelism int
	// Seed derives every repetition's private RNG stream. Equal seeds give
	// bit-identical ensembles.
	Seed uint64
	// ChunkSize is the number of consecutive repetitions a worker claims per
	// synchronization round (0 or negative selects an automatic size, see
	// runner.ChunkFor). Like Parallelism it is a pure throughput knob: results
	// are bit-identical for every value.
	ChunkSize int
}

// RunBatch executes reps independent Monte-Carlo repetitions of the scenario
// and aggregates them into an Ensemble. Repetition i builds a fresh network
// instance and runs the protocol on it, both from private RNG streams derived
// from the engine seed, so the ensemble is bit-identical for every
// Parallelism value (see internal/runner).
//
// RunBatch is RunReduceCtx with a reducer that keeps a copy of every result,
// trace included, so Results[i] is exactly what RunReduceCtx hands its
// reducer for repetition i. Use RunReduceCtx when the results need not
// outlive the run: its memory stays O(workers) instead of O(reps).
func (e Engine) RunBatch(sc Scenario, reps int) (*Ensemble, error) {
	ens := &Ensemble{Scenario: sc}
	err := e.RunReduceCtx(context.Background(), sc, reps, func(rep int, res *sim.Result) error {
		kept := *res
		kept.Trace = slices.Clone(res.Trace)
		ens.Results = append(ens.Results, &kept)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ens, nil
}

// Reducer consumes one repetition's result. The engine calls it in strict
// repetition order, never concurrently, so it can fold into plain
// accumulators without locking. The result is only valid for the duration of
// the call — the worker recycles it for a later repetition — so a reducer
// extracts what it needs and must not retain res or its trace (RunBatch
// copies both). BatchStats.Add is a ready-made Reducer.
type Reducer func(rep int, res *sim.Result) error

// RunReduceCtx executes reps repetitions of the scenario and streams each
// result into reduce instead of materializing an Ensemble: memory stays
// O(workers) no matter how large reps is, which is what makes
// 10⁵–10⁶-repetition ensembles practical. The reduction order is the
// repetition order for every Parallelism and ChunkSize value.
//
// A failing repetition (or a reducer error) aborts the run after every
// earlier repetition has been reduced; the returned error identifies the
// lowest failing repetition deterministically. Cancelling ctx stops the run
// at the next chunk boundary — every already-claimed repetition is still
// reduced, in order — and returns ctx.Err(), so long-lived callers (the
// rumord service) can abandon a batch without leaking its workers.
func (e Engine) RunReduceCtx(ctx context.Context, sc Scenario, reps int, reduce Reducer) error {
	return e.RunReduceFrom(ctx, sc, reps, xrand.New(e.Seed), reduce)
}

// RunReduceFrom is RunReduceCtx with an explicit base generator in place of
// the engine seed. It exists so callers that are themselves part of a larger
// deterministic experiment (the E1–E12 suite) can hand the engine a derived
// stream. The base generator is advanced reps times over the course of the
// call — even when the run fails or is cancelled — and must not be used
// concurrently with it.
func (e Engine) RunReduceFrom(ctx context.Context, sc Scenario, reps int, base *xrand.RNG, reduce Reducer) error {
	cs, err := compileScenario(sc, nil)
	if err != nil {
		return err
	}
	return e.execute(ctx, cs, base, 0, reps, reduce)
}

// RunReduceCompiledCtx is RunReduceCtx on an already-compiled scenario (see
// Compile and CompileSet): compilation — validation, strategy selection,
// deterministic network construction — is skipped, everything else is
// identical, so the reduction is bit-identical to RunReduceCtx on the same
// scenario. This is the hot entry point of sweep execution, where one
// compiled cell shape backs many runs.
func (e Engine) RunReduceCompiledCtx(ctx context.Context, c *Compiled, reps int, reduce Reducer) error {
	return e.execute(ctx, c.cs, xrand.New(e.Seed), 0, reps, reduce)
}

// RunReduceRangeCtx executes only the repetition range [start, start+count)
// of a larger ensemble of an already-compiled scenario: the reducer receives
// global repetition indices, and repetition i's result is bit-identical to
// what RunReduceCtx would have handed the reducer for repetition i of a full
// run with the same seed. This is the shard-execution entry point of the
// distributed service (internal/cluster): a worker needs nothing but
// (scenario, seed, start, count) to reproduce its slice of the ensemble
// exactly, so shards can be re-executed on any node — after a worker death,
// say — without changing the merged result. Taking the compiled scenario,
// like RunReduceCompiledCtx, lets a worker compile a run's scenario once for
// all of the run's shards it executes.
func (e Engine) RunReduceRangeCtx(ctx context.Context, c *Compiled, start, count int, reduce Reducer) error {
	return e.execute(ctx, c.cs, xrand.New(e.Seed), start, count, reduce)
}

// execute is the one execution core behind every entry point: it runs the
// repetitions [start, start+count) of the compiled scenario through
// runner.Run, with base positioned where a whole run from repetition 0 would
// start, and reduces each result in repetition order.
func (e Engine) execute(ctx context.Context, cs *compiledScenario, base *xrand.RNG, start, count int, reduce Reducer) error {
	if count < 1 {
		return fmt.Errorf("engine: reps must be >= 1, got %d", count)
	}
	// Workers claim and compute whole chunks before any of a chunk is reduced,
	// so each worker needs one distinct result slot per repetition of a chunk:
	// a ring of ChunkFor slots, advanced round-robin, is exactly that (a chunk
	// is fully reduced before its worker claims the next one, so a slot is
	// never overwritten while the reducer can still see it).
	ringSize := runner.ChunkFor(e.ChunkSize, count, e.Parallelism)
	plan := runner.Plan{Start: start, Count: count, Parallelism: e.Parallelism, ChunkSize: e.ChunkSize}
	return runner.Run(ctx, plan, base, newWorkerState,
		func(rep int, sub *xrand.RNG, ws *workerState) (*sim.Result, error) {
			if ws.resRing == nil {
				ws.resRing = make([]sim.Result, ringSize)
			}
			res := &ws.resRing[ws.resCur]
			ws.resCur++
			if ws.resCur == len(ws.resRing) {
				ws.resCur = 0
			}
			return cs.runRep(sub, ws, res)
		},
		runner.Reducer[*sim.Result](reduce))
}

// compiledScenario is a scenario compiled for a batch: the validation and
// every piece of per-batch work is done once, and the per-repetition job is
// reduced to (derive streams, obtain network, run protocol). Exactly one of
// the four network strategies is set:
//
//   - shared: an immutable network (deterministic static family, or a
//     shareable dynamic family) built once and read concurrently by all
//     workers;
//   - staticFam: a random static family rebuilt every repetition through the
//     worker's recycled builder and graph buffer (gen.BuildInto);
//   - dynFam: a stateful dynamic family; each worker builds one instance and
//     re-initializes it per repetition via dynamic.Reusable when supported;
//   - custom: a programmatic factory, invoked once per repetition.
type compiledScenario struct {
	sc           Scenario
	shared       dynamic.Network
	sharedStart  int
	staticFam    string
	staticParams gen.Params
	dynFam       *dynamicFamily
	dynParams    gen.Params
	custom       NetworkFactory
}

// compileScenario validates the scenario and selects its execution strategy.
// Deterministic constructions are materialized here, before the fan-out; the
// no-draw contract of gen.Family.Deterministic and dynamicFamily.shareable is
// what makes sharing them invisible to every repetition's RNG stream. When
// set is non-nil, the shared read-only networks it has already built for an
// equal network spec are reused instead of rebuilt, so a grid of scenarios
// over the same graph pays its construction once.
func compileScenario(sc Scenario, set *CompileSet) (*compiledScenario, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cs := &compiledScenario{sc: sc}
	ns := sc.Network
	switch {
	case ns.Custom != nil:
		cs.custom = ns.Custom
	case dynamicFamilies[ns.Family].build != nil:
		fam := dynamicFamilies[ns.Family]
		if fam.shareable {
			net, start, err := set.lookupOrBuild(ns, func() (dynamic.Network, int, error) {
				return fam.build(ns.Params, nil)
			})
			if err != nil {
				return nil, fmt.Errorf("build network: %w", err)
			}
			cs.shared, cs.sharedStart = net, start
		} else {
			cs.dynFam, cs.dynParams = &fam, ns.Params
		}
	case gen.IsDeterministic(ns.Family):
		net, start, err := set.lookupOrBuild(ns, func() (dynamic.Network, int, error) {
			// The nil rng makes a family that violates the no-draw contract
			// fail loudly instead of silently skewing sibling repetitions'
			// streams.
			g, err := gen.Build(ns.Family, ns.Params, nil)
			if err != nil {
				return nil, 0, err
			}
			return dynamic.NewStatic(g), gen.DefaultStart(ns.Family, ns.Params, g), nil
		})
		if err != nil {
			return nil, fmt.Errorf("build network: %w", err)
		}
		cs.shared, cs.sharedStart = net, start
	default:
		cs.staticFam, cs.staticParams = ns.Family, ns.Params
	}
	return cs, nil
}

// workerState is the recycled state one batch worker carries across all of
// its repetitions: simulator scratch, a ring of result buffers, the two
// per-repetition RNG values, and the network recycling machinery of
// whichever strategy the compiled scenario selected. None of it influences
// results — it is storage reuse, not input.
type workerState struct {
	scratch *sim.Scratch
	// resRing holds the worker's recycled results — one slot per repetition
	// of a claim chunk, allocated lazily on the worker's first repetition and
	// advanced round-robin by resCur.
	resRing  []sim.Result
	resCur   int
	netRNG   xrand.RNG
	protoRNG xrand.RNG

	// Random static families: recycled builder + emitter scratch + graph +
	// wrapper.
	builder *graph.Builder
	emit    gen.EmitScratch
	g       *graph.Graph
	static  *dynamic.Static

	// Dynamic families: the worker's cached instance and its start vertex.
	dyn      dynamic.Network
	dynStart int

	// Cached protocol value, rebuilt only if the start vertex changes.
	proto      sim.Protocol
	protoStart int
	reuse      sim.ReusableProtocol
	reuseOK    bool
}

func newWorkerState() *workerState { return &workerState{scratch: sim.NewScratch()} }

// runRep executes one repetition. The stream discipline — Split(1) for the
// network, Split(2) for the protocol — is a compatibility contract: it
// reproduces the historical serial loops bit for bit. Do not reorder. Shared
// and recycled networks keep the discipline intact because deriving the
// network stream consumes exactly one base draw whether or not the network
// then uses it.
func (cs *compiledScenario) runRep(sub *xrand.RNG, ws *workerState, res *sim.Result) (*sim.Result, error) {
	sub.SplitInto(1, &ws.netRNG)
	var (
		net   dynamic.Network
		start int
		err   error
	)
	switch {
	case cs.shared != nil:
		net, start = cs.shared, cs.sharedStart
	case cs.custom != nil:
		net, start, err = cs.custom(&ws.netRNG)
	case cs.dynFam != nil:
		if r, ok := ws.dyn.(dynamic.Reusable); ok {
			err = r.Reset(&ws.netRNG)
			net, start = ws.dyn, ws.dynStart
		} else {
			net, start, err = cs.dynFam.build(cs.dynParams, &ws.netRNG)
			if err == nil {
				ws.dyn, ws.dynStart = net, start
			}
		}
	default:
		if ws.builder == nil {
			ws.builder = graph.NewBuilder(0)
		}
		var g *graph.Graph
		g, err = gen.BuildInto(cs.staticFam, cs.staticParams, &ws.netRNG, ws.builder, ws.g, &ws.emit)
		if err == nil {
			if ws.static == nil || g != ws.g {
				ws.static = dynamic.NewStatic(g)
			}
			ws.g = g
			net, start = ws.static, gen.DefaultStart(cs.staticFam, cs.staticParams, g)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("build network: %w", err)
	}
	if cs.sc.Start != nil {
		start = *cs.sc.Start
	}
	if ws.proto == nil || start != ws.protoStart {
		ws.proto = cs.sc.protocolFor(start)
		ws.protoStart = start
		ws.reuse, ws.reuseOK = ws.proto.(sim.ReusableProtocol)
	}
	sub.SplitInto(2, &ws.protoRNG)
	// Every worker reuses one scratch and its ring of results across all of
	// its repetitions; RunInto is contractually stream- and
	// output-identical to Run, so this is purely an allocation optimization.
	var out *sim.Result
	if ws.reuseOK {
		out, err = ws.reuse.RunInto(net, &ws.protoRNG, ws.scratch, res)
	} else {
		out, err = ws.proto.Run(net, &ws.protoRNG)
	}
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", ws.proto.Kind(), err)
	}
	return out, nil
}
