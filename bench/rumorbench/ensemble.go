package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"dynamicrumor/internal/engine"
	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/xrand"
)

// ensembleWorkload is an offline batch user (rumorsim, sweeps) cycling
// through six scenarios, each compiled and run per call.
var ensembleWorkload = &workload{
	name:    "ensemble-mix",
	primary: "one compiled ensemble",
	setup:   setupEnsemble,
	setups:  15,
}

// ensembleParallelism is the engine parallelism of every ensemble call.
const ensembleParallelism = 2

// ensembleCase is one scenario of the mix with its frozen repetition count.
type ensembleCase struct {
	name string
	sc   engine.Scenario
	// reps was calibrated once so that a call takes about 0.1 s at
	// ensembleParallelism on a 2-CPU Intel Xeon; it is frozen so that the
	// work per call is the same on every machine and commit.
	reps int
}

func family(name string, params engine.Params) engine.NetworkSpec {
	return engine.NetworkSpec{Family: name, Params: params}
}

var ensembleCases = []ensembleCase{
	{name: "clique256-v1", reps: 224, sc: engine.Scenario{
		Network: family("clique", engine.Params{"n": 256}), Stream: sim.StreamV1}},
	{name: "clique256-v2", reps: 300, sc: engine.Scenario{
		Network: family("clique", engine.Params{"n": 256}), Stream: sim.StreamV2}},
	{name: "dynstar5000", reps: 88, sc: engine.Scenario{
		Network: family("dynamic-star", engine.Params{"n": 5000})}},
	{name: "gnrho2048", reps: 12, sc: engine.Scenario{
		Network: family("gnrho", engine.Params{"n": 2048, "rho": 0.1})}},
	{name: "expander10000-sync", reps: 74, sc: engine.Scenario{
		Network: family("expander", engine.Params{"n": 10000}), Protocol: engine.ProtocolSync}},
	{name: "torus512-flood", reps: 38, sc: engine.Scenario{
		Network: family("torus", engine.Params{"rows": 512, "cols": 512}), Protocol: engine.ProtocolFlooding}},
}

type ensembleDeployment struct {
	tr *tracer
	// seeds are the per-case engine seeds, derived from the workload seed.
	seeds []uint64
	// reference holds each case's first measured digest; later calls must
	// reproduce it exactly.
	reference []string
}

func setupEnsemble(ctx context.Context, rc *runContext) (deployment, error) {
	d := &ensembleDeployment{tr: rc.tr, reference: make([]string, len(ensembleCases))}
	base := xrand.New(rc.seed)
	for i, c := range ensembleCases {
		d.seeds = append(d.seeds, base.Split(uint64(i)).Uint64())
		// Warm-up: compile and run a few repetitions so lazy initialization
		// and worker scratch growth happen before timing.
		if _, err := runEnsemble(ctx, nil, 0, c.sc, 4, d.seeds[i], ensembleParallelism); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", c.name, err)
		}
	}
	return d, nil
}

// ensembleOutcome is what a call's correctness check looks at.
type ensembleOutcome struct {
	completed int
	// digest hashes every repetition's spread time in repetition order.
	digest string
}

// runEnsemble compiles sc and runs reps repetitions, recording
// engine.compile and runner.exec spans under parent.
func runEnsemble(ctx context.Context, tr *tracer, parent int64, sc engine.Scenario, reps int, seed uint64, parallelism int) (ensembleOutcome, error) {
	var out ensembleOutcome
	sp := tr.begin("engine.compile", parent, "")
	compiled, err := engine.Compile(sc)
	sp.end()
	if err != nil {
		return out, err
	}
	h := fnv.New64a()
	var buf [8]byte
	eng := engine.Engine{Parallelism: parallelism, Seed: seed}
	sp = tr.begin("runner.exec", parent, "")
	err = eng.RunReduceCompiledCtx(ctx, compiled, reps, func(rep int, res *sim.Result) error {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(res.SpreadTime))
		h.Write(buf[:])
		if res.Completed {
			out.completed++
		}
		return nil
	})
	sp.end()
	if err != nil {
		return out, err
	}
	out.digest = fmt.Sprintf("%016x", h.Sum64())
	return out, nil
}

func (d *ensembleDeployment) measure(ctx context.Context, deadline time.Time, tl *tally) {
	perCase := make([][]float64, len(ensembleCases))
	defer func() {
		for i, c := range ensembleCases {
			tl.notef("%s: %d reps, median call %.1f ms", c.name, c.reps, median(perCase[i]))
		}
	}()
	// Whole cycles only, so every run measures the same mix of scenarios.
	for ctx.Err() == nil && time.Now().Before(deadline) {
		for i, c := range ensembleCases {
			start := time.Now()
			root := d.tr.begin("loadgen.ensemble", 0, c.name)
			out, err := runEnsemble(ctx, d.tr, root.id, c.sc, c.reps, d.seeds[i], ensembleParallelism)
			root.end()
			elapsed := time.Since(start)
			perCase[i] = append(perCase[i], float64(elapsed.Nanoseconds())/1e6)
			switch {
			case err != nil:
				tl.failf("%s: %v", c.name, err)
			case out.completed != c.reps:
				tl.wrongf("%s: %d of %d repetitions completed", c.name, out.completed, c.reps)
			case d.reference[i] == "":
				d.reference[i] = out.digest
				tl.okTimed(elapsed)
			case out.digest != d.reference[i]:
				tl.wrongf("%s: ensemble differs from the first call with the same seed", c.name)
			default:
				tl.okTimed(elapsed)
			}
		}
	}
}

func (d *ensembleDeployment) close() {}
