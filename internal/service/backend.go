package service

import (
	"context"
	"time"

	"dynamicrumor/internal/engine"
	"dynamicrumor/internal/obs"
	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/stats"
)

// NewSummaryStream returns the stream every run summary is folded into: the
// exact Welford aggregates plus P² estimates for the median and 0.9-quantile.
// Every backend must fold into a stream with these levels — the summary
// document's byte-identity across backends depends on identical accumulator
// shapes — so the constructor is exported for the cluster coordinator and
// its workers.
func NewSummaryStream() *stats.Stream { return stats.NewStream(0.5, 0.9) }

// BackendRun describes one ensemble run for a Backend.
type BackendRun struct {
	// Scenario is the parsed scenario; Canonical its canonical encoding (the
	// form a distributed backend ships to workers, so every node executes the
	// same normalized document the cache key was derived from).
	Scenario  engine.Scenario
	Canonical []byte
	// Key is the run's cache key (sha256 over canonical + seed + reps). A
	// crash-recovering backend uses it to re-adopt journalled state for the
	// run without recomputing the hash.
	Key string
	// Reps and Seed are the ensemble inputs.
	Reps int
	Seed uint64
	// Workers is the job's grant from the service's local worker budget.
	// Backends that execute elsewhere (the cluster coordinator) may ignore it.
	Workers int
	// Observe, when non-nil, is called with repetition-count deltas as
	// repetitions finish, feeding the job's progress counters. It must be safe
	// to call from any goroutine.
	Observe func(delta int64)
	// Compile, when non-nil, is the compile set shared by every run of one
	// sweep: a locally-executing backend compiles the scenario through it so
	// deterministic networks are built once per distinct grid shape and read
	// concurrently by every cell over the same graph. Sharing never changes
	// results (see engine.CompileSet); backends that execute elsewhere ignore
	// it and compile on their own nodes.
	Compile *engine.CompileSet
	// Trace, when non-nil, receives the backend's phase spans (compilation,
	// execution, per-shard leases in cluster mode) on the job's
	// flight-recorder timeline. Purely observational: recording never alters
	// scheduling, RNG streams or reduction order.
	Trace *obs.Trace
}

// BackendResult is a completed run: the completion count and the folded
// per-repetition spread-time stream (a NewSummaryStream that received every
// repetition's observation in repetition order).
type BackendResult struct {
	Completed int
	Stream    *stats.Stream
}

// Backend executes ensemble runs for the scheduler. The contract every
// implementation must honor is the engine's determinism extended across
// execution topology: equal (canonical scenario, seed, reps) produce
// bit-identical BackendResults — and therefore byte-identical summary
// documents — whether the repetitions ran on one goroutine, a local worker
// pool, or a fleet of remote processes. Run must respect ctx: cancellation
// settles the run with ctx.Err() at the backend's earliest safe boundary.
type Backend interface {
	Run(ctx context.Context, run BackendRun) (BackendResult, error)
}

// UnavailableError is returned by a backend's Ready when it cannot execute
// new work right now but expects to again — a distributed backend with zero
// live workers, for instance. The API layer maps it to 503 with a
// Retry-After header, so clients fail fast instead of queueing into a
// backend that cannot drain.
type UnavailableError struct {
	// Reason is the operator-readable cause.
	Reason string
	// RetryAfter is the suggested wait before resubmitting.
	RetryAfter time.Duration
}

func (e *UnavailableError) Error() string { return e.Reason }

// readyChecker is implemented by backends that can be temporarily unable to
// execute new runs. Ready returns nil when submissions can be accepted and
// an *UnavailableError when they should be refused; the scheduler consults
// it only for submissions that need new work (cache hits and coalesced
// followers are served regardless).
type readyChecker interface {
	Ready() error
}

// LocalBackend executes runs in-process on the batch engine — the single-node
// deployment, and the reference any distributed backend is measured against
// byte for byte.
type LocalBackend struct{}

// Run compiles the scenario — through the sweep's compile set when the run
// carries one, sharing deterministic networks with the sweep's other cells —
// and executes the repetitions on Workers engine goroutines. Compilation
// through a set is bit-identical to plain compilation (see
// engine.CompileSet), so a plain run and a sweep cell produce the same
// summary bytes.
func (LocalBackend) Run(ctx context.Context, run BackendRun) (BackendResult, error) {
	start := time.Now()
	compiled, err := run.Compile.Compile(run.Scenario)
	run.Trace.Add(obs.Span{Name: "compiled", Start: start, End: time.Now()})
	if err != nil {
		return BackendResult{}, err
	}
	eng := engine.Engine{Parallelism: run.Workers, Seed: run.Seed}
	stream := NewSummaryStream()
	completed := 0
	e0 := time.Now()
	err = eng.RunReduceCompiledCtx(ctx, compiled, run.Reps, func(rep int, res *sim.Result) error {
		stream.Add(res.SpreadTime)
		if res.Completed {
			completed++
		}
		if run.Observe != nil {
			run.Observe(1)
		}
		return nil
	})
	run.Trace.Add(obs.Span{Name: "execute", Start: e0, End: time.Now()})
	if err != nil {
		return BackendResult{}, err
	}
	return BackendResult{Completed: completed, Stream: stream}, nil
}
