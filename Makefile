# Development targets for the dynamicrumor module. `make check` is the tier-1
# gate that CI runs on every push (see .github/workflows/ci.yml).

GO ?= go

.PHONY: all build test test-short test-race vet fmt-check bench bench-smoke test-equivalence smoke-service smoke-cluster smoke-chaos smoke-sweep serve check clean

# The anchor benchmarks, whose history up to 2026-08-08 the committed
# BENCH_*.json files record (see EXPERIMENTS.md): the Monte-Carlo engine
# fan-out (batch + streaming, including both async stream disciplines via
# BenchmarkMonteCarloStream), the two hot-path anchors of the
# allocation-free rebuild work, and the frontier-based flooding scan.
BENCH_ANCHORS := BenchmarkMonteCarlo|BenchmarkGNRhoConstructionN2048|BenchmarkAsyncDynamicStarN5000|BenchmarkRunReduce1e5Reps|BenchmarkFloodingLargeN

# The service-layer anchor pair: one native 24-cell sweep against the same
# grid as 24 separate submissions (internal/service/sweep_bench_test.go) —
# the committed evidence for the sweep path's amortization.
SERVICE_BENCH_ANCHORS := BenchmarkSweepNative24Cells|BenchmarkSweepSeparate24Cells

# The reproduction's timing benchmarks: one per experiment E1–E12 (quick
# mode at seed 20200424, in the root package), the exact Φ and ρ kernels
# on E8's n = 22 instance, and exact Φ on a dense graph, its worst case
# (the complement of C_22).
EXPERIMENT_BENCHES := ^BenchmarkE[0-9]
KERNEL_BENCHES := ^BenchmarkExact(Conductance)?(N22|Dense)

# Graph construction alone (internal/graph): recorded emissions of the
# 512×512 torus (cold and recycled), K_256 (cold) and 8 random perfect
# matchings on 10⁴ vertices (recycled) replayed into the builder.
GRAPH_BENCHES := ^BenchmarkBuild

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

fmt-check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

bench:
	$(GO) test -run NONE -bench 'BenchmarkMonteCarlo' -benchmem .
	$(GO) test -run NONE -bench 'Async|Sync|Flooding|Conductance|GNRho' -benchmem .
	$(GO) test -run NONE -bench '$(SERVICE_BENCH_ANCHORS)' -benchmem ./internal/service

# bench-smoke is the CI guard: one iteration of every anchor and of the
# reproduction's timing benchmarks, so the benchmarks cannot rot even when
# nobody is looking at their numbers.
bench-smoke:
	$(GO) test -run NONE -bench '$(BENCH_ANCHORS)|$(EXPERIMENT_BENCHES)' -benchtime 1x -benchmem .
	$(GO) test -run NONE -bench '$(KERNEL_BENCHES)|$(GRAPH_BENCHES)' -benchtime 1x -benchmem ./internal/diligence ./internal/spectral ./internal/graph
	$(GO) test -run NONE -bench '$(SERVICE_BENCH_ANCHORS)' -benchtime 1x -benchmem ./internal/service

# test-equivalence is the tier-2 statistical gate: the v1-vs-v2 stream
# equivalence suite (internal/statcheck, with the sim-level cross-validation)
# under the race detector, plus the workers-speedup smoke. Slower and
# wall-clock sensitive, so CI runs it as its own job instead of inside
# `make check`; the speedup smoke self-skips below 4 CPUs.
test-equivalence:
	$(GO) test -race -run 'TestStreamV2EquivalenceSuite|TestCrossValidationV1VsV2' -count=1 -v ./internal/statcheck ./internal/sim
	$(GO) test -run TestWorkersSpeedupSmoke -count=1 -v .

# serve starts the rumord simulation service on :8080 (see README "Running
# the service" for the API).
serve:
	$(GO) run ./cmd/rumord

# smoke-service is the CI end-to-end guard for rumord: start the daemon,
# submit a scenario sweep through examples/client, poll to completion, diff
# the summaries against scripts/testdata/service_smoke_summary.json, and
# require a resubmission to be a byte-identical cache hit.
smoke-service:
	sh scripts/service_smoke.sh

# smoke-cluster is the tier-2 end-to-end guard for the distributed rumord:
# coordinator + two workers run a 10⁴-rep ensemble (one worker killed
# mid-run) and the summary must be byte-identical to a single-node rumord's.
smoke-cluster:
	sh scripts/cluster_smoke.sh

# smoke-chaos is the tier-2 crash-recovery guard: a durable coordinator
# (-state-dir, -cache-dir) is SIGKILLed mid-run under an active fault plan
# (-chaos) and restarted; the recovered run's summary must be byte-identical
# to a single-node rumord's.
smoke-chaos:
	sh scripts/chaos_smoke.sh

# smoke-sweep is the CI end-to-end guard for native sweeps: one daemon runs
# a grid through POST /v1/sweeps, a second fresh daemon runs every cell as a
# standalone POST /v1/runs, and the aggregate summaries must be
# byte-identical (see scripts/sweep_smoke.sh).
smoke-sweep:
	sh scripts/sweep_smoke.sh

check: build vet fmt-check test

clean:
	$(GO) clean ./...
