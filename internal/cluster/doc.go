// Package cluster distributes rumord ensemble runs across worker processes
// while preserving the engine's determinism contract byte for byte.
//
// The split is coordinator/worker. The coordinator implements
// service.Backend: the rumord scheduler hands it whole runs, and it shards
// each run into contiguous repetition ranges, leases the ranges to registered
// workers, and folds the uploaded partial results back together. Workers are
// plain rumord processes started with -worker -join <coordinator>; each
// executes its leased range on the local batch engine via
// engine.RunReduceRangeCtx, which reproduces exactly the repetition streams a
// single-node run would have used for those indices. A worker keeps the
// compiled scenario of its last lease and reuses it while its next leases
// carry the same scenario, as consecutive shards of one run do.
//
// # Protocol
//
// Workers speak JSON over HTTP to four coordinator endpoints:
//
//	POST /v1/cluster/register   announce capabilities, obtain a worker ID
//	POST /v1/cluster/lease      request a repetition-range lease (held)
//	POST /v1/cluster/heartbeat  renew liveness and held leases
//	POST /v1/cluster/result     upload a completed range
//
// A lease request is held: when nothing the worker can run is pending, the
// coordinator keeps the request open and hands it a shard as soon as a new
// run or a reclaimed lease adds some, answering null only once the 500 ms
// hold window has elapsed. New shards go to held requests of workers with no
// lease first, so a worker still executing a shard never takes a new run's
// only shard from an idle one. The worker asks again at once after null, so
// an idle worker's only wait is one held request and new work starts without
// a polling delay. This is why a coordinator and its workers must run the
// same version: a worker facing a coordinator that answers null at once
// would re-ask without pause.
//
// Leases carry the run's canonical scenario document, its seed, and a
// [start, start+count) repetition range. A lease is valid for the
// coordinator's TTL and is renewed by heartbeats that name it; a lease whose
// worker goes silent past the TTL is reclaimed — returned to the pending pool
// and granted to the next worker that asks. Reclaimed leases make uploads
// from the original worker stale: the coordinator acknowledges and discards
// them, so a network partition or slow worker can cause duplicate execution
// but never duplicate merging.
//
// # Exact merge
//
// Welford and P² accumulator states cannot be merged exactly from summaries,
// so workers ship the raw per-repetition observations of their range and the
// coordinator replays them through stats.Merger in repetition-index order.
// The merged stream is therefore bit-identical to a serial loop over the full
// ensemble — the same spread-time summary, to the last bit, regardless of how
// many workers participated, how ranges were assigned, or how many leases
// died and were re-executed along the way. Each upload also carries the
// serialized stats.Stream snapshot of its own range; the coordinator replays
// the raw values and byte-compares against the snapshot, rejecting any upload
// whose observations were corrupted in flight.
package cluster
