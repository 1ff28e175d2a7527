package cluster

import "encoding/json"

// Wire types of the /v1/cluster protocol. Every request is a POST with a
// JSON body; unknown fields are rejected so protocol drift fails loudly.
// A request naming a worker ID the coordinator does not know (never
// registered, or swept after going silent) is answered with 404 and the
// worker must re-register.

// RegisterRequest announces a worker and its capabilities.
type RegisterRequest struct {
	// Name optionally labels the worker in logs and diagnostics.
	Name string `json:"name,omitempty"`
	// CPUs is the worker's engine parallelism — the number of repetitions it
	// executes concurrently within a lease.
	CPUs int `json:"cpus"`
	// Families restricts the worker to runs over the named network families;
	// empty means every family.
	Families []string `json:"families,omitempty"`
}

// RegisterResponse assigns the worker its identity and heartbeat cadence.
// It carries no polling interval: lease requests are held by the
// coordinator (see LeaseResponse), so a worker never sleeps between them.
type RegisterResponse struct {
	// WorkerID names the worker in every subsequent request.
	WorkerID string `json:"worker_id"`
	// LeaseTTLMillis is the lease validity window; the worker must heartbeat
	// well within it or its leases are reclaimed.
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`
}

// LeaseRequest asks for work.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
}

// Lease is one repetition range of one run, granted to one worker until it
// expires or the worker uploads its result.
type Lease struct {
	// ID names the lease in heartbeats and the result upload.
	ID string `json:"id"`
	// Run names the coordinator-side run the range belongs to (diagnostics;
	// the result upload is keyed by lease ID alone).
	Run string `json:"run"`
	// Scenario is the run's canonical scenario document — the exact bytes the
	// cache key was derived from, so every worker executes the same
	// normalized scenario.
	Scenario json.RawMessage `json:"scenario"`
	// Seed is the run's ensemble seed. Repetition i of the range draws its
	// RNG stream from this seed exactly as repetition i of a single-node run
	// would.
	Seed uint64 `json:"seed"`
	// Start and Count delimit the repetition range [Start, Start+Count).
	Start int `json:"start"`
	Count int `json:"count"`
	// Trace is the run's flight-recorder trace ID. The worker stamps its
	// result upload with it (the X-Trace-Id header and the spans below), so
	// per-shard worker timing stitches into the coordinator-side timeline.
	Trace string `json:"trace,omitempty"`
}

// LeaseResponse carries the granted lease, or null. A lease request is held:
// when no work the worker's families cover is pending, the coordinator keeps
// the request open and grants a lease the moment a run or a reclaimed lease
// adds one, answering null only when its 500 ms hold window has elapsed with
// nothing to grant (or at once when the coordinator shuts down). The worker
// asks again at once on null, so a coordinator and its workers must run the
// same rumord version: a worker talking to a coordinator that answers at once
// would re-ask without pause.
type LeaseResponse struct {
	Lease *Lease `json:"lease"`
}

// HeartbeatRequest renews the worker's liveness and the named leases.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	// LeaseIDs are the leases the worker still holds and is executing.
	LeaseIDs []string `json:"lease_ids,omitempty"`
}

// HeartbeatResponse reconciles the two lease views: Expired lists reported
// leases the coordinator no longer recognizes as held by this worker
// (reclaimed after a missed window, or belonging to a cancelled run). The
// worker must abandon them — their uploads would be discarded as stale.
type HeartbeatResponse struct {
	Expired []string `json:"expired,omitempty"`
}

// ResultRequest uploads one executed range. Values carries the raw
// per-repetition observations — Values[j] is the spread time of repetition
// Start+j — which the coordinator replays through its merger for the exact
// merge. Stream is the serialized stats.Stream snapshot of exactly those
// observations, used as an end-to-end integrity check on the upload. Error,
// when non-empty, reports that the range failed to execute and fails the run.
type ResultRequest struct {
	WorkerID  string    `json:"worker_id"`
	LeaseID   string    `json:"lease_id"`
	Values    []float64 `json:"values,omitempty"`
	Completed int       `json:"completed"`
	Stream    []byte    `json:"stream,omitempty"`
	Error     string    `json:"error,omitempty"`
	// Spans carries the worker-side timing of the range (its execute span,
	// measured on the worker's own clock) for the run's flight-recorder
	// timeline. Purely observational: the coordinator never derives merge or
	// settlement decisions from them.
	Spans []TraceSpan `json:"spans,omitempty"`
}

// TraceSpan is one flight-recorder span on the wire. Timestamps travel as
// Unix nanoseconds of the originating node's clock; cross-node skew shifts a
// worker span within the timeline but never affects results.
type TraceSpan struct {
	Name          string `json:"name"`
	Worker        string `json:"worker,omitempty"`
	Detail        string `json:"detail,omitempty"`
	StartUnixNano int64  `json:"start_unix_nano"`
	EndUnixNano   int64  `json:"end_unix_nano"`
}

// ResultResponse acknowledges an upload. Stale reports that the lease had
// already been reclaimed or its run settled — the upload was discarded and
// the worker should simply move on.
type ResultResponse struct {
	Stale bool `json:"stale"`
}
