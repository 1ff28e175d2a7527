package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dynamicrumor/internal/obs"
	"dynamicrumor/internal/service"
	"dynamicrumor/internal/stats"
	"dynamicrumor/internal/store"
)

// Config carries the coordinator policy knobs. The zero value selects
// defaults suitable for a LAN cluster.
type Config struct {
	// LeaseTTL is the lease validity window (<= 0 selects 15s). A worker that
	// neither heartbeats nor uploads within it is presumed dead: its leases
	// return to the pool and its registration is forgotten.
	LeaseTTL time.Duration
	// PollInterval is the hold window of a lease request (<= 0 selects
	// 500ms, the window rumord always uses). A request that finds no
	// compatible pending shard is held open until a run or a reclaimed lease
	// adds one, and is answered null only when the window runs out; the
	// worker then asks again at once. So the window bounds how long one idle
	// request stays open, never how long new work waits for a worker. It must
	// stay well below the workers' 30s HTTP timeout. Only tests need another
	// value; the field is slated for removal.
	PollInterval time.Duration
	// ShardSize is the repetition count per lease (<= 0 selects an automatic
	// size: a batch of engine chunks large enough to amortize the HTTP round
	// trip, see shardFor). Like every scheduling knob it never changes
	// outputs — the merge is exact for any sharding.
	ShardSize int
	// StateDir, when set, enables crash recovery: run starts and settled
	// shard uploads are journalled (fsync'd) so a SIGKILLed coordinator can
	// re-adopt its in-flight runs on restart, replaying completed shards
	// through the exact merger and re-leasing only the unfinished ranges.
	StateDir string
	// Logger, when non-nil, receives coordinator lifecycle events (worker
	// registration, lease reclaim, run settlement, recovery) as structured
	// log lines; nil discards them.
	Logger *slog.Logger
	// Observe, when non-nil, is the shared latency-histogram registry the
	// lease round-trip histogram records into; nil selects a private one.
	// cmd/rumord hands the coordinator the service's registry so the
	// histogram appears in the same /metrics document.
	Observe *obs.Registry
}

// Coordinator shards ensemble runs across registered workers and merges
// their partial results exactly. It implements service.Backend, so it plugs
// into the rumord scheduler as a drop-in replacement for LocalBackend;
// Mount exposes its worker-facing protocol. Create with New, stop with Close.
type Coordinator struct {
	ttl       time.Duration
	poll      time.Duration
	shardSize int
	log       *slog.Logger
	histLease *obs.Histogram

	mu         sync.Mutex
	workers    map[string]*workerState
	runs       map[string]*clusterRun
	runOrder   []string
	leases     map[string]*lease
	nextWorker int
	nextRun    int
	nextLease  int
	reassigned int64
	closed     bool
	// held lists the lease requests waiting for work, oldest first;
	// dispatchLocked hands them shards as Run and the lease-expiry requeue
	// add some.
	held []*heldRequest
	// release is closed by ReleaseHeld: held requests are answered null and
	// new ones are not held.
	release     chan struct{}
	releaseOnce sync.Once
	// onHold, when set (tests only), is called each time a lease request
	// starts being held, before it waits.
	onHold func()

	// Crash-recovery journal state (nil / empty without Config.StateDir).
	journal        *store.Journal
	recovered      map[string]*recoveredRun
	recoveredOrder []string
	runsReadopted  int64
	shardsReplayed int64

	sweepStop chan struct{}
	sweepDone chan struct{}
}

// workerState is the registry record of one worker.
type workerState struct {
	id       string
	name     string
	cpus     int
	families map[string]bool // empty means every family
	lastSeen time.Time
	leases   map[string]bool
}

// shard is a pending repetition range of a run.
type shard struct {
	start, count int
}

// clusterRun is one in-flight ensemble run.
type clusterRun struct {
	id        string
	key       string // service run key; empty disables journaling for the run
	canonical []byte
	family    string
	seed      uint64
	reps      int
	observe   func(delta int64)
	// trace is the service job's flight-recorder timeline (nil-safe); the
	// coordinator appends per-shard lease/upload spans and workers' execute
	// spans to it as uploads settle.
	trace *obs.Trace
	// records retains the run's journal frames (run start + settled shards)
	// so compaction can rewrite them; cleared at run end.
	records []store.Record

	pending     []shard // sorted by start; lowest granted first
	outstanding int     // leased shards not yet settled
	merger      *stats.Merger
	stream      *stats.Stream
	completed   int
	err         error
	finished    bool
	done        chan struct{}
}

// heldRequest is a lease request waiting for work. dispatchLocked sets
// lease and closes granted when it hands the request a shard.
type heldRequest struct {
	workerID string
	lease    *Lease
	granted  chan struct{}
}

// lease is the coordinator-side record of a granted range.
type lease struct {
	id       string
	workerID string
	run      *clusterRun
	shard    shard
	granted  time.Time
	expires  time.Time
}

// holdWindow is how long a lease request is held open when no work it may
// run is pending.
const holdWindow = 500 * time.Millisecond

// errUnknownWorker marks requests from a worker the coordinator does not
// know; the API layer maps it to 404 and the worker re-registers.
var errUnknownWorker = errors.New("cluster: unknown worker")

// New starts a coordinator (its lease-expiry sweeper runs until Close).
// With Config.StateDir it replays the recovery journal first; failing to
// open it is a startup error, because running without the durability the
// operator asked for would be a silent downgrade.
func New(cfg Config) (*Coordinator, error) {
	c := &Coordinator{
		ttl:       cfg.LeaseTTL,
		poll:      cfg.PollInterval,
		shardSize: cfg.ShardSize,
		log:       cfg.Logger,
		workers:   make(map[string]*workerState),
		runs:      make(map[string]*clusterRun),
		leases:    make(map[string]*lease),
		release:   make(chan struct{}),
		recovered: make(map[string]*recoveredRun),
		sweepStop: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	if c.ttl <= 0 {
		c.ttl = 15 * time.Second
	}
	if c.poll <= 0 {
		c.poll = holdWindow
	}
	if c.log == nil {
		c.log = obs.NopLogger()
	}
	reg := cfg.Observe
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c.histLease = reg.Histogram("lease_roundtrip", "Seconds from cluster lease grant to its settled result upload.")
	if cfg.StateDir != "" {
		if err := c.openJournal(filepath.Join(cfg.StateDir, "cluster.journal")); err != nil {
			return nil, err
		}
	}
	go c.sweep()
	return c, nil
}

// Close stops the expiry sweeper. In-flight Run calls are settled by their
// contexts (the service cancels them on shutdown), not by Close.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.sweepStop)
	<-c.sweepDone
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal != nil {
		if err := c.journal.Close(); err != nil {
			c.log.Error("cluster: journal close failed", "err", err)
		}
	}
}

// shardFor decides the repetitions per lease: the explicit size when set,
// otherwise about 64 shards per run — enough slices that any worker fleet
// load-balances and a reclaimed lease forfeits little work — floored at 16
// repetitions so one HTTP round trip carries meaningful work. Deliberately
// independent of the coordinator's own CPU count: workers join dynamically,
// so the run is sliced for a fleet, not for this host. A pure throughput
// knob — the merge is exact for any value.
func shardFor(shardSize, reps int) int {
	if shardSize > 0 {
		return shardSize
	}
	s := (reps + 63) / 64
	if s < 16 {
		s = 16
	}
	if s > reps {
		s = reps
	}
	return s
}

// Run implements service.Backend: it shards the run, waits for workers to
// execute every range, and returns the exactly merged result. The summary
// depends only on (canonical scenario, seed, reps) — never on which workers
// ran which ranges or how many leases were reclaimed and re-executed.
func (c *Coordinator) Run(ctx context.Context, run service.BackendRun) (service.BackendResult, error) {
	if run.Reps < 1 {
		return service.BackendResult{}, fmt.Errorf("cluster: reps must be >= 1, got %d", run.Reps)
	}
	if len(run.Canonical) == 0 {
		return service.BackendResult{}, errors.New("cluster: run has no canonical scenario")
	}
	r := &clusterRun{
		key:       run.Key,
		canonical: run.Canonical,
		family:    run.Scenario.Network.Family,
		seed:      run.Seed,
		reps:      run.Reps,
		observe:   run.Observe,
		trace:     run.Trace,
		stream:    service.NewSummaryStream(),
		done:      make(chan struct{}),
	}
	r.merger = stats.NewMerger(r.stream)
	size := shardFor(c.shardSize, run.Reps)
	r.pending = appendShardRanges(nil, 0, run.Reps, size)
	shards := len(r.pending)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return service.BackendResult{}, errors.New("cluster: coordinator is closed")
	}
	c.nextRun++
	r.id = fmt.Sprintf("r%06d", c.nextRun)
	c.runs[r.id] = r
	c.runOrder = append(c.runOrder, r.id)
	var replayed int64
	if rec, ok := c.recovered[run.Key]; ok {
		// The service resubmitted a run the previous coordinator process had
		// in flight: fold the journalled shards back in and lease only the
		// unfinished ranges.
		delete(c.recovered, run.Key)
		c.dropRecoveredOrder(run.Key)
		if err := c.readoptLocked(r, rec, size); err != nil {
			// Inconsistent journal state is discarded — re-executing from
			// scratch is always correct, just slower.
			c.log.Warn("cluster: journalled state unusable, running from scratch", "run", r.id, "err", err)
			r.stream = service.NewSummaryStream()
			r.merger = stats.NewMerger(r.stream)
			r.completed = 0
			r.records = nil
			r.pending = appendShardRanges(nil, 0, run.Reps, size)
			if cerr := c.compactJournalLocked(); cerr != nil {
				c.log.Warn("cluster: journal compaction failed", "err", cerr)
			}
			c.journalRunStartLocked(r, run.Canonical)
		} else {
			replayed = int64(r.merger.Next())
		}
	} else {
		c.journalRunStartLocked(r, run.Canonical)
	}
	if r.merger.Next() == r.reps {
		// Every shard was already journalled: the run finished before the
		// crash and only its end record was lost. Settle without a worker.
		r.finished = true
		c.removeRunLocked(r)
		c.journalRunEndLocked(r)
		close(r.done)
		c.log.Info("cluster: run complete from journal alone", "run", r.id, "trace", r.trace.ID(), "reps", r.reps)
	} else {
		c.dispatchLocked()
	}
	c.mu.Unlock()
	if replayed > 0 && run.Observe != nil {
		run.Observe(replayed)
	}
	c.log.Info("cluster: run sharded", "run", r.id, "trace", r.trace.ID(), "reps", run.Reps, "shards", shards, "shard_size", size)

	select {
	case <-ctx.Done():
		c.abandonRun(r)
		return service.BackendResult{}, ctx.Err()
	case <-r.done:
		if r.err != nil {
			return service.BackendResult{}, r.err
		}
		return service.BackendResult{Completed: r.completed, Stream: r.stream}, nil
	}
}

// abandonRun withdraws a cancelled run: pending shards are dropped and its
// outstanding leases revoked, so late uploads settle as stale.
func (c *Coordinator) abandonRun(r *clusterRun) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.finished {
		return
	}
	r.finished = true
	c.removeRunLocked(r)
	c.log.Info("cluster: run abandoned", "run", r.id, "trace", r.trace.ID())
}

// removeRunLocked unregisters a settled run and revokes its leases.
// Callers hold the mutex and have set r.finished.
func (c *Coordinator) removeRunLocked(r *clusterRun) {
	delete(c.runs, r.id)
	for i, id := range c.runOrder {
		if id == r.id {
			c.runOrder = append(c.runOrder[:i], c.runOrder[i+1:]...)
			break
		}
	}
	for id, l := range c.leases {
		if l.run == r {
			delete(c.leases, id)
			if w, ok := c.workers[l.workerID]; ok {
				delete(w.leases, id)
			}
		}
	}
	r.pending = nil
	r.outstanding = 0
}

// failRunLocked settles a run with an error. Callers hold the mutex.
func (c *Coordinator) failRunLocked(r *clusterRun, err error) {
	if r.finished {
		return
	}
	r.err = err
	r.finished = true
	c.removeRunLocked(r)
	c.journalRunEndLocked(r)
	close(r.done)
	c.log.Warn("cluster: run failed", "run", r.id, "trace", r.trace.ID(), "err", err)
}

// register adds a worker to the registry.
func (c *Coordinator) register(req RegisterRequest) RegisterResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextWorker++
	w := &workerState{
		id:       fmt.Sprintf("w%06d", c.nextWorker),
		name:     req.Name,
		cpus:     req.CPUs,
		lastSeen: time.Now(),
		leases:   make(map[string]bool),
	}
	if len(req.Families) > 0 {
		w.families = make(map[string]bool, len(req.Families))
		for _, f := range req.Families {
			w.families[f] = true
		}
	}
	c.workers[w.id] = w
	c.log.Info("cluster: worker registered", "worker", w.id, "name", req.Name, "cpus", req.CPUs, "families", len(req.Families))
	return RegisterResponse{
		WorkerID:       w.id,
		LeaseTTLMillis: c.ttl.Milliseconds(),
	}
}

// awaitLease answers a lease request. With a compatible shard pending it
// grants one at once; otherwise it holds the request until Run or a
// lease-expiry requeue hands it one (dispatchLocked), and answers nil only
// when the hold window has elapsed or ReleaseHeld was called. A request
// whose context is done — the worker gave up or went away — keeps nothing:
// a shard handed to it goes straight back to the pool, so no lease is
// stranded on a requester that will never see it.
func (c *Coordinator) awaitLease(ctx context.Context, workerID string) (*Lease, error) {
	if ctx.Err() != nil {
		return nil, nil
	}
	c.mu.Lock()
	lease, err := c.grantLeaseLocked(workerID)
	if lease != nil || err != nil {
		c.mu.Unlock()
		return lease, err
	}
	h := &heldRequest{workerID: workerID, granted: make(chan struct{})}
	c.held = append(c.held, h)
	c.mu.Unlock()
	if c.onHold != nil {
		c.onHold()
	}

	window := time.NewTimer(c.poll)
	defer window.Stop()
	select {
	case <-h.granted:
	case <-window.C:
	case <-ctx.Done():
	case <-c.release:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if h.lease == nil {
		c.unholdLocked(h)
		return nil, nil
	}
	if ctx.Err() != nil {
		if l, ok := c.leases[h.lease.ID]; ok {
			c.reclaimLeaseLocked(l)
		}
		return nil, nil
	}
	return h.lease, nil
}

// unholdLocked removes a request that was granted nothing from the held
// list. Callers hold the mutex.
func (c *Coordinator) unholdLocked(h *heldRequest) {
	for i, other := range c.held {
		if other == h {
			c.held = append(c.held[:i], c.held[i+1:]...)
			return
		}
	}
}

// dispatchLocked hands pending shards to held lease requests. Requests from
// workers holding no lease go first, oldest first, then those of busy
// workers (a prefetch for their next shard): a worker still executing a
// shard never takes a new run's only shard from an idle one. Callers hold
// the mutex and have just added pending shards.
func (c *Coordinator) dispatchLocked() {
	for _, idle := range []bool{true, false} {
		kept := c.held[:0]
		for _, h := range c.held {
			// A request whose worker was forgotten answers null when its
			// window ends, and the worker's next request re-registers it.
			w, ok := c.workers[h.workerID]
			if !ok || (len(w.leases) == 0) != idle {
				kept = append(kept, h)
				continue
			}
			// The worker is known, so granting cannot fail.
			lease, _ := c.grantLeaseLocked(h.workerID)
			if lease == nil {
				kept = append(kept, h)
				continue
			}
			h.lease = lease
			close(h.granted)
		}
		clear(c.held[len(kept):])
		c.held = kept
	}
}

// ReleaseHeld answers every held lease request null at once and stops
// holding new ones, so an HTTP server shutting down is not kept waiting for
// hold windows. Call it once the server takes no new requests: rumord
// registers it with http.Server.RegisterOnShutdown. Before that, a worker
// answered null at once would re-ask without pause.
func (c *Coordinator) ReleaseHeld() {
	c.releaseOnce.Do(func() { close(c.release) })
}

// grantLeaseLocked hands the worker the lowest-start pending shard of the
// oldest compatible run, or nil when none is pending. Granting lowest start
// first keeps uploads near the merge frontier, bounding the merger's buffer
// of ahead-of-frontier chunks. Callers hold the mutex.
func (c *Coordinator) grantLeaseLocked(workerID string) (*Lease, error) {
	w, ok := c.workers[workerID]
	if !ok {
		return nil, errUnknownWorker
	}
	now := time.Now()
	w.lastSeen = now
	for _, runID := range c.runOrder {
		r := c.runs[runID]
		if len(r.pending) == 0 {
			continue
		}
		if w.families != nil && !w.families[r.family] {
			continue
		}
		sh := r.pending[0]
		r.pending = r.pending[1:]
		r.outstanding++
		c.nextLease++
		l := &lease{
			id:       fmt.Sprintf("l%08d", c.nextLease),
			workerID: workerID,
			run:      r,
			shard:    sh,
			granted:  now,
			expires:  now.Add(c.ttl),
		}
		c.leases[l.id] = l
		w.leases[l.id] = true
		return &Lease{
			ID:       l.id,
			Run:      r.id,
			Scenario: r.canonical,
			Seed:     r.seed,
			Start:    sh.start,
			Count:    sh.count,
			Trace:    r.trace.ID(),
		}, nil
	}
	return nil, nil
}

// heartbeat renews the worker and the leases it reports holding, and tells
// it which reported leases are no longer its to execute.
func (c *Coordinator) heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[req.WorkerID]
	if !ok {
		return HeartbeatResponse{}, errUnknownWorker
	}
	now := time.Now()
	w.lastSeen = now
	var resp HeartbeatResponse
	for _, id := range req.LeaseIDs {
		if l, ok := c.leases[id]; ok && l.workerID == req.WorkerID {
			l.expires = now.Add(c.ttl)
			continue
		}
		resp.Expired = append(resp.Expired, id)
	}
	return resp, nil
}

// result settles one uploaded range. Stale uploads — the lease was reclaimed
// or its run already settled — are acknowledged and discarded, which is what
// makes duplicate execution after a reclaim harmless.
func (c *Coordinator) result(req ResultRequest) (ResultResponse, error) {
	var (
		notify func()
		done   chan struct{} // closed once notify has run
	)
	c.mu.Lock()
	w, ok := c.workers[req.WorkerID]
	if !ok {
		c.mu.Unlock()
		return ResultResponse{}, errUnknownWorker
	}
	w.lastSeen = time.Now()
	l, ok := c.leases[req.LeaseID]
	if !ok || l.workerID != req.WorkerID {
		c.mu.Unlock()
		return ResultResponse{Stale: true}, nil
	}
	delete(c.leases, l.id)
	delete(w.leases, l.id)
	r := l.run
	r.outstanding--
	switch err := c.settleUploadLocked(r, l, req); {
	case err != nil:
		c.failRunLocked(r, err)
	default:
		// Journal before acknowledging: once the worker is told its upload
		// settled, the coordinator must be able to replay it after a crash.
		c.journalShardLocked(r, l.shard, req)
		c.recordShardSpansLocked(r, l, req)
		if r.observe != nil {
			delta := int64(l.shard.count)
			observe := r.observe
			notify = func() { observe(delta) }
		}
		if r.merger.Next() == r.reps {
			r.finished = true
			c.removeRunLocked(r)
			c.journalRunEndLocked(r)
			done = r.done
			c.log.Info("cluster: run complete", "run", r.id, "trace", r.trace.ID(), "reps", r.reps)
		}
	}
	c.mu.Unlock()
	if notify != nil {
		notify()
	}
	if done != nil {
		// Settling the run after its last progress report means Run never
		// returns with repetitions still unreported.
		close(done)
	}
	return ResultResponse{}, nil
}

// recordShardSpansLocked settles a shard's observability: the lease
// round-trip histogram and the run timeline get the lease span (grant →
// settled upload, on the coordinator's clock), the worker's own spans from
// the upload (its clock — skew shifts them within the timeline but never
// results), and a synthesized upload span from the worker's last span end to
// settlement. Callers hold the mutex.
func (c *Coordinator) recordShardSpansLocked(r *clusterRun, l *lease, req ResultRequest) {
	now := time.Now()
	c.histLease.Observe(now.Sub(l.granted))
	if r.trace == nil {
		return
	}
	rng := fmt.Sprintf("[%d,%d)", l.shard.start, l.shard.start+l.shard.count)
	r.trace.Add(obs.Span{
		Name:   "lease",
		Worker: l.workerID,
		Detail: rng,
		Start:  l.granted,
		End:    now,
	})
	var lastEnd time.Time
	for _, sp := range req.Spans {
		end := time.Unix(0, sp.EndUnixNano)
		if end.After(lastEnd) {
			lastEnd = end
		}
		r.trace.Add(obs.Span{
			Name:   sp.Name,
			Worker: sp.Worker,
			Detail: sp.Detail,
			Start:  time.Unix(0, sp.StartUnixNano),
			End:    end,
		})
	}
	if !lastEnd.IsZero() && lastEnd.Before(now) {
		r.trace.Add(obs.Span{
			Name:   "upload",
			Worker: l.workerID,
			Detail: rng,
			Start:  lastEnd,
			End:    now,
		})
	}
}

// settleUploadLocked validates one upload and folds it into the run's
// merger. Any validation failure is a protocol or integrity violation and
// fails the whole run — silently resampling a corrupted range would break
// the byte-identity contract. Callers hold the mutex.
func (c *Coordinator) settleUploadLocked(r *clusterRun, l *lease, req ResultRequest) error {
	if req.Error != "" {
		return fmt.Errorf("cluster: worker %s failed range [%d,%d): %s", req.WorkerID, l.shard.start, l.shard.start+l.shard.count, req.Error)
	}
	if len(req.Values) != l.shard.count {
		return fmt.Errorf("cluster: worker %s uploaded %d values for range [%d,%d)", req.WorkerID, len(req.Values), l.shard.start, l.shard.start+l.shard.count)
	}
	if req.Completed < 0 || req.Completed > l.shard.count {
		return fmt.Errorf("cluster: worker %s reported %d completions for a %d-rep range", req.WorkerID, req.Completed, l.shard.count)
	}
	// Integrity cross-check: replaying the raw values must reproduce the
	// worker's own stream snapshot bit for bit. A mismatch means the
	// observations were corrupted in flight (or the worker's accumulator
	// diverged), either of which would silently poison the exact merge.
	check := service.NewSummaryStream()
	for _, v := range req.Values {
		check.Add(v)
	}
	want, err := check.MarshalBinary()
	if err != nil {
		return fmt.Errorf("cluster: snapshot check: %w", err)
	}
	if !bytes.Equal(want, req.Stream) {
		return fmt.Errorf("cluster: worker %s: range [%d,%d) snapshot does not match its values", req.WorkerID, l.shard.start, l.shard.start+l.shard.count)
	}
	if err := r.merger.Add(stats.Chunk{Start: l.shard.start, Values: req.Values}); err != nil {
		return err
	}
	r.completed += req.Completed
	return nil
}

// sweep is the expiry loop: four times per TTL it reclaims leases whose
// window lapsed and forgets workers that went silent. Reclaimed shards
// return to their run's pending pool in start order, so a reassigned range
// is re-executed deterministically by whoever claims it next.
func (c *Coordinator) sweep() {
	defer close(c.sweepDone)
	tick := time.NewTicker(c.ttl / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.sweepStop:
			return
		case <-tick.C:
			c.sweepOnce(time.Now())
		}
	}
}

// sweepOnce performs one expiry pass.
func (c *Coordinator) sweepOnce(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		c.reclaimLeaseLocked(l)
		c.reassigned++
		c.log.Warn("cluster: lease expired; range returned to pool",
			"lease", id, "worker", l.workerID, "run", l.run.id, "trace", l.run.trace.ID(),
			"start", l.shard.start, "end", l.shard.start+l.shard.count)
	}
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.ttl {
			continue
		}
		delete(c.workers, id)
		c.log.Warn("cluster: worker presumed dead", "worker", id, "name", w.name, "silence", c.ttl)
	}
}

// reclaimLeaseLocked revokes a granted lease and returns its shard to the
// run's pending pool. Callers hold the mutex.
func (c *Coordinator) reclaimLeaseLocked(l *lease) {
	delete(c.leases, l.id)
	if w, ok := c.workers[l.workerID]; ok {
		delete(w.leases, l.id)
	}
	l.run.outstanding--
	c.requeueShardLocked(l.run, l.shard)
}

// requeueShardLocked reinserts a reclaimed shard into the run's pending
// pool, keeping it sorted by start, and hands it to a held lease request if
// one may run it. Callers hold the mutex.
func (c *Coordinator) requeueShardLocked(r *clusterRun, sh shard) {
	if r.finished {
		return
	}
	i := sort.Search(len(r.pending), func(i int) bool { return r.pending[i].start >= sh.start })
	r.pending = append(r.pending, shard{})
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = sh
	c.dispatchLocked()
}

// ClusterStats exports the coordinator gauges into the service /metrics
// document (the service discovers this method by interface assertion).
func (c *Coordinator) ClusterStats() service.ClusterStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return service.ClusterStats{
		Workers:           len(c.workers),
		LeasesOutstanding: len(c.leases),
		LeasesReassigned:  c.reassigned,
		RunsReadopted:     c.runsReadopted,
		ShardsReplayed:    c.shardsReplayed,
	}
}

// Ready implements the service's backend readiness check: with zero live
// workers a new submission would sit in the queue until one joined, holding
// a scheduler slot and the client's patience for work that cannot start.
// Failing fast with Retry-After lets clients back off and resubmit once the
// fleet is back. Cache hits, coalesced followers and crash-recovered jobs
// are exempt — the service only consults Ready for fresh work.
func (c *Coordinator) Ready() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.workers) == 0 {
		return &service.UnavailableError{
			Reason:     "cluster: no live workers joined; retry once a worker registers",
			RetryAfter: c.ttl,
		}
	}
	return nil
}
