package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"dynamicrumor/internal/engine"
	"dynamicrumor/internal/obs"
	"dynamicrumor/internal/retry"
	"dynamicrumor/internal/runner"
	"dynamicrumor/internal/service"
	"dynamicrumor/internal/sim"
)

// WorkerConfig configures a cluster worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// Name optionally labels the worker in coordinator logs.
	Name string
	// CPUs is the engine parallelism within a lease (<= 0 selects
	// GOMAXPROCS). Announced to the coordinator as the worker's CPU budget.
	CPUs int
	// Families restricts the worker to the named network families; nil
	// announces support for every family.
	Families []string
	// Client overrides the HTTP client (nil selects one with a 30s timeout).
	// Its timeout must exceed the coordinator's 500 ms hold of an idle lease
	// request.
	Client *http.Client
	// Logger, when non-nil, receives worker lifecycle events as structured
	// log lines; nil discards them.
	Logger *slog.Logger
}

// Worker executes leased repetition ranges for a coordinator. Create with
// NewWorker and drive with Run; the worker registers itself, heartbeats, and
// re-registers transparently if the coordinator forgets it.
type Worker struct {
	base     string
	name     string
	cpus     int
	families []string
	client   *http.Client
	log      *slog.Logger

	mu   sync.Mutex
	id   string
	ttl  time.Duration
	held map[string]context.CancelFunc // lease ID -> abandon

	// compiled is the last lease's compiled scenario, keyed by its canonical
	// bytes (compiledFor). The coordinator grants the oldest run's lowest
	// pending shard first, so a worker's consecutive leases are mostly shards
	// of one run, and reuse skips rebuilding a shareable network (a clique's,
	// say) for each; a family built per repetition gains nothing. The one
	// entry bounds memory to one network. Touched only by the Run loop.
	compiledFor []byte
	compiled    *engine.Compiled
}

// NewWorker returns an unstarted worker.
func NewWorker(cfg WorkerConfig) *Worker {
	w := &Worker{
		base:     cfg.Coordinator,
		name:     cfg.Name,
		cpus:     runner.Parallelism(cfg.CPUs),
		families: cfg.Families,
		client:   cfg.Client,
		log:      cfg.Logger,
		held:     make(map[string]context.CancelFunc),
	}
	if w.client == nil {
		w.client = &http.Client{Timeout: 30 * time.Second}
	}
	if w.log == nil {
		w.log = obs.NopLogger()
	}
	return w
}

// errStaleWorker marks a 404 from the coordinator: the registration lapsed
// (or never happened) and the worker must register again.
var errStaleWorker = errors.New("cluster: coordinator does not know this worker")

// Run is the worker loop: register, heartbeat in the background, and
// claim-execute-upload leases until ctx is cancelled. A lease request is
// held by the coordinator until work arrives or its hold window runs out, so
// an empty answer is re-asked at once, without a sleep. It returns ctx.Err()
// on cancellation; transient coordinator failures are retried with backoff,
// never surfaced.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}

	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		w.heartbeatLoop(hbCtx)
	}()
	defer hbDone.Wait()

	// Consecutive lease-request failures back off with full jitter instead
	// of hammering a coordinator that is down or restarting; any success (or
	// a quiet "no work" answer) resets the sequence.
	leaseRetry := retry.Policy{Base: 100 * time.Millisecond, Cap: 5 * time.Second}
	failures := 0
	// next is the double-buffered lease: while a shard executes, one request
	// for the following lease is in flight, so the worker moves from upload
	// straight into the next range instead of idling a round trip. At most
	// two leases are ever outstanding — the executing one and the prefetched
	// one — and the prefetched lease is registered in held immediately, so
	// heartbeats renew it and coordinator-reported expiry abandons it before
	// it starts, exactly as for an executing lease.
	var next *heldLease
	defer func() {
		if next != nil {
			w.release(next)
		}
	}()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		hl := next
		next = nil
		if hl == nil {
			lease, err := w.requestLease(ctx)
			switch {
			case errors.Is(err, errStaleWorker):
				failures = 0
				if err := w.register(ctx); err != nil {
					return err
				}
				continue
			case err != nil:
				if ctx.Err() != nil {
					return ctx.Err()
				}
				failures++
				w.log.Warn("worker: lease request failed", "err", err)
				if !retry.Sleep(ctx, leaseRetry.Delay(failures-1)) {
					return ctx.Err()
				}
				continue
			case lease == nil:
				failures = 0
				continue
			}
			hl = w.acquire(ctx, lease)
		}
		failures = 0
		prefetched := make(chan *heldLease, 1)
		go w.prefetchLease(ctx, prefetched)
		w.execute(ctx, hl)
		next = <-prefetched
	}
}

// heldLease is a lease the worker owns, with the context its execution (and
// abandonment) runs under. Acquired at claim time — before execution starts
// for prefetched leases — so the heartbeat loop renews it from the moment
// the coordinator granted it.
type heldLease struct {
	lease  *Lease
	ctx    context.Context
	cancel context.CancelFunc
}

// acquire registers a granted lease in the held set.
func (w *Worker) acquire(ctx context.Context, lease *Lease) *heldLease {
	leaseCtx, cancel := context.WithCancel(ctx)
	w.mu.Lock()
	w.held[lease.ID] = cancel
	w.mu.Unlock()
	return &heldLease{lease: lease, ctx: leaseCtx, cancel: cancel}
}

// release removes a lease from the held set and cancels its context.
func (w *Worker) release(hl *heldLease) {
	w.mu.Lock()
	delete(w.held, hl.lease.ID)
	w.mu.Unlock()
	hl.cancel()
}

// prefetchLease makes one (non-retried) held claim for the next lease while
// the current shard executes. Failures and empty answers deliver nil and the
// main loop falls back to its ordinary claim path, with its usual backoff
// and re-registration handling.
func (w *Worker) prefetchLease(ctx context.Context, out chan<- *heldLease) {
	lease, err := w.requestLease(ctx)
	if err != nil || lease == nil {
		out <- nil
		return
	}
	out <- w.acquire(ctx, lease)
}

// register announces the worker, retrying with jittered backoff until it
// succeeds or ctx is cancelled — a worker outliving its coordinator's crash
// keeps knocking until the restarted coordinator answers.
func (w *Worker) register(ctx context.Context) error {
	policy := retry.Policy{Base: 100 * time.Millisecond, Cap: 5 * time.Second, PerAttempt: 10 * time.Second}
	err := policy.Do(ctx, func(ctx context.Context) error {
		var resp RegisterResponse
		err := w.post(ctx, "/v1/cluster/register", RegisterRequest{
			Name:     w.name,
			CPUs:     w.cpus,
			Families: w.families,
		}, &resp)
		if err != nil {
			if ctx.Err() == nil {
				w.log.Warn("worker: register failed", "err", err)
			}
			return err
		}
		w.mu.Lock()
		w.id = resp.WorkerID
		w.ttl = time.Duration(resp.LeaseTTLMillis) * time.Millisecond
		w.mu.Unlock()
		w.log.Info("worker: registered", "worker", resp.WorkerID, "lease_ttl_ms", resp.LeaseTTLMillis)
		return nil
	})
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// heartbeatLoop renews the registration and held leases at a third of the
// TTL. A 404 means the coordinator forgot us; the main loop discovers that
// on its next request and re-registers, so here it is only logged. Leases
// the coordinator reports expired are abandoned immediately.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		interval := w.leaseTTL() / 3
		if interval <= 0 {
			interval = time.Second
		}
		if !retry.Sleep(ctx, interval) {
			return
		}
		id, leaseIDs := w.snapshot()
		if id == "" {
			continue
		}
		var resp HeartbeatResponse
		err := w.post(ctx, "/v1/cluster/heartbeat", HeartbeatRequest{WorkerID: id, LeaseIDs: leaseIDs}, &resp)
		if err != nil {
			if ctx.Err() == nil {
				w.log.Warn("worker: heartbeat failed", "err", err)
			}
			continue
		}
		for _, leaseID := range resp.Expired {
			w.abandon(leaseID)
		}
	}
}

// execute runs one lease on the local engine and uploads the result. The
// repetition range reproduces exactly the streams a single-node run would
// have drawn for those indices, so the uploaded observations are
// bit-identical to that run's slice.
func (w *Worker) execute(ctx context.Context, hl *heldLease) {
	lease, leaseCtx := hl.lease, hl.ctx
	defer w.release(hl)

	result := ResultRequest{LeaseID: lease.ID}
	e0 := time.Now()
	values, completed, err := w.executeRange(leaseCtx, lease)
	e1 := time.Now()
	switch {
	case err != nil && leaseCtx.Err() != nil && ctx.Err() == nil:
		// The lease was abandoned (coordinator reported it expired): the
		// range is someone else's now; uploading would only be discarded.
		w.log.Info("worker: lease abandoned mid-range", "lease", lease.ID, "trace", lease.Trace)
		return
	case err != nil && ctx.Err() != nil:
		return
	case err != nil:
		result.Error = err.Error()
	default:
		snapshot := service.NewSummaryStream()
		for _, v := range values {
			snapshot.Add(v)
		}
		blob, merr := snapshot.MarshalBinary()
		if merr != nil {
			result.Error = merr.Error()
		} else {
			result.Values = values
			result.Completed = completed
			result.Stream = blob
		}
	}
	if lease.Trace != "" {
		// Worker-clock timing of the range for the run's flight-recorder
		// timeline; skew shifts the span, never the merged result.
		result.Spans = []TraceSpan{{
			Name:          "execute",
			Worker:        w.workerID(),
			Detail:        fmt.Sprintf("[%d,%d)", lease.Start, lease.Start+lease.Count),
			StartUnixNano: e0.UnixNano(),
			EndUnixNano:   e1.UnixNano(),
		}}
	}
	w.upload(ctx, result, lease.Trace)
}

// executeRange runs the lease's repetition range, collecting the raw
// spread-time observations in repetition order.
func (w *Worker) executeRange(ctx context.Context, lease *Lease) ([]float64, int, error) {
	compiled, err := w.compile(lease.Scenario)
	if err != nil {
		return nil, 0, err
	}
	eng := engine.Engine{Parallelism: w.cpus, Seed: lease.Seed}
	values := make([]float64, 0, lease.Count)
	completed := 0
	err = eng.RunReduceRangeCtx(ctx, compiled, lease.Start, lease.Count, func(rep int, res *sim.Result) error {
		values = append(values, res.SpreadTime)
		if res.Completed {
			completed++
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return values, completed, nil
}

// compile returns the compiled form of a lease's canonical scenario,
// reusing the previous lease's when the bytes are equal.
func (w *Worker) compile(scenario []byte) (*engine.Compiled, error) {
	if w.compiled != nil && bytes.Equal(scenario, w.compiledFor) {
		return w.compiled, nil
	}
	sc, err := engine.Parse(scenario)
	if err != nil {
		return nil, err
	}
	compiled, err := engine.Compile(sc)
	if err != nil {
		return nil, err
	}
	w.compiledFor, w.compiled = scenario, compiled
	return compiled, nil
}

// upload posts a result with jittered, bounded retries; a stale
// acknowledgement or a lapsed registration permanently drops the result —
// the coordinator has already rearranged the work.
func (w *Worker) upload(ctx context.Context, result ResultRequest, trace string) {
	policy := retry.Policy{Base: 100 * time.Millisecond, Cap: 5 * time.Second, Attempts: 4, PerAttempt: 15 * time.Second}
	err := policy.Do(ctx, func(ctx context.Context) error {
		result.WorkerID = w.workerID()
		var resp ResultResponse
		err := w.postTraced(ctx, "/v1/cluster/result", result, &resp, trace)
		switch {
		case errors.Is(err, errStaleWorker):
			w.log.Warn("worker: registration lapsed; dropping lease result", "lease", result.LeaseID)
			return retry.Permanent(err)
		case err != nil:
			if ctx.Err() == nil {
				w.log.Warn("worker: lease upload failed", "lease", result.LeaseID, "err", err)
			}
			return err
		case resp.Stale:
			w.log.Info("worker: lease result was stale", "lease", result.LeaseID)
			return nil
		default:
			return nil
		}
	})
	if err != nil && ctx.Err() == nil && !errors.Is(err, errStaleWorker) {
		w.log.Warn("worker: giving up on lease result", "lease", result.LeaseID, "err", err)
	}
}

// requestLease asks the coordinator for work; the coordinator holds the
// request until a lease can be granted or its hold window runs out.
func (w *Worker) requestLease(ctx context.Context) (*Lease, error) {
	var resp LeaseResponse
	if err := w.post(ctx, "/v1/cluster/lease", LeaseRequest{WorkerID: w.workerID()}, &resp); err != nil {
		return nil, err
	}
	return resp.Lease, nil
}

// abandon cancels a held lease's execution.
func (w *Worker) abandon(leaseID string) {
	w.mu.Lock()
	cancel, ok := w.held[leaseID]
	w.mu.Unlock()
	if ok {
		w.log.Info("worker: abandoning expired lease", "lease", leaseID)
		cancel()
	}
}

// snapshot reads the worker's identity and held lease IDs.
func (w *Worker) snapshot() (string, []string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids := make([]string, 0, len(w.held))
	for id := range w.held {
		ids = append(ids, id)
	}
	return w.id, ids
}

func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

func (w *Worker) leaseTTL() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ttl
}

// post sends one protocol request and decodes the response into out.
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	return w.postTraced(ctx, path, in, out, "")
}

// postTraced is post with an optional X-Trace-Id header, so result uploads
// announce the run timeline they belong to.
func (w *Worker) postTraced(ctx context.Context, path string, in, out any, trace string) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResultBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusNotFound {
		return errStaleWorker
	}
	if resp.StatusCode != http.StatusOK {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("cluster: %s: %s (status %d)", path, apiErr.Error, resp.StatusCode)
		}
		return fmt.Errorf("cluster: %s: status %d", path, resp.StatusCode)
	}
	return json.Unmarshal(data, out)
}
