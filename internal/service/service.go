package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dynamicrumor/internal/buildinfo"
	"dynamicrumor/internal/engine"
	"dynamicrumor/internal/obs"
	"dynamicrumor/internal/runner"
	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/store"
)

// Config carries the service policy knobs. The zero value selects sensible
// defaults everywhere.
type Config struct {
	// Budget is the total number of engine worker goroutines shared by every
	// running job (<= 0 selects runtime.GOMAXPROCS(0)). The scheduler grants
	// each dispatched job a slice of the budget and never exceeds it in
	// aggregate, so the service's CPU footprint is bounded no matter how many
	// jobs are in flight.
	Budget int
	// QueueLimit bounds the number of queued jobs; submissions beyond it are
	// rejected with 429 (<= 0 selects 256).
	QueueLimit int
	// CacheLimit bounds the result cache entries (<= 0 selects 1024).
	CacheLimit int
	// MaxReps bounds a single job's repetition count (<= 0 selects 10⁷).
	MaxReps int
	// DefaultStream, when non-zero, is the async stream discipline applied to
	// submitted scenarios that do not pin one (sim.StreamV1 or sim.StreamV2;
	// other values panic in New). It is applied before canonicalization, so
	// the cache key always reflects the discipline that actually runs — a v2
	// default never serves results from v1 cache entries. Scenarios that
	// spell an explicit stream version, and non-async scenarios, are left
	// untouched.
	DefaultStream int
	// HistoryLimit bounds the retained terminal job records (<= 0 selects
	// 4096), so a long-lived daemon's memory does not grow with lifetime
	// submissions. The bounds are amortized, each overshooting by up to 1/8
	// before a prune: up to 9/8·HistoryLimit terminal plain jobs are kept,
	// the oldest forgotten first, plus up to 9/8·max(16, HistoryLimit/8)
	// terminal sweeps with all their cells (up to 4096 each), which count
	// against the sweep bound instead. Queued and running jobs and
	// unfinished sweeps are never evicted.
	HistoryLimit int
	// Backend executes dispatched runs (nil selects LocalBackend — in-process
	// execution on the batch engine). The cluster coordinator plugs in here to
	// shard runs across remote workers; every backend is bound by the same
	// determinism contract, so the cache, coalescing and summary byte-identity
	// hold regardless of where repetitions execute.
	Backend Backend
	// Version is the build identity served by /healthz and /metrics (empty
	// selects buildinfo.Version()).
	Version string
	// CacheDir, when set, layers a disk-backed persistent result cache under
	// the in-memory one: completed summaries are written through (atomic,
	// checksummed, content-addressed by run key), survive restarts, and are
	// replayed byte-identically. Corrupt entries are quarantined and treated
	// as misses, never served.
	CacheDir string
	// CacheMaxBytes bounds the disk cache's total size; least-recently-used
	// entries are evicted beyond it (<= 0 selects 256 MiB).
	CacheMaxBytes int64
	// StateDir, when set, enables the durable run ledger: accepted jobs are
	// journalled (fsync'd before the submission is acknowledged) and
	// re-adopted on restart, so in-flight runs survive SIGKILL. A cluster
	// coordinator sharing the directory keeps its own journal there too.
	StateDir string
	// RatePerSec, when positive, enables per-client token-bucket rate
	// limiting of the submission endpoints: each client host is admitted
	// RatePerSec work-creating submissions per second. Cache hits and
	// coalesced submissions are exempt — they cost nothing to serve.
	RatePerSec float64
	// RateBurst is the token-bucket capacity (<= 0 selects twice the rate,
	// at least 1). Ignored unless RatePerSec is positive.
	RateBurst int
	// Logger, when non-nil, receives the service's structured log events
	// (durability, recovery, scheduling); nil discards them. Every line
	// carries the relevant run/sweep/trace IDs as attributes.
	Logger *slog.Logger
	// Observe, when non-nil, is the shared latency-histogram registry; nil
	// selects a private one. cmd/rumord hands the service and the cluster
	// coordinator the same registry so lease round-trip latency lands in the
	// same /metrics document.
	Observe *obs.Registry
	// LogRequests enables the structured HTTP access log on every endpoint
	// (one line per request with method, path, status, bytes, duration and
	// trace ID). The HTTP latency histogram records regardless.
	LogRequests bool
	// Clock overrides the time source (tests pin it for golden responses).
	Clock func() time.Time
}

// Service schedules ensemble runs onto the batch engine and caches their
// results. Create one with New, expose it with Handler, stop it with Close.
type Service struct {
	budget        int
	queueLimit    int
	maxReps       int
	historyLimit  int
	defaultStream int
	backend       Backend
	version       string
	clock         func() time.Time
	log           *slog.Logger
	logRequests   bool

	// Observability (see internal/obs): the shared histogram registry and the
	// hot-path histograms. Run timelines live on the job records.
	reg           *obs.Registry
	histQueueWait *obs.Histogram
	histRun       *obs.Histogram
	histCacheGet  *obs.Histogram
	histHTTP      *obs.Histogram

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*job
	jobs      map[string]*job
	order     []string
	inflight  map[string]*job
	terminal  int
	nextID    int
	inUse     int
	closed    bool
	cache     *resultCache
	hits      int64
	misses    int64
	coalesced int64
	started   time.Time

	// Sweep subsystem (see sweep.go). submitSeq totally orders submissions
	// across jobs and sweeps so ledger compaction preserves replay order.
	sweeps          map[string]*sweep
	sweepOrder      []string
	nextSweepID     int
	sweepTerminal   int
	submitSeq       int
	sweepsSubmitted int64
	sweepsRecovered int64

	// Rate limiting (nil unless Config.RatePerSec is positive).
	limiter     *rateLimiter
	rateLimited int64

	// Durability layer (nil / zero when CacheDir / StateDir are unset).
	disk          *store.Cache
	journal       *store.Journal
	jobsRecovered int64
	recoveredKeys []string
	compactions   int64

	// repsDone counts every reduced repetition, including those of jobs that
	// were later cancelled; finishedReps/busy only aggregate jobs that ran to
	// completion, so reps-per-second is a throughput of useful work.
	repsDone     atomic.Int64
	finishedReps int64
	busy         time.Duration

	wg sync.WaitGroup
}

// New starts a service (its dispatcher goroutine runs until Close). With
// Config.StateDir it replays the run ledger first, re-adopting every
// submission that had not settled when the previous process died; with
// Config.CacheDir it opens the persistent result cache. Either failing to
// open is a startup error — running without the durability the operator
// asked for would be a silent downgrade.
func New(cfg Config) (*Service, error) {
	switch cfg.DefaultStream {
	case 0, sim.StreamV1, sim.StreamV2:
	default:
		return nil, fmt.Errorf("service: invalid DefaultStream %d (want 0, 1 or 2)", cfg.DefaultStream)
	}
	s := &Service{
		budget:        runner.Parallelism(cfg.Budget),
		queueLimit:    cfg.QueueLimit,
		maxReps:       cfg.MaxReps,
		historyLimit:  cfg.HistoryLimit,
		defaultStream: cfg.DefaultStream,
		backend:       cfg.Backend,
		version:       cfg.Version,
		clock:         cfg.Clock,
		log:           cfg.Logger,
		logRequests:   cfg.LogRequests,
		reg:           cfg.Observe,
	}
	if s.backend == nil {
		s.backend = LocalBackend{}
	}
	if s.version == "" {
		s.version = buildinfo.Version()
	}
	if s.queueLimit <= 0 {
		s.queueLimit = 256
	}
	if s.maxReps <= 0 {
		s.maxReps = 10_000_000
	}
	if s.historyLimit <= 0 {
		s.historyLimit = 4096
	}
	if s.clock == nil {
		s.clock = time.Now
	}
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	// Register every histogram at startup — including the lease round-trip
	// one the coordinator records into when it shares this registry — so the
	// /metrics document exposes the full set in every deployment mode.
	s.histQueueWait = s.reg.Histogram("queue_wait", "Seconds jobs spent queued before dispatch.")
	s.histRun = s.reg.Histogram("run_duration", "Seconds dispatched jobs spent running to done.")
	s.histCacheGet = s.reg.Histogram("cache_lookup", "Seconds spent in result cache lookups (memory, then disk).")
	s.reg.Histogram("lease_roundtrip", "Seconds from cluster lease grant to its settled result upload.")
	s.histHTTP = s.reg.Histogram("http_request", "Seconds serving HTTP requests across every endpoint.")
	cacheLimit := cfg.CacheLimit
	if cacheLimit <= 0 {
		cacheLimit = 1024
	}
	s.cache = newResultCache(cacheLimit)
	s.cond = sync.NewCond(&s.mu)
	s.jobs = make(map[string]*job)
	s.inflight = make(map[string]*job)
	s.sweeps = make(map[string]*sweep)
	if cfg.RatePerSec > 0 {
		s.limiter = newRateLimiter(cfg.RatePerSec, cfg.RateBurst)
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.started = s.clock()
	if cfg.CacheDir != "" {
		disk, err := store.OpenCache(cfg.CacheDir, cfg.CacheMaxBytes)
		if err != nil {
			return nil, err
		}
		s.disk = disk
	}
	if cfg.StateDir != "" {
		// Replay and re-adoption happen before the dispatcher exists, so the
		// recovered queue is complete before anything is granted workers.
		if err := s.openLedger(filepath.Join(cfg.StateDir, "service.journal")); err != nil {
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.dispatch()
	return s, nil
}

// Close stops the service: queued jobs are cancelled, running jobs are
// cancelled at their next repetition boundary, and Close returns once every
// goroutine has settled. The HTTP handlers reject new submissions afterwards.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	now := s.clock()
	for _, j := range s.queue {
		j.state = StateCancelled
		j.errMsg = "cancelled: service shutting down"
		j.finished = now
		s.markTerminalLocked(j)
		s.settleFollowersLocked(j)
	}
	s.queue = nil
	s.baseCancel()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			s.log.Error("service: journal close failed", "err", err)
		}
	}
}

// submit admits one planned run through admitLocked. Only new work —
// neither cached nor in flight — is checked by admissibleLocked and
// journalled, so cache hits and coalesced submissions are served without
// consulting backend readiness, queue room or the client's rate limit. A
// refused submission leaves no job record, and its job ID goes to the next
// accepted one. The returned view is rendered atomically with the admission, so a
// submit response always reads "queued" (or "done" for a cache hit) even if
// the dispatcher picks the job up immediately.
func (s *Service) submit(pc plannedCell, reps int, client string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobView{}, errShutdown
	}
	now := s.clock()
	cached, hit := s.lookupCacheLocked(pc.key)
	j := s.newJobLocked(fmt.Sprintf("j%08d", s.nextID+1), pc, reps, now)
	if !hit && s.inflight[pc.key] == nil {
		if err := s.admissibleLocked(1, client, now); err != nil {
			return JobView{}, err
		}
		// A run the ledger cannot replay is refused rather than acknowledged:
		// a restart would silently forget it.
		if err := s.journalSubmitLocked(j); err != nil {
			return JobView{}, fmt.Errorf("journal submission: %w", err)
		}
	}
	s.nextID++
	s.admitLocked(j, cached, hit, now, false)
	return j.view(), nil
}

// admissibleLocked checks that need new runs may be queued: the backend is
// ready, the queue has room for all of them, and the client's rate limit
// admits the submission. Cache hits and coalesced work never need it.
// Callers hold the mutex.
func (s *Service) admissibleLocked(need int, client string, now time.Time) error {
	if rc, ok := s.backend.(readyChecker); ok {
		if err := rc.Ready(); err != nil {
			return err
		}
	}
	if len(s.queue)+need > s.queueLimit {
		return errQueueFull
	}
	return s.allowLocked(client, now)
}

// newJobLocked builds the record of one planned run — a submission, a sweep
// cell or a job recovered from the ledger — and opens its trace. Trace IDs
// are deterministic ("tr-" plus the job ID), so golden responses stay stable
// and a cluster worker's spans stitch into the same timeline by ID alone.
// admitLocked registers the job. Callers hold the mutex.
func (s *Service) newJobLocked(id string, pc plannedCell, reps int, submitted time.Time) *job {
	s.submitSeq++
	return &job{
		id:        id,
		seq:       s.submitSeq,
		scenario:  pc.sc,
		canonical: pc.canonical,
		key:       pc.key,
		reps:      reps,
		seed:      pc.seed,
		cellLabel: pc.label,
		submitted: submitted,
		trace:     obs.NewTrace("tr-"+id, id),
	}
}

// admitLocked registers a job and sends it down the admission ladder that
// POST /v1/runs, sweep cells and recovered jobs share. A cached summary
// (the caller's lookup: cached, hit) settles the job at once; an identical
// in-flight run takes it as a follower — the engine would compute
// bit-identical results, so it consumes no queue slot and no worker budget
// and settles with its leader; anything else is queued as a new leader.
// Recovered entries leave the client-facing hit, miss and coalesce counters
// alone, and the keys they queue are listed by RecoveredKeys. Callers hold
// the mutex.
func (s *Service) admitLocked(j *job, cached json.RawMessage, hit bool, now time.Time, recovered bool) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	leader := s.inflight[j.key]
	switch {
	case hit:
		if !recovered {
			s.hits++
		}
		j.state = StateDone
		j.cacheHit = true
		j.started, j.finished = now, now
		j.summary = cached
		s.markTerminalLocked(j)
		s.pruneHistoryLocked()
	case leader != nil:
		if !recovered {
			s.coalesced++
		}
		j.state = StateQueued
		j.leader = leader
		leader.followers = append(leader.followers, j)
		j.trace.Add(obs.Span{Name: "coalesced", Detail: "leader=" + leader.id, Start: now, End: now})
	default:
		if recovered {
			s.recoveredKeys = append(s.recoveredKeys, j.key)
		} else {
			s.misses++
		}
		j.state = StateQueued
		s.queue = append(s.queue, j)
		s.inflight[j.key] = j
		s.cond.Signal()
	}
}

// lookupCacheLocked consults the in-memory result cache and, on a miss, the
// disk-backed one, promoting a disk hit back into memory. Callers hold the
// mutex. Lookup latency — dominated by the disk tier on memory misses —
// feeds the cache_lookup histogram.
func (s *Service) lookupCacheLocked(key string) (json.RawMessage, bool) {
	t0 := time.Now()
	defer func() { s.histCacheGet.Observe(time.Since(t0)) }()
	if summary, ok := s.cache.get(key); ok {
		return summary, true
	}
	if s.disk == nil {
		return nil, false
	}
	payload, ok := s.disk.Get(key)
	if !ok {
		return nil, false
	}
	s.cache.put(key, payload)
	return payload, true
}

// pruneHistoryLocked forgets the oldest terminal job records beyond the
// history limit, bounding the service's memory over its lifetime. Queued,
// running and coalesced-in-flight jobs are never evicted, and sweep cells
// are excluded — their lifetime is their sweep's, bounded separately by
// pruneSweepsLocked. Callers hold the mutex.
func (s *Service) pruneHistoryLocked() {
	// The terminal counter makes the common case O(1); the O(jobs)
	// compaction walk is amortized by letting the history overshoot the
	// limit by 1/8 before paying for it.
	if s.terminal <= s.historyLimit+s.historyLimit/8 {
		return
	}
	excess := s.terminal - s.historyLimit
	keep := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j.sweep == nil && j.state.Terminal() {
			delete(s.jobs, id)
			s.terminal--
			excess--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

// markTerminalLocked records a job's entry into a terminal state: plain jobs
// feed the history accounting, sweep cells feed their sweep's settlement
// tracking instead (cells are retained and pruned with the sweep, so they
// never count against the plain-job history bound). The parsed scenario is
// dropped: a settled job never runs again, and its views and ledger record
// serve the canonical encoding. Callers hold the mutex, and call this
// exactly once per job, at its terminal transition.
func (s *Service) markTerminalLocked(j *job) {
	j.scenario = engine.Scenario{}
	if j.sweep == nil {
		s.terminal++
	}
	s.noteCellSettledLocked(j)
}

// grantWorkers decides a dispatched job's share of the worker budget: every
// free worker, capped by the job's repetition count (more workers than
// repetitions would idle). The dispatcher only calls it with free capacity,
// so the grant is always at least 1; a later job can start alongside a
// running one whenever the head job left budget unused.
func grantWorkers(reps, budget, inUse int) int {
	free := budget - inUse
	if free <= 0 {
		return 0
	}
	if reps < free {
		return reps
	}
	return free
}

// dispatch is the scheduler loop: strictly FIFO — the head job waits for
// free budget and nothing overtakes it — with each dispatched job granted
// grantWorkers of the shared budget for its whole run.
func (s *Service) dispatch() {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for !s.closed && (len(s.queue) == 0 || s.inUse >= s.budget) {
			s.cond.Wait()
		}
		if s.closed {
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		workers := grantWorkers(j.reps, s.budget, s.inUse)
		s.inUse += workers
		j.workers = workers
		j.state = StateRunning
		j.started = s.clock()
		s.histQueueWait.Observe(j.started.Sub(j.submitted))
		ctx, cancel := context.WithCancel(s.baseCtx)
		j.cancel = cancel
		s.wg.Add(1)
		go s.runJob(j, ctx, cancel, workers)
	}
}

// runJob executes one job through the backend and settles its terminal
// state. The backend's determinism contract means the summary depends only on
// (canonical scenario, seed, reps) — never on the worker grant or on which
// nodes executed which repetitions — which is what makes the result cacheable.
func (s *Service) runJob(j *job, ctx context.Context, cancel context.CancelFunc, workers int) {
	defer s.wg.Done()
	// Release the context on every exit path: a finished job must not stay
	// registered in the base context's children, or daemon memory would grow
	// with lifetime jobs despite the bounded history.
	defer cancel()
	res, err := s.backend.Run(ctx, BackendRun{
		Scenario:  j.scenario,
		Canonical: j.canonical,
		Key:       j.key,
		Reps:      j.reps,
		Seed:      j.seed,
		Workers:   workers,
		Observe: func(delta int64) {
			j.repsDone.Add(delta)
			s.repsDone.Add(delta)
		},
		Compile: j.compile,
		Trace:   j.trace,
	})
	var summary []byte
	if err == nil {
		summary, err = buildSummary(j.key, j.reps, j.seed, res.Completed, res.Stream)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.inUse -= workers
	s.cond.Broadcast()
	j.finished = s.clock()
	j.cancel = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.summary = summary
		s.cache.put(j.key, summary)
		if s.disk != nil {
			// Write through before the settle record: once the ledger calls a
			// run settled, its result must be durably replayable.
			if derr := s.disk.Put(j.key, summary); derr != nil {
				s.log.Warn("service: disk cache write failed", "job", j.id, "key", j.key, "err", derr)
			}
		}
		s.finishedReps += int64(j.reps)
		s.busy += j.finished.Sub(j.started)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCancelled
		j.errMsg = "cancelled after " + fmt.Sprint(j.repsDone.Load()) + " repetitions"
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	if j.state == StateDone {
		s.histRun.Observe(j.finished.Sub(j.started))
	}
	s.markTerminalLocked(j)
	if !(j.state == StateCancelled && s.closed) {
		// Shutdown cancellations are not settlements: a gracefully stopped
		// daemon leaves the same ledger a crashed one would, and both resume
		// the run on restart.
		s.journalSettleLocked(j.id, j.journaled)
	}
	s.settleFollowersLocked(j)
	s.pruneHistoryLocked()
}

// settleFollowersLocked resolves a settled leader's coalesced followers: a
// done or failed leader settles them identically (the engine would have
// produced bit-identical results for them), while a cancelled leader hands
// the run over — the first follower is promoted to a fresh queued leader so
// one client's DELETE cannot kill another client's submission. Callers hold
// the mutex.
func (s *Service) settleFollowersLocked(leader *job) {
	if s.inflight[leader.key] == leader {
		delete(s.inflight, leader.key)
	}
	followers := leader.followers
	leader.followers = nil
	if len(followers) == 0 {
		return
	}
	now := s.clock()
	switch leader.state {
	case StateDone, StateFailed:
		for _, f := range followers {
			f.leader = nil
			f.state = leader.state
			f.summary = leader.summary
			f.errMsg = leader.errMsg
			f.started, f.finished = now, now
			s.markTerminalLocked(f)
			// Recovered followers carry their own ledger entries; settle them.
			s.journalSettleLocked(f.id, f.journaled)
		}
	case StateCancelled:
		if s.closed {
			for _, f := range followers {
				f.leader = nil
				f.state = StateCancelled
				f.errMsg = "cancelled: service shutting down"
				f.finished = now
				s.markTerminalLocked(f)
			}
			return
		}
		next := followers[0]
		next.leader = nil
		next.followers = followers[1:]
		for _, f := range next.followers {
			f.leader = next
		}
		if !next.journaled && next.sweep == nil {
			// The promoted follower now owns the run; record it so a restart
			// resumes it. Best effort — the submission was already accepted.
			// Sweep cells are never journalled individually: their sweep's
			// record re-plans them, and a duplicate submit record would
			// re-adopt the cell twice.
			if err := s.journalSubmitLocked(next); err != nil {
				s.log.Warn("service: journal promoted follower failed", "job", next.id, "err", err)
			}
		}
		s.queue = append(s.queue, next)
		s.inflight[next.key] = next
		s.cond.Signal()
	}
}

// cancelJob requests cancellation of a job. Queued jobs cancel immediately;
// running jobs have their context cancelled and settle at the next
// repetition boundary. Terminal jobs are rejected with errAlreadyTerminal.
func (s *Service) cancelJob(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, errUnknownJob
	}
	switch j.state {
	case StateQueued:
		if j.leader != nil {
			// A coalesced follower detaches from its leader and cancels
			// alone; the leader keeps running.
			for i, f := range j.leader.followers {
				if f == j {
					j.leader.followers = append(j.leader.followers[:i], j.leader.followers[i+1:]...)
					break
				}
			}
			j.leader = nil
		}
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		j.state = StateCancelled
		j.errMsg = "cancelled before start"
		j.finished = s.clock()
		s.markTerminalLocked(j)
		s.journalSettleLocked(j.id, j.journaled)
		s.settleFollowersLocked(j)
		s.pruneHistoryLocked()
		return j.view(), nil
	case StateRunning:
		if !j.cancelRequested {
			j.cancelRequested = true
			j.cancel()
		}
		return j.view(), nil
	default:
		return j.view(), errAlreadyTerminal
	}
}

// Service-level sentinel errors, mapped to HTTP statuses by the API layer.
var (
	errShutdown        = errors.New("service is shutting down")
	errQueueFull       = errors.New("job queue is full")
	errUnknownJob      = errors.New("no such job")
	errAlreadyTerminal = errors.New("job already finished")
)

// jobView fetches one job's API view.
func (s *Service) jobView(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// jobViews lists every job in submission order.
func (s *Service) jobViews() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].view())
	}
	return out
}

// Metrics is the document served by GET /metrics.
type Metrics struct {
	Jobs struct {
		Queued    int `json:"queued"`
		Running   int `json:"running"`
		Done      int `json:"done"`
		Failed    int `json:"failed"`
		Cancelled int `json:"cancelled"`
	} `json:"jobs"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		// Coalesced counts submissions deduplicated onto an identical
		// in-flight run (neither a hit nor a miss).
		Coalesced int64   `json:"coalesced"`
		HitRate   float64 `json:"hit_rate"`
		Entries   int     `json:"entries"`
	} `json:"cache"`
	Budget struct {
		Total int `json:"total"`
		InUse int `json:"in_use"`
	} `json:"budget"`
	Throughput struct {
		// RepsDone counts every reduced repetition, cancelled jobs included.
		RepsDone int64 `json:"reps_done"`
		// FinishedReps and BusySeconds aggregate jobs that ran to completion;
		// RepsPerSecond is their ratio — per-job-second engine throughput.
		FinishedReps  int64   `json:"finished_reps"`
		BusySeconds   float64 `json:"busy_seconds"`
		RepsPerSecond float64 `json:"reps_per_second"`
	} `json:"throughput"`
	// Cluster carries the coordinator gauges when the backend is distributed;
	// absent under the local backend.
	Cluster *ClusterStats `json:"cluster,omitempty"`
	// Durability carries the persistent-cache and crash-recovery counters
	// when -cache-dir or -state-dir is configured; absent otherwise.
	Durability *DurabilityStats `json:"durability,omitempty"`
	// Sweeps carries the sweep-subsystem counters once a sweep has been
	// submitted or recovered; absent before.
	Sweeps *SweepStats `json:"sweeps,omitempty"`
	// RateLimit carries the admission-limiter counters when -rate is
	// configured; absent otherwise.
	RateLimit *RateLimitStats `json:"rate_limit,omitempty"`
	// Latency summarizes the latency histograms (queue wait, run duration,
	// cache lookup, lease round-trip, HTTP handler) by name; the Prometheus
	// rendering of /metrics exposes the full bucket series.
	Latency map[string]LatencyStats `json:"latency,omitempty"`
}

// LatencyStats is the JSON summary of one latency histogram.
type LatencyStats struct {
	Count      uint64  `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

// RateLimitStats are the per-client admission limiter counters.
type RateLimitStats struct {
	// Rejected counts submissions refused with 429 over the daemon's
	// lifetime.
	Rejected int64 `json:"rejected"`
	// Clients is the number of client buckets currently tracked.
	Clients int `json:"clients"`
}

// DurabilityStats are the persistent-cache and crash-recovery counters.
type DurabilityStats struct {
	// DiskCache holds the persistent result cache counters (nil without
	// -cache-dir).
	DiskCache *store.CacheStats `json:"disk_cache,omitempty"`
	// JobsRecovered counts submissions re-adopted from the run ledger at the
	// last startup.
	JobsRecovered int64 `json:"jobs_recovered"`
	// JournalBytes is the current size of the run ledger on disk.
	JournalBytes int64 `json:"journal_bytes"`
	// JournalCompactions counts snapshot compactions of the run ledger over
	// the daemon's lifetime.
	JournalCompactions int64 `json:"journal_compactions"`
}

// ClusterStats are the coordinator-side gauges of a distributed backend.
type ClusterStats struct {
	// Workers is the number of registered, live worker processes.
	Workers int `json:"workers"`
	// LeasesOutstanding counts rep-range leases currently held by workers.
	LeasesOutstanding int `json:"leases_outstanding"`
	// LeasesReassigned counts leases reclaimed from dead or unresponsive
	// workers and returned to the pool over the coordinator's lifetime.
	LeasesReassigned int64 `json:"leases_reassigned"`
	// RunsReadopted counts in-flight runs re-adopted from the coordinator
	// journal at the last startup.
	RunsReadopted int64 `json:"runs_readopted"`
	// ShardsReplayed counts journalled shard uploads replayed through the
	// exact merger during crash recovery.
	ShardsReplayed int64 `json:"shards_replayed"`
}

// clusterStatser is implemented by distributed backends that export
// coordinator gauges (the cluster.Coordinator).
type clusterStatser interface {
	ClusterStats() ClusterStats
}

// metrics snapshots the service counters.
func (s *Service) metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m Metrics
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			m.Jobs.Queued++
		case StateRunning:
			m.Jobs.Running++
		case StateDone:
			m.Jobs.Done++
		case StateFailed:
			m.Jobs.Failed++
		case StateCancelled:
			m.Jobs.Cancelled++
		}
	}
	m.Cache.Hits = s.hits
	m.Cache.Misses = s.misses
	m.Cache.Coalesced = s.coalesced
	if total := s.hits + s.misses; total > 0 {
		m.Cache.HitRate = float64(s.hits) / float64(total)
	}
	m.Cache.Entries = s.cache.len()
	m.Budget.Total = s.budget
	m.Budget.InUse = s.inUse
	m.Throughput.RepsDone = s.repsDone.Load()
	m.Throughput.FinishedReps = s.finishedReps
	m.Throughput.BusySeconds = s.busy.Seconds()
	if s.busy > 0 {
		m.Throughput.RepsPerSecond = float64(s.finishedReps) / s.busy.Seconds()
	}
	if cs, ok := s.backend.(clusterStatser); ok {
		stats := cs.ClusterStats()
		m.Cluster = &stats
	}
	if s.sweepsSubmitted > 0 || s.sweepsRecovered > 0 {
		sw := &SweepStats{
			Submitted: s.sweepsSubmitted,
			Recovered: s.sweepsRecovered,
		}
		for _, id := range s.sweepOrder {
			switch s.sweeps[id].state {
			case StateDone:
				sw.Done++
			case StateFailed:
				sw.Failed++
			case StateCancelled:
				sw.Cancelled++
			default:
				sw.Active++
			}
		}
		m.Sweeps = sw
	}
	if s.limiter != nil {
		m.RateLimit = &RateLimitStats{
			Rejected: s.rateLimited,
			Clients:  len(s.limiter.buckets),
		}
	}
	if s.disk != nil || s.journal != nil {
		d := &DurabilityStats{
			JobsRecovered:      s.jobsRecovered,
			JournalCompactions: s.compactions,
		}
		if s.disk != nil {
			st := s.disk.Stats()
			d.DiskCache = &st
		}
		if s.journal != nil {
			d.JournalBytes = s.journal.Size()
		}
		m.Durability = d
	}
	m.Latency = make(map[string]LatencyStats)
	for _, snap := range s.reg.Snapshots() {
		m.Latency[snap.Name] = LatencyStats{
			Count:      snap.Total(),
			SumSeconds: float64(snap.SumNanos) / 1e9,
			P50Ms:      snap.Quantile(0.5) * 1e3,
			P90Ms:      snap.Quantile(0.9) * 1e3,
			P99Ms:      snap.Quantile(0.99) * 1e3,
		}
	}
	return m
}

// health snapshots the /healthz document: uptime, build identity, and the
// readiness of each configured subsystem. A subsystem that cannot take new
// work (a cluster backend with zero live workers) degrades the status without
// failing the probe — the daemon itself is still alive.
func (s *Service) health() HealthResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := HealthResponse{
		Status:        "ok",
		Version:       s.version,
		UptimeSeconds: s.clock().Sub(s.started).Seconds(),
		Subsystems:    make(map[string]SubsystemHealth),
	}
	if s.journal != nil {
		h.Subsystems["journal"] = SubsystemHealth{
			Ready:  true,
			Detail: fmt.Sprintf("%d bytes", s.journal.Size()),
		}
	}
	if s.disk != nil {
		h.Subsystems["disk_cache"] = SubsystemHealth{
			Ready:  true,
			Detail: fmt.Sprintf("%d entries", s.disk.Stats().Entries),
		}
	}
	if rc, ok := s.backend.(readyChecker); ok {
		sub := SubsystemHealth{Ready: true}
		if err := rc.Ready(); err != nil {
			sub.Ready = false
			sub.Detail = err.Error()
			h.Status = "degraded"
		}
		h.Subsystems["cluster"] = sub
	}
	if len(h.Subsystems) == 0 {
		h.Subsystems = nil
	}
	return h
}

// traceView fetches one run's flight-recorder timeline by job ID: the spans
// its trace stored, merged with the scheduler phases rendered from the job
// record. Both live on the record, so the timeline is available as long as
// the job is.
func (s *Service) traceView(id string) (obs.TraceView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var phases []obs.Span
	if ok {
		phases = j.phaseSpans()
	}
	s.mu.Unlock()
	if !ok {
		return obs.TraceView{}, false
	}
	return j.trace.View(phases...), true
}
