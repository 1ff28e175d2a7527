package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynamicrumor/internal/engine"
)

// The sweep subsystem: one POST /v1/sweeps submission declares a parameter
// grid (family × n × params × protocol × stream × seed) that the service
// plans into cells — each cell an ordinary job with the ordinary sha256
// cache key, so prior single-run results are reused verbatim — and executes
// with cross-cell amortization: every cell of a sweep compiles its scenario
// through one engine.CompileSet, so the read-only network of a deterministic
// family is built once per distinct (family, params) shape and shared by
// every protocol/stream/seed cell over the same graph. Sharing never changes
// results (the no-draw contract, see engine.CompileSet), which is what keeps
// each cell's summary byte-identical to the equivalent standalone run.

// maxSweepCells bounds one sweep's planned grid; larger requests are
// rejected at planning time rather than flooding the queue.
const maxSweepCells = 4096

// SweepSpec declares the parameter grid of a sweep. The cell list is the
// cross product of every axis, in a deterministic order: n outermost, then
// the param grids in sorted key order, then protocol, stream, and seed
// innermost. Axes left empty contribute the base scenario's value as a
// single point, so a spec with only "n" sweeps sizes at fixed parameters.
type SweepSpec struct {
	// Name optionally labels the sweep in views and listings.
	Name string `json:"name,omitempty"`
	// Base is a declarative scenario template the cells are derived from
	// (strict: unknown fields are rejected). It supplies everything the axes
	// do not override — mode, clock rate, caps, fixed network params. Trace
	// recording is stripped exactly as POST /v1/runs strips it.
	Base json.RawMessage `json:"base,omitempty"`
	// Family is the network family every cell uses; defaults to the base
	// scenario's family. One of the two must name a family.
	Family string `json:"family,omitempty"`
	// N is the grid of network sizes, shorthand for Params["n"].
	N []int `json:"n,omitempty"`
	// Params maps family parameter names to their grids. A parameter present
	// here overrides the base scenario's value in every cell.
	Params map[string][]float64 `json:"params,omitempty"`
	// Protocols is the protocol axis ("async", "sync", "flooding");
	// defaults to the base scenario's protocol as a single point.
	Protocols []string `json:"protocols,omitempty"`
	// Streams is the async stream-discipline axis (1 or 2). Crossing it with
	// non-async protocols is rejected by cell validation, the same
	// fail-loudly stance single runs take.
	Streams []int `json:"streams,omitempty"`
	// Seeds is the ensemble-seed axis; defaults to the request's Seed as a
	// single point.
	Seeds []uint64 `json:"seeds,omitempty"`
}

// SweepRequest is the body of POST /v1/sweeps.
type SweepRequest struct {
	// Sweep declares the grid.
	Sweep SweepSpec `json:"sweep"`
	// Reps is the repetition count of every cell (required, >= 1).
	Reps int `json:"reps"`
	// Seed is the ensemble seed cells use when the spec has no Seeds axis.
	Seed uint64 `json:"seed"`
}

// sweepAxis is one dimension of the planner's odometer.
type sweepAxis struct {
	key    string
	values []float64
}

// planSweep expands a sweep request into its cell list. Planning is pure and
// deterministic — equal (request, defaultStream) always yield the identical
// cell list — which is what lets crash recovery re-plan a journalled sweep
// and re-adopt its unfinished cells under their original identities.
func planSweep(req SweepRequest, defaultStream int) ([]plannedCell, error) {
	spec := req.Sweep
	var base engine.Scenario
	if len(spec.Base) > 0 {
		dec := json.NewDecoder(bytes.NewReader(spec.Base))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&base); err != nil {
			return nil, fmt.Errorf("decode base scenario: %w", err)
		}
		if dec.More() {
			return nil, errors.New("trailing content after the base scenario object")
		}
	}
	// The label never influences execution; planRun strips trace recording.
	base.Name = ""
	family := spec.Family
	if family == "" {
		family = base.Network.Family
	}
	if family == "" {
		return nil, errors.New(`sweep needs a "family" (or a base scenario naming one)`)
	}

	var axes []sweepAxis
	if len(spec.N) > 0 {
		vals := make([]float64, len(spec.N))
		for i, n := range spec.N {
			vals[i] = float64(n)
		}
		axes = append(axes, sweepAxis{key: "n", values: vals})
	}
	keys := make([]string, 0, len(spec.Params))
	for k := range spec.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if k == "n" && len(spec.N) > 0 {
			return nil, errors.New(`parameter "n" given both as the "n" grid and in "params"`)
		}
		vs := spec.Params[k]
		if len(vs) == 0 {
			return nil, fmt.Errorf("parameter %q has an empty grid", k)
		}
		axes = append(axes, sweepAxis{key: k, values: vs})
	}

	protocols := spec.Protocols
	if len(protocols) == 0 {
		protocols = []string{string(base.Protocol)}
	}
	streams := spec.Streams
	if len(streams) == 0 {
		streams = []int{base.Stream}
	}
	seeds := spec.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{req.Seed}
	}

	total := len(protocols) * len(streams) * len(seeds)
	for _, ax := range axes {
		total *= len(ax.values)
	}
	if total > maxSweepCells {
		return nil, fmt.Errorf("sweep plans %d cells, exceeding the limit of %d", total, maxSweepCells)
	}

	cells := make([]plannedCell, 0, total)
	idx := make([]int, len(axes))
	for {
		for _, proto := range protocols {
			for _, stream := range streams {
				for _, seed := range seeds {
					sc := base
					sc.Network.Family = family
					params := make(engine.Params, len(base.Network.Params)+len(axes))
					for k, v := range base.Network.Params {
						params[k] = v
					}
					var parts []string
					for ai, ax := range axes {
						v := ax.values[idx[ai]]
						params[ax.key] = v
						parts = append(parts, ax.key+"="+strconv.FormatFloat(v, 'g', -1, 64))
					}
					sc.Network.Params = params
					sc.Protocol = engine.ProtocolKind(proto)
					sc.Stream = stream
					// Cells are planned exactly as POST /v1/runs plans a run,
					// so their cache keys match standalone submissions under
					// the same daemon.
					pc, err := planRun(sc, seed, req.Reps, defaultStream)
					parts = append(parts, "protocol="+string(pc.sc.Protocol.Normalize()))
					if pc.sc.Stream != 0 {
						parts = append(parts, "stream="+strconv.Itoa(pc.sc.Stream))
					}
					parts = append(parts, "seed="+strconv.FormatUint(seed, 10))
					pc.label = strings.Join(parts, ",")
					if err != nil {
						return nil, fmt.Errorf("cell %s: %w", pc.label, err)
					}
					cells = append(cells, pc)
				}
			}
		}
		// Advance the axis odometer, innermost (last) axis fastest.
		ai := len(axes) - 1
		for ; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(axes[ai].values) {
				break
			}
			idx[ai] = 0
		}
		if ai < 0 {
			break
		}
	}
	return cells, nil
}

// sweep is the service-internal record of one planned grid. Its SSE log is
// not stored but rendered from its settled cells on read. All fields are
// guarded by the service mutex.
type sweep struct {
	id      string
	name    string
	seq     int
	state   JobState // StateRunning until every cell settles
	request json.RawMessage
	// defaultStream is the service default captured at planning time; crash
	// recovery re-plans with it, so the re-planned cells carry the identical
	// cache keys even if the daemon restarts with a different -stream-default.
	defaultStream int
	reps          int
	total         int
	cells         []*job
	// settled holds the terminal cells in settlement order. It is the SSE
	// log: sweepEventsAfter renders event k as the k-th settled cell's
	// "cell" event and, once the sweep is terminal, event total+1 as the
	// final "sweep" event. Append-only, and settled cells never change, so
	// the log is rendered on read instead of stored.
	settled   []*job
	cacheHits int
	// compile is the shared compile set every cell of this sweep routes its
	// scenario compilation through; released when the sweep finalizes.
	compile  *engine.CompileSet
	networks int
	// journaled marks a sweep recorded in the durable run ledger.
	journaled bool
	submitted time.Time
	finished  time.Time

	// subs are the event-stream subscribers' wake channels: each replays the
	// log from its cursor and then follows as cells settle.
	subs map[chan struct{}]struct{}
}

// sweepEvent is one server-sent event: its ID, its name and the document
// its data line encodes.
type sweepEvent struct {
	id   int
	name string
	v    any
}

// SweepCellView is one cell of the aggregate table.
type SweepCellView struct {
	// Cell is the planner's label for the grid point
	// ("n=1024,rho=0.1,protocol=async,seed=7").
	Cell string `json:"cell"`
	// Run is the cell's job ID; GET /v1/runs/{id} serves the full job view.
	Run   string   `json:"run"`
	State JobState `json:"state"`
	// Key is the cell's cache key — identical to the key a standalone
	// POST /v1/runs of the same scenario/seed/reps would compute.
	Key      string `json:"key"`
	Seed     uint64 `json:"seed"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// Trace is the cell's flight-recorder trace ID (GET /v1/runs/{id}/trace).
	Trace string `json:"trace,omitempty"`
	// QueueMS and RunMS summarize the cell's timeline in the aggregate table:
	// milliseconds spent queued and running. Zero (and omitted) until the
	// respective phase completes.
	QueueMS float64 `json:"queue_ms,omitempty"`
	RunMS   float64 `json:"run_ms,omitempty"`
	Error   string  `json:"error,omitempty"`
	// Summary holds the cell's result document once it is done,
	// byte-identical to the standalone run's summary.
	Summary json.RawMessage `json:"summary,omitempty"`
}

// SweepView is the API representation of a sweep.
type SweepView struct {
	ID    string   `json:"id"`
	Name  string   `json:"name,omitempty"`
	State JobState `json:"state"`
	Reps  int      `json:"reps"`
	// Total and Settled count the sweep's cells and how many have reached a
	// terminal state; CacheHits counts cells answered from the result cache.
	Total     int `json:"total"`
	Settled   int `json:"settled"`
	CacheHits int `json:"cache_hits"`
	// SharedNetworks counts the distinct read-only networks the sweep's
	// compile set built — the amortization the planner bought: cells minus
	// shared networks is the number of constructions a per-cell submission
	// loop would have paid extra.
	SharedNetworks int    `json:"shared_networks,omitempty"`
	SubmittedAt    string `json:"submitted_at"`
	FinishedAt     string `json:"finished_at,omitempty"`
	// Cells is the aggregate table in planning order (detail view only).
	Cells []SweepCellView `json:"cells,omitempty"`
}

// sweepCellEvent is the payload of a "cell" SSE event: one cell settled.
type sweepCellEvent struct {
	Sweep    string          `json:"sweep"`
	Cell     string          `json:"cell"`
	Run      string          `json:"run"`
	State    JobState        `json:"state"`
	Settled  int             `json:"settled"`
	Total    int             `json:"total"`
	CacheHit bool            `json:"cache_hit,omitempty"`
	Error    string          `json:"error,omitempty"`
	Summary  json.RawMessage `json:"summary,omitempty"`
}

// SweepsResponse is the body of GET /v1/sweeps.
type SweepsResponse struct {
	Sweeps []SweepView `json:"sweeps"`
}

// submitSweep registers a planned sweep and admits its cells through the
// admission ladder single submissions take, so scheduling, budget,
// coalescing and durability behave identically for grid work. Only cells
// that need new work count against admissibleLocked: cached and coalesced
// cells are served regardless of backend readiness, queue room or rate
// limits, exactly as cache-hit single submissions are.
func (s *Service) submitSweep(req SweepRequest, cells []plannedCell, client string) (SweepView, error) {
	reqDoc, err := json.Marshal(req)
	if err != nil {
		return SweepView{}, fmt.Errorf("encode sweep request: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SweepView{}, errShutdown
	}
	now := s.clock()
	need := 0
	looked := make(map[string]cacheLookup, len(cells))
	for _, pc := range cells {
		if _, ok := looked[pc.key]; ok {
			continue
		}
		summary, hit := s.lookupCacheLocked(pc.key)
		looked[pc.key] = cacheLookup{summary, hit}
		if !hit && s.inflight[pc.key] == nil {
			need++
		}
	}
	if need > 0 {
		if err := s.admissibleLocked(need, client, now); err != nil {
			return SweepView{}, err
		}
	}
	sw := s.newSweepLocked(sweepRecord{
		ID: fmt.Sprintf("s%08d", s.nextSweepID+1), Request: reqDoc, DefaultStream: s.defaultStream, SubmittedAt: now,
	}, req, len(cells))
	if err := s.journalSweepSubmitLocked(sw); err != nil {
		return SweepView{}, fmt.Errorf("journal sweep submission: %w", err)
	}
	s.nextSweepID++
	s.sweepsSubmitted++
	s.startSweepLocked(sw, cells, looked, now, false)
	return s.sweepViewLocked(sw, false), nil
}

// newSweepLocked builds the record of a sweep of total cells from its ledger
// record, whether just submitted or recovered. Callers hold the mutex.
func (s *Service) newSweepLocked(sr sweepRecord, req SweepRequest, total int) *sweep {
	s.submitSeq++
	return &sweep{
		id:            sr.ID,
		name:          req.Sweep.Name,
		seq:           s.submitSeq,
		state:         StateRunning,
		request:       sr.Request,
		defaultStream: sr.DefaultStream,
		reps:          req.Reps,
		total:         total,
		cells:         make([]*job, 0, total),
		settled:       make([]*job, 0, total),
		compile:       engine.NewCompileSet(),
		submitted:     sr.SubmittedAt,
	}
}

// cacheLookup is the result of one result-cache lookup.
type cacheLookup struct {
	summary json.RawMessage
	hit     bool
}

// startSweepLocked registers a sweep and admits its cells in planning order,
// each an ordinary job owned by the sweep. A cell whose key is in looked
// reuses that lookup — submitSweep already consulted the cache for every
// distinct key to count new work — and any other cell (every cell of a
// recovered sweep) looks its key up once here. A sweep without cells
// finalizes at once. Callers hold the mutex.
func (s *Service) startSweepLocked(sw *sweep, cells []plannedCell, looked map[string]cacheLookup, now time.Time, recovered bool) {
	s.sweeps[sw.id] = sw
	s.sweepOrder = append(s.sweepOrder, sw.id)
	for i, pc := range cells {
		j := s.newJobLocked(fmt.Sprintf("%s.c%03d", sw.id, i), pc, sw.reps, now)
		j.sweep, j.compile = sw, sw.compile
		sw.cells = append(sw.cells, j)
		l, ok := looked[pc.key]
		if !ok {
			l.summary, l.hit = s.lookupCacheLocked(pc.key)
		}
		s.admitLocked(j, l.summary, l.hit, now, recovered)
	}
	if sw.total == 0 {
		s.finalizeSweepLocked(sw)
	}
}

// noteCellSettledLocked records one cell's terminal transition on its sweep:
// the cell joins the settled log, the sweep finalizes once every cell has
// settled, and subscribers are woken to render the new events. Callers hold
// the mutex.
func (s *Service) noteCellSettledLocked(j *job) {
	sw := j.sweep
	if sw == nil {
		return
	}
	if j.cacheHit {
		sw.cacheHits++
	}
	j.compile = nil
	sw.settled = append(sw.settled, j)
	if len(sw.settled) == sw.total {
		s.finalizeSweepLocked(sw)
	}
	for ch := range sw.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// finalizeSweepLocked settles a sweep whose cells have all reached terminal
// states: failed beats cancelled beats done, mirroring how a client would
// read the aggregate table. Callers hold the mutex.
func (s *Service) finalizeSweepLocked(sw *sweep) {
	state := StateDone
	for _, c := range sw.cells {
		switch c.state {
		case StateFailed:
			state = StateFailed
		case StateCancelled:
			if state != StateFailed {
				state = StateCancelled
			}
		}
	}
	sw.state = state
	sw.finished = s.clock()
	if sw.compile != nil {
		sw.networks = sw.compile.Networks()
		sw.compile = nil
	}
	s.sweepTerminal++
	if !(state == StateCancelled && s.closed) {
		// Shutdown cancellations are not settlements — the same contract
		// single runs honor — so a stopped daemon resumes the sweep's
		// unfinished cells on restart.
		s.journalSettleLocked(sw.id, sw.journaled)
	}
	s.pruneSweepsLocked()
}

// sweepViewLocked renders a sweep for the API; the cell table is included
// only for the detail endpoint. Callers hold the mutex.
func (s *Service) sweepViewLocked(sw *sweep, withCells bool) SweepView {
	v := SweepView{
		ID:             sw.id,
		Name:           sw.name,
		State:          sw.state,
		Reps:           sw.reps,
		Total:          sw.total,
		Settled:        len(sw.settled),
		CacheHits:      sw.cacheHits,
		SharedNetworks: sw.networks,
		SubmittedAt:    rfc3339(sw.submitted),
		FinishedAt:     rfc3339(sw.finished),
	}
	if sw.compile != nil {
		v.SharedNetworks = sw.compile.Networks()
	}
	if !withCells {
		return v
	}
	v.Cells = make([]SweepCellView, 0, len(sw.cells))
	for _, c := range sw.cells {
		cv := SweepCellView{
			Cell:     c.cellLabel,
			Run:      c.id,
			State:    c.state,
			Key:      c.key,
			Seed:     c.seed,
			CacheHit: c.cacheHit,
			Trace:    c.trace.ID(),
			Error:    c.errMsg,
			Summary:  c.summary,
		}
		if !c.started.IsZero() {
			cv.QueueMS = float64(c.started.Sub(c.submitted)) / float64(time.Millisecond)
			if !c.finished.IsZero() {
				cv.RunMS = float64(c.finished.Sub(c.started)) / float64(time.Millisecond)
			}
		}
		v.Cells = append(v.Cells, cv)
	}
	return v
}

// sweepView fetches one sweep's detail view (with the cell table).
func (s *Service) sweepView(id string) (SweepView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		return SweepView{}, false
	}
	return s.sweepViewLocked(sw, true), true
}

// sweepViews lists every sweep in submission order, without cell tables.
func (s *Service) sweepViews() []SweepView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SweepView, 0, len(s.sweepOrder))
	for _, id := range s.sweepOrder {
		out = append(out, s.sweepViewLocked(s.sweeps[id], false))
	}
	return out
}

// cancelSweep cancels every non-terminal cell of a sweep; the sweep
// finalizes (as cancelled, unless a cell already failed) once running cells
// reach their next repetition boundary.
func (s *Service) cancelSweep(id string) (SweepView, error) {
	s.mu.Lock()
	sw, ok := s.sweeps[id]
	if !ok {
		s.mu.Unlock()
		return SweepView{}, errUnknownSweep
	}
	if sw.state.Terminal() {
		v := s.sweepViewLocked(sw, false)
		s.mu.Unlock()
		return v, errAlreadyTerminal
	}
	var ids []string
	for _, c := range sw.cells {
		if !c.state.Terminal() {
			ids = append(ids, c.id)
		}
	}
	s.mu.Unlock()
	for _, cid := range ids {
		// A cell settling concurrently surfaces as errAlreadyTerminal here;
		// that is a success for the sweep-wide cancel, not a failure.
		s.cancelJob(cid)
	}
	s.mu.Lock()
	v := s.sweepViewLocked(sw, false)
	s.mu.Unlock()
	return v, nil
}

// sweepEventsAfter renders the sweep's events past the cursor, plus whether
// the stream is finished (sweep terminal or service closed): the "cell"
// event of each cell settled since, then the final "sweep" event once the
// sweep is terminal. The mutex is held only to snapshot the settled log and
// the final view. The snapshot aliases the append-only log, and a settled
// cell never changes, so its event renders without the lock.
func (s *Service) sweepEventsAfter(id string, cursor int) (events []sweepEvent, finished, ok bool) {
	s.mu.Lock()
	sw, exists := s.sweeps[id]
	if !exists {
		s.mu.Unlock()
		return nil, false, false
	}
	settled := sw.settled
	var final *SweepView
	if sw.state.Terminal() {
		v := s.sweepViewLocked(sw, false)
		final = &v
	}
	finished = final != nil || s.closed
	s.mu.Unlock()
	for k := cursor; k < len(settled); k++ {
		c := settled[k]
		events = append(events, sweepEvent{id: k + 1, name: "cell", v: sweepCellEvent{
			Sweep:    sw.id,
			Cell:     c.cellLabel,
			Run:      c.id,
			State:    c.state,
			Settled:  k + 1,
			Total:    sw.total,
			CacheHit: c.cacheHit,
			Error:    c.errMsg,
			Summary:  c.summary,
		}})
	}
	if final != nil && cursor <= len(settled) {
		events = append(events, sweepEvent{id: len(settled) + 1, name: "sweep", v: final})
	}
	return events, finished, true
}

// subscribeSweep registers a wake channel on the sweep's event log.
func (s *Service) subscribeSweep(id string) (chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	if !ok {
		return nil, false
	}
	if sw.subs == nil {
		sw.subs = make(map[chan struct{}]struct{})
	}
	ch := make(chan struct{}, 1)
	sw.subs[ch] = struct{}{}
	return ch, true
}

// unsubscribeSweep removes a wake channel.
func (s *Service) unsubscribeSweep(id string, ch chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sw, ok := s.sweeps[id]; ok {
		delete(sw.subs, ch)
	}
}

// pruneSweepsLocked forgets the oldest terminal sweeps — and their cell
// records — beyond the sweep history bound, keeping a long-lived daemon's
// memory proportional to configured history, not lifetime grids. Callers
// hold the mutex.
func (s *Service) pruneSweepsLocked() {
	limit := s.historyLimit / 8
	if limit < 16 {
		limit = 16
	}
	if s.sweepTerminal <= limit+limit/8 {
		return
	}
	excess := s.sweepTerminal - limit
	dead := make(map[string]bool)
	keepSweeps := s.sweepOrder[:0]
	for _, id := range s.sweepOrder {
		sw := s.sweeps[id]
		if excess > 0 && sw.state.Terminal() {
			// A terminal sweep's cells are all terminal (finalization requires
			// it), so dropping them cannot orphan queue or in-flight state.
			for _, c := range sw.cells {
				dead[c.id] = true
				delete(s.jobs, c.id)
			}
			delete(s.sweeps, id)
			s.sweepTerminal--
			excess--
			continue
		}
		keepSweeps = append(keepSweeps, id)
	}
	s.sweepOrder = keepSweeps
	if len(dead) == 0 {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		if !dead[id] {
			keep = append(keep, id)
		}
	}
	s.order = keep
}

// SweepStats are the sweep-subsystem counters of GET /metrics.
type SweepStats struct {
	// Submitted counts sweeps accepted over the daemon's lifetime.
	Submitted int64 `json:"submitted"`
	// Active counts sweeps with unsettled cells.
	Active int `json:"active"`
	// Done, Failed and Cancelled count retained terminal sweeps.
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// Recovered counts sweeps re-adopted from the run ledger at startup.
	Recovered int64 `json:"recovered"`
}

// errUnknownSweep is the sweep analogue of errUnknownJob.
var errUnknownSweep = errors.New("no such sweep")
