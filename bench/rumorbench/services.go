package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"dynamicrumor/internal/service"
	"dynamicrumor/internal/xrand"
)

// Load shape shared by the three service workloads.
const (
	serviceClients = 2 // closed-loop clients, or open-loop senders
	smallReps      = 16
	runPoll        = time.Millisecond
	clusterPoll    = 5 * time.Millisecond
)

// runShape is one kind of run a service workload submits.
type runShape struct {
	family  string
	n, reps int
}

func (s runShape) request(seed uint64) []byte { return runRequest(s.family, s.n, s.reps, seed) }

// smallRuns alternate in service-plain and service-durable: a dense static
// graph and an adaptive dynamic one, both settling in a few milliseconds.
var smallRuns = []runShape{{"clique", 64, smallReps}, {"dynamic-star", 512, smallReps}}

// warmUpRounds is how many times service-plain and service-durable warm up
// on each small run shape. A single round takes a few milliseconds, mostly
// fsyncs and first allocations, too little for its median to repeat.
const warmUpRounds = 4

// warmUp runs and then resubmits one job of each shape, and optionally one
// sweep, so the deployment's lazy set-up (first compiles, connections, cache
// and journal files) happens before timing.
func warmUp(ctx context.Context, base string, seed uint64, shapes []runShape, sweep bool) error {
	c := newAPIClient(base, nil, xrand.New(seed).Split(98).Uint64())
	defer c.close()
	rng := xrand.New(seed).Split(99)
	for _, s := range shapes {
		runSeed := rng.Uint64()
		body := s.request(runSeed)
		status, view, err := c.submitRun(ctx, body, 0)
		if err != nil {
			return fmt.Errorf("warm-up submit: %w", err)
		}
		if status != http.StatusAccepted {
			return fmt.Errorf("warm-up submit: status %d", status)
		}
		final, _, err := c.waitRun(ctx, view.ID, runPoll, 0)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if err := checkSummary(final, s.reps, runSeed); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		status, view, err = c.submitRun(ctx, body, 0)
		if err != nil {
			return fmt.Errorf("warm-up resubmit: %w", err)
		}
		if status != http.StatusOK || !bytes.Equal(view.Summary, final.Summary) {
			return fmt.Errorf("warm-up resubmit: status %d, summary identical %v", status, bytes.Equal(view.Summary, final.Summary))
		}
	}
	if !sweep {
		return nil
	}
	events, err := c.runSweep(ctx, sweepRequest(rng.Uint64(), rng.Uint64()), 0)
	if err != nil {
		return fmt.Errorf("warm-up sweep: %w", err)
	}
	return checkSweep(events, sweepCells, smallReps)
}

// sweepCells is the cell count of sweepRequest's grid.
const sweepCells = 12

// sweepRequest renders a 12-cell native sweep: 3 sizes × 2 protocols × 2
// seeds over the clique.
func sweepRequest(s1, s2 uint64) []byte {
	return []byte(fmt.Sprintf(`{"sweep":{"family":"clique","n":[32,48,64],"protocols":["async","sync"],"seeds":[%d,%d]},"reps":%d}`,
		s1, s2, smallReps))
}

// plainWorkload is the interactive API user: a closed loop of 2 clients on a
// plain deployment, mixing new small runs polled to their summary, cache-hit
// resubmits and native sweeps. HTTP, admission, the memory cache, the
// scheduler and the sweep compile set dominate; the simulation is tiny.
var plainWorkload = &workload{
	name:    "service-plain",
	primary: "new run, submit to settled summary",
	setup:   setupPlain,
	setups:  15,
}

// resubmitWindow is how many of a client's most recent settled runs a
// resubmission picks from. It keeps every resubmitted key inside the
// service's 1024-entry memory cache, which sweeps fill 12 cells at a time.
const resubmitWindow = 64

type plainDeployment struct {
	d  *httpDeployment
	tr *tracer
	// clients persist across measure calls, so each call continues their
	// seed streams and resubmits from the runs they settled before.
	clients []*plainClient
}

func setupPlain(ctx context.Context, rc *runContext) (deployment, error) {
	d, err := startDeployment(deployPlain, "", rc.tr)
	if err != nil {
		return nil, err
	}
	if err := warmUp(ctx, d.base, rc.seed, slices.Repeat(smallRuns, warmUpRounds), true); err != nil {
		d.close()
		return nil, err
	}
	p := &plainDeployment{d: d, tr: rc.tr}
	for i := range serviceClients {
		p.clients = append(p.clients, &plainClient{
			api: newAPIClient(d.base, rc.tr, xrand.New(rc.seed).Split(150+uint64(i)).Uint64()),
			rng: xrand.New(rc.seed).Split(100 + uint64(i)),
		})
	}
	return p, nil
}

func (p *plainDeployment) close() {
	for _, c := range p.clients {
		c.api.close()
	}
	p.d.close()
}

// plainClient is one closed-loop client and the runs it has settled.
type plainClient struct {
	api     *apiClient
	rng     *xrand.RNG
	runs    int
	settled []settledRun
}

type settledRun struct {
	body    []byte
	summary json.RawMessage
}

func (p *plainDeployment) measure(ctx context.Context, deadline time.Time, tl *tally) {
	closedLoop(ctx, serviceClients, deadline, func(i int) {
		c := p.clients[i]
		switch r := c.rng.Float64(); {
		case r < 0.6 || len(c.settled) == 0:
			p.newRun(ctx, c, tl)
		case r < 0.9:
			p.resubmit(ctx, c, tl)
		default:
			p.sweep(ctx, c, tl)
		}
	})
}

// newRun submits a fresh run and polls it until it settles.
func (p *plainDeployment) newRun(ctx context.Context, c *plainClient, tl *tally) {
	run := smallRuns[c.runs%len(smallRuns)]
	c.runs++
	seed := c.rng.Uint64()
	body := run.request(seed)
	start := time.Now()
	root := p.tr.begin("loadgen.run", 0, "")
	defer root.end()
	status, view, err := c.api.submitRun(ctx, body, root.id)
	switch {
	case err != nil:
		tl.failf("submit: %v", err)
		return
	case status != http.StatusAccepted:
		tl.failf("new run: status %d", status)
		return
	}
	now := time.Now()
	p.tr.add("loadgen.submitted", root.id, view.Key, now, now)
	final, polls, err := c.api.waitRun(ctx, view.ID, runPoll, root.id)
	p.tr.count("loadgen.polls", float64(polls))
	p.tr.count("loadgen.results", 1)
	if err != nil {
		tl.failf("poll: %v", err)
		return
	}
	if err := checkSummary(final, smallReps, seed); err != nil {
		tl.wrongf("new run: %v", err)
		return
	}
	tl.okTimed(time.Since(start))
	c.settled = append(c.settled, settledRun{body: body, summary: final.Summary})
}

// resubmit repeats one of the client's recent runs; the service must answer
// from its memory cache with the identical summary bytes.
func (p *plainDeployment) resubmit(ctx context.Context, c *plainClient, tl *tally) {
	recent := c.settled[max(0, len(c.settled)-resubmitWindow):]
	s := recent[c.rng.Intn(len(recent))]
	root := p.tr.begin("loadgen.resubmit", 0, "")
	defer root.end()
	status, view, err := c.api.submitRun(ctx, s.body, root.id)
	switch {
	case err != nil:
		tl.failf("resubmit: %v", err)
	case status != http.StatusOK || !view.CacheHit:
		tl.failf("resubmit: status %d, cache_hit=%v", status, view.CacheHit)
	case !bytes.Equal(view.Summary, s.summary):
		tl.wrongf("resubmit: cached summary differs from the settled one")
	default:
		tl.ok()
	}
}

// sweep submits a fresh 12-cell native sweep (3 sizes × 2 protocols × 2
// seeds over one family) and follows its event stream to the end.
func (p *plainDeployment) sweep(ctx context.Context, c *plainClient, tl *tally) {
	root := p.tr.begin("loadgen.sweep", 0, "")
	defer root.end()
	events, err := c.api.runSweep(ctx, sweepRequest(c.rng.Uint64(), c.rng.Uint64()), root.id)
	if err != nil {
		tl.failf("sweep: %v", err)
		return
	}
	if err := checkSweep(events, sweepCells, smallReps); err != nil {
		tl.wrongf("sweep: %v", err)
		return
	}
	tl.ok()
}

// checkSweep verifies a sweep's event stream: one done cell event per cell,
// each with a complete summary, then a done sweep event.
func checkSweep(events []sweepEvent, cells, reps int) error {
	if len(events) != cells+1 {
		return fmt.Errorf("%d events, want %d cell events and one sweep event", len(events), cells)
	}
	for _, ev := range events[:cells] {
		var cell struct {
			State   service.JobState `json:"state"`
			Summary json.RawMessage  `json:"summary"`
		}
		if ev.name != "cell" || json.Unmarshal(ev.data, &cell) != nil || cell.State != service.StateDone {
			return fmt.Errorf("cell event %q is not a done cell: %.120s", ev.name, ev.data)
		}
		var sum service.RunSummary
		if err := json.Unmarshal(cell.Summary, &sum); err != nil || sum.Reps != reps || sum.Completed != reps {
			return fmt.Errorf("cell summary incomplete: %.120s", cell.Summary)
		}
	}
	var final service.SweepView
	if err := json.Unmarshal(events[cells].data, &final); err != nil || final.State != service.StateDone || final.Settled != cells {
		return fmt.Errorf("terminal sweep event is not done with %d settled cells: %.120s", cells, events[cells].data)
	}
	return nil
}

// durableWorkload exercises the admission layer of plainWorkload with
// writes: an open loop of seeded Poisson arrivals on a deployment with the
// run journal and the disk cache, whose resubmits miss the memory cache and
// hit the disk.
var durableWorkload = &workload{
	name:    "service-durable",
	primary: "submission, due time to response",
	setup:   setupDurable,
	setups:  15,
}

const (
	// durableRate is the arrival rate R in submissions per second: a quarter
	// of the knee measured on a 2-CPU Intel Xeon at the first benchmarked
	// commit. At the knee (300/s) the backlog stays flat, but latency depends
	// so much on the shared disk that it does not repeat from run to run; at
	// 450/s and 600/s the generator falls behind and resubmits start to find
	// their keys not yet settled. Half the knee is not enough headroom: with
	// half the machine's CPU time taken by other work, 150/s overflowed the
	// 256-job queue (429s) and resubmits coalesced onto unsettled runs,
	// while 75/s completed every operation.
	durableRate = 75.0
	// resubmitDistance is how many submissions back a resubmitted key must
	// lie, so the 64-entry memory cache has evicted it.
	resubmitDistance = 128
)

type durableDeployment struct {
	d    *httpDeployment
	seed uint64
	tr   *tracer

	// The arrival stream continues across measure calls: rng draws it,
	// drawn counts the arrivals so far, and fresh holds the new runs a later
	// arrival may resubmit, in arrival order.
	rng   *xrand.RNG
	drawn int
	fresh []freshRun

	mu        sync.Mutex
	accepted  map[uint64]bool            // seeds of the new runs the service accepted
	summaries map[string]json.RawMessage // key -> first disk-hit summary
}

// freshRun is a new-run arrival, numbered by its place in the stream.
type freshRun struct {
	index int
	body  []byte
	seed  uint64
}

func setupDurable(ctx context.Context, rc *runContext) (deployment, error) {
	dir, err := rc.subdir("durable-")
	if err != nil {
		return nil, err
	}
	d, err := startDeployment(deployDurable, dir, rc.tr)
	if err != nil {
		return nil, err
	}
	if err := warmUp(ctx, d.base, rc.seed, slices.Repeat(smallRuns, warmUpRounds), false); err != nil {
		d.close()
		return nil, err
	}
	return &durableDeployment{
		d:         d,
		seed:      rc.seed,
		tr:        rc.tr,
		rng:       xrand.New(rc.seed).Split(200),
		accepted:  make(map[uint64]bool),
		summaries: make(map[string]json.RawMessage),
	}, nil
}

func (p *durableDeployment) close() { p.d.close() }

// arrival is one scheduled submission.
type arrival struct {
	due      time.Time
	body     []byte
	seed     uint64
	resubmit bool
}

// schedule draws the arrivals from start until deadline: Poisson at
// durableRate, 70% new runs and 30% resubmissions of a new run at least
// resubmitDistance submissions earlier.
func (p *durableDeployment) schedule(start, deadline time.Time) []arrival {
	var out []arrival
	due := start
	for {
		due = due.Add(time.Duration(p.rng.Exp(durableRate) * float64(time.Second)))
		if due.After(deadline) {
			return out
		}
		i := p.drawn
		p.drawn++
		// fresh is in arrival order, so the new runs old enough to resubmit
		// are a prefix.
		eligible := sort.Search(len(p.fresh), func(k int) bool { return p.fresh[k].index > i-resubmitDistance })
		if p.rng.Float64() < 0.3 && eligible > 0 {
			src := p.fresh[p.rng.Intn(eligible)]
			out = append(out, arrival{due: due, body: src.body, seed: src.seed, resubmit: true})
			continue
		}
		seed := p.rng.Uint64()
		body := smallRuns[seed%uint64(len(smallRuns))].request(seed)
		p.fresh = append(p.fresh, freshRun{index: i, body: body, seed: seed})
		out = append(out, arrival{due: due, body: body, seed: seed})
	}
}

func (p *durableDeployment) measure(ctx context.Context, deadline time.Time, tl *tally) {
	arrivals := p.schedule(time.Now(), deadline)
	apis := make([]*apiClient, serviceClients)
	for i := range apis {
		apis[i] = newAPIClient(p.d.base, p.tr, xrand.New(p.seed).Split(250+uint64(i)).Uint64())
		defer apis[i].close()
	}
	lags, backlog := openLoop(arrivals, deadline, p.tr, func(sender int, a *arrival) {
		p.send(ctx, apis[sender], a, tl)
	})
	tl.notef("arrivals %d at %.0f/s, generator lag p99 %.3f ms, backlog at end %d",
		len(arrivals), durableRate, quantile(lags, 0.99), backlog)
	p.tr.count("loadgen.backlog_end", float64(backlog))
	// A new run left unsent at the deadline was never settled, so a later
	// call must not resubmit it.
	p.mu.Lock()
	kept := p.fresh[:0]
	for _, f := range p.fresh {
		if p.accepted[f.seed] {
			kept = append(kept, f)
		}
	}
	p.fresh = kept
	p.mu.Unlock()
}

// openLoop releases each arrival at its due time to one of serviceClients
// senders, whatever the server is doing, until deadline. It returns how late
// the generator released each arrival, in milliseconds, and the backlog: the
// arrivals due by the deadline that no sender had started. send must time
// its request from a.due, so a stall shows in the latency of every request
// that waited behind it.
func openLoop(arrivals []arrival, deadline time.Time, tr *tracer, send func(sender int, a *arrival)) (lags []float64, backlog int) {
	// Sized to the whole schedule, so the generator never blocks on a
	// stalled server: a stall shows as backlog and as latency from due time.
	queue := make(chan *arrival, len(arrivals))
	go func() {
		defer close(queue)
		for i := range arrivals {
			a := &arrivals[i]
			time.Sleep(time.Until(a.due))
			now := time.Now()
			lags = append(lags, float64(now.Sub(a.due).Nanoseconds())/1e6)
			tr.add("loadgen.lag", 0, "", a.due, now)
			queue <- a
		}
		time.Sleep(time.Until(deadline))
		backlog = len(queue)
	}()
	var wg sync.WaitGroup
	for i := 0; i < serviceClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				if time.Now().Before(deadline) {
					send(i, a)
				}
			}
		}()
	}
	// The senders return only once the generator has closed the queue, so
	// lags and backlog are final here.
	wg.Wait()
	return lags, backlog
}

// send submits one arrival and checks the answer: a new run must be
// accepted; a resubmission must be a cache hit whose summary matches every
// other hit on the same key.
func (p *durableDeployment) send(ctx context.Context, api *apiClient, a *arrival, tl *tally) {
	root := p.tr.begin("loadgen.submit", 0, "")
	status, view, err := api.submitRun(ctx, a.body, root.id)
	root.end()
	latency := time.Since(a.due)
	switch {
	case err != nil:
		tl.failf("submit: %v", err)
		return
	case !a.resubmit && status != http.StatusAccepted:
		tl.failf("new run: status %d", status)
		return
	case a.resubmit && (status != http.StatusOK || !view.CacheHit):
		tl.failf("resubmit: status %d, cache_hit=%v (not settled or not cached)", status, view.CacheHit)
		return
	}
	if !a.resubmit {
		p.mu.Lock()
		p.accepted[a.seed] = true
		p.mu.Unlock()
		tl.okTimed(latency)
		return
	}
	if err := checkSummary(view, smallReps, a.seed); err != nil {
		tl.wrongf("resubmit: %v", err)
		return
	}
	p.mu.Lock()
	first, seen := p.summaries[view.Key]
	if !seen {
		p.summaries[view.Key] = view.Summary
	}
	p.mu.Unlock()
	if seen && !bytes.Equal(first, view.Summary) {
		tl.wrongf("resubmit: summary differs from an earlier hit on the same key")
		return
	}
	tl.okTimed(latency)
}

// clusterWorkload is the only workload that exercises the cluster: a closed
// loop of 2 clients on a coordinator with 2 in-process workers over
// loopback, so every run goes lease → execute → upload → merge.
var clusterWorkload = &workload{
	name:    "cluster",
	primary: "run, submit to settled summary",
	setup:   setupCluster,
	// A cluster set-up is about 1.1 s, nearly all of it the workers' 500 ms
	// idle polls, so it barely varies and three set-ups suffice.
	setups: 3,
}

// clusterRuns alternate in the cluster workload; clusterWarmUp are the same
// shapes with fewer repetitions.
var (
	clusterRuns   = []runShape{{"clique", 256, 256}, {"dynamic-star", 5000, 64}}
	clusterWarmUp = []runShape{{"clique", 256, 64}, {"dynamic-star", 5000, 16}}
)

type clusterDeployment struct {
	d  *httpDeployment
	tr *tracer
	// clients persist across measure calls, so each call continues their
	// seed streams.
	clients []*clusterClient
}

// clusterClient is one closed-loop client of the cluster workload.
type clusterClient struct {
	api  *apiClient
	rng  *xrand.RNG
	turn int // which of clusterRuns comes next
}

func setupCluster(ctx context.Context, rc *runContext) (deployment, error) {
	d, err := startDeployment(deployCluster, "", rc.tr)
	if err != nil {
		return nil, err
	}
	if err := warmUp(ctx, d.base, rc.seed, clusterWarmUp, false); err != nil {
		d.close()
		return nil, err
	}
	p := &clusterDeployment{d: d, tr: rc.tr}
	for i := range serviceClients {
		p.clients = append(p.clients, &clusterClient{
			api:  newAPIClient(d.base, rc.tr, xrand.New(rc.seed).Split(350+uint64(i)).Uint64()),
			rng:  xrand.New(rc.seed).Split(300 + uint64(i)),
			turn: i, // the two clients start on different run shapes
		})
	}
	return p, nil
}

func (p *clusterDeployment) close() {
	for _, c := range p.clients {
		c.api.close()
	}
	p.d.close()
}

func (p *clusterDeployment) measure(ctx context.Context, deadline time.Time, tl *tally) {
	closedLoop(ctx, serviceClients, deadline, func(i int) {
		c := p.clients[i]
		run := clusterRuns[c.turn%len(clusterRuns)]
		c.turn++
		seed := c.rng.Uint64()
		start := time.Now()
		root := p.tr.begin("loadgen.run", 0, "")
		defer root.end()
		status, view, err := c.api.submitRun(ctx, run.request(seed), root.id)
		switch {
		case err != nil:
			tl.failf("submit: %v", err)
			return
		case status != http.StatusAccepted:
			tl.failf("new run: status %d", status)
			return
		}
		final, _, err := c.api.waitRun(ctx, view.ID, clusterPoll, root.id)
		if err != nil {
			tl.failf("poll: %v", err)
			return
		}
		if err := checkSummary(final, run.reps, seed); err != nil {
			tl.wrongf("run: %v", err)
			return
		}
		tl.okTimed(time.Since(start))
	})
}
