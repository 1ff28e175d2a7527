package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dynamicrumor/internal/service"
)

// holdEvents reports each lease request the coordinator starts holding.
// Call it before any request reaches the coordinator.
func holdEvents(coord *Coordinator) <-chan struct{} {
	// Buffered so that holds a test does not wait for never block the
	// request; beyond the buffer they are dropped.
	ch := make(chan struct{}, 64)
	coord.onHold = func() {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	return ch
}

// leaseAnswer is what one awaitLease call returned, and after how long.
type leaseAnswer struct {
	lease  *Lease
	err    error
	waited time.Duration
}

// askLease runs one held lease request in the background.
func askLease(ctx context.Context, coord *Coordinator, workerID string) <-chan leaseAnswer {
	out := make(chan leaseAnswer, 1)
	go func() {
		start := time.Now()
		lease, err := coord.awaitLease(ctx, workerID)
		out <- leaseAnswer{lease, err, time.Since(start)}
	}()
	return out
}

// receive waits for a background answer, failing the test after 10 s.
func receive(t *testing.T, ch <-chan leaseAnswer) leaseAnswer {
	t.Helper()
	select {
	case a := <-ch:
		return a
	case <-time.After(10 * time.Second):
		t.Fatal("held lease request was never answered")
		return leaseAnswer{}
	}
}

// awaitHold waits until the coordinator holds one more lease request.
func awaitHold(t *testing.T, holds <-chan struct{}) {
	t.Helper()
	select {
	case <-holds:
	case <-time.After(10 * time.Second):
		t.Fatal("lease request was never held")
	}
}

// startRun runs a cluster run in the background until ctx is cancelled.
func startRun(ctx context.Context, coord *Coordinator, run service.BackendRun) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(ctx, run)
		done <- err
	}()
	return done
}

// TestHeldLeaseWakesOnRun: a request held before any run exists is granted
// the new run's first shard as soon as Run adds it, long before its 30 s
// window ends.
func TestHeldLeaseWakesOnRun(t *testing.T) {
	const window = 30 * time.Second
	coord := newTestCoordinator(t, Config{LeaseTTL: time.Minute, PollInterval: window, ShardSize: 10})
	defer coord.Close()
	holds := holdEvents(coord)
	w := coord.register(RegisterRequest{Name: "idle", CPUs: 1})

	answer := askLease(context.Background(), coord, w.WorkerID)
	awaitHold(t, holds)
	ctx, cancel := context.WithCancel(context.Background())
	runDone := startRun(ctx, coord, testRun(t, 48, 30, 1))

	got := receive(t, answer)
	if got.err != nil || got.lease == nil {
		t.Fatalf("held request answered lease %v, err %v; want the run's first shard", got.lease, got.err)
	}
	if got.lease.Start != 0 || got.lease.Count != 10 {
		t.Errorf("held request got [%d,%d), want [0,10)", got.lease.Start, got.lease.Start+got.lease.Count)
	}
	if got.waited >= window {
		t.Errorf("held request waited %v, the whole window", got.waited)
	}
	cancel()
	<-runDone
}

// TestHeldLeaseWakesOnRequeue: a lease reclaimed by the expiry sweep goes at
// once to a request held by another worker.
func TestHeldLeaseWakesOnRequeue(t *testing.T) {
	coord := newTestCoordinator(t, Config{LeaseTTL: time.Minute, PollInterval: 30 * time.Second, ShardSize: 10})
	defer coord.Close()
	holds := holdEvents(coord)
	dead := coord.register(RegisterRequest{Name: "vanishing", CPUs: 1})
	live := coord.register(RegisterRequest{Name: "idle", CPUs: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := startRun(ctx, coord, testRun(t, 48, 10, 1))
	first := waitLease(t, coord, dead.WorkerID)

	// The run's only shard is out, so the live worker's request is held.
	for len(holds) > 0 {
		<-holds
	}
	answer := askLease(context.Background(), coord, live.WorkerID)
	awaitHold(t, holds)

	// Expire the lease without aging the workers, then sweep.
	coord.mu.Lock()
	coord.leases[first.ID].expires = time.Now().Add(-time.Second)
	coord.mu.Unlock()
	coord.sweepOnce(time.Now())

	got := receive(t, answer)
	if got.err != nil || got.lease == nil {
		t.Fatalf("held request answered lease %v, err %v; want the reclaimed shard", got.lease, got.err)
	}
	if got.lease.Start != first.Start || got.lease.Count != first.Count {
		t.Errorf("held request got [%d,%d), want the reclaimed [%d,%d)",
			got.lease.Start, got.lease.Start+got.lease.Count, first.Start, first.Start+first.Count)
	}
	cancel()
	<-runDone
}

// TestHeldLeaseEmptyOnlyAfterWindow: a request is answered empty only once
// its window has elapsed — with no run at all, and when another held request
// is handed the only shard of a new run — so a worker that re-asks at once
// cannot spin.
func TestHeldLeaseEmptyOnlyAfterWindow(t *testing.T) {
	const window = 500 * time.Millisecond
	coord := newTestCoordinator(t, Config{LeaseTTL: time.Minute, PollInterval: window, ShardSize: 10})
	defer coord.Close()
	holds := holdEvents(coord)
	a := coord.register(RegisterRequest{Name: "a", CPUs: 1})
	b := coord.register(RegisterRequest{Name: "b", CPUs: 1})

	got := receive(t, askLease(context.Background(), coord, a.WorkerID))
	if got.err != nil || got.lease != nil {
		t.Fatalf("idle coordinator granted lease %v, err %v", got.lease, got.err)
	}
	if got.waited < window {
		t.Errorf("idle request answered after %v, before the %v window", got.waited, window)
	}

	for len(holds) > 0 {
		<-holds
	}
	answers := []<-chan leaseAnswer{
		askLease(context.Background(), coord, a.WorkerID),
		askLease(context.Background(), coord, b.WorkerID),
	}
	awaitHold(t, holds)
	awaitHold(t, holds)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := startRun(ctx, coord, testRun(t, 48, 10, 1))
	granted := 0
	for _, ch := range answers {
		got := receive(t, ch)
		switch {
		case got.err != nil:
			t.Errorf("lease request failed: %v", got.err)
		case got.lease != nil:
			granted++
		case got.waited < window:
			t.Errorf("losing request answered after %v, before the %v window", got.waited, window)
		}
	}
	if granted != 1 {
		t.Errorf("%d requests granted the run's one shard, want 1", granted)
	}
	cancel()
	<-runDone
}

// TestHeldLeaseCancelledGetsNothing: a request whose context is done is
// granted nothing — whether it went away while held before work arrived or
// asks with its context already done — and the shards stay with live
// requests.
func TestHeldLeaseCancelledGetsNothing(t *testing.T) {
	coord := newTestCoordinator(t, Config{LeaseTTL: time.Minute, PollInterval: 30 * time.Second, ShardSize: 10})
	defer coord.Close()
	holds := holdEvents(coord)
	w := coord.register(RegisterRequest{Name: "leaving", CPUs: 1})
	live := coord.register(RegisterRequest{Name: "live", CPUs: 1})

	// Gone while held, before the run arrives.
	leaveCtx, leave := context.WithCancel(context.Background())
	leaving := askLease(leaveCtx, coord, w.WorkerID)
	awaitHold(t, holds)
	leave()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := startRun(ctx, coord, testRun(t, 48, 30, 1))
	if got := receive(t, leaving); got.lease != nil || got.err != nil {
		t.Errorf("cancelled held request got lease %v, err %v; want none", got.lease, got.err)
	}
	if l := waitLease(t, coord, live.WorkerID); l.Start != 0 {
		t.Errorf("live request got [%d,%d), want the untouched first shard [0,10)", l.Start, l.Start+l.Count)
	}
	// Asking with a done context while shards are pending.
	if got, err := coord.awaitLease(leaveCtx, w.WorkerID); got != nil || err != nil {
		t.Errorf("request with a done context got lease %v, err %v; want none", got, err)
	}
	if n := outstandingLeases(coord); n != 1 {
		t.Errorf("%d leases outstanding, want only the live request's", n)
	}
	cancel()
	<-runDone
}

// TestHeldLeaseCancelledAfterGrant: a held request handed a shard whose
// context is done before it answers returns the shard to the pool at once
// rather than stranding it until the lease expires.
func TestHeldLeaseCancelledAfterGrant(t *testing.T) {
	coord := newTestCoordinator(t, Config{LeaseTTL: time.Minute, PollInterval: 30 * time.Second, ShardSize: 10})
	defer coord.Close()
	// The hook holds the request between joining the held list and waiting,
	// so the shard is handed to it before it can see its context end.
	held, resume := make(chan struct{}), make(chan struct{})
	coord.onHold = func() {
		held <- struct{}{}
		<-resume
	}
	w := coord.register(RegisterRequest{Name: "leaving", CPUs: 1})
	live := coord.register(RegisterRequest{Name: "live", CPUs: 1})

	leaveCtx, leave := context.WithCancel(context.Background())
	leaving := askLease(leaveCtx, coord, w.WorkerID)
	<-held
	coord.onHold = nil
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := startRun(ctx, coord, testRun(t, 48, 20, 1))
	// The run's first shard went to the held request, so the live worker
	// gets the second, which also shows the run has arrived.
	if l := waitLease(t, coord, live.WorkerID); l.Start != 10 {
		t.Fatalf("live request got [%d,%d), want [10,20) after the held request's [0,10)", l.Start, l.Start+l.Count)
	}
	leave()
	close(resume)
	if got := receive(t, leaving); got.lease != nil || got.err != nil {
		t.Errorf("request gone after its grant answered lease %v, err %v; want none", got.lease, got.err)
	}
	if n := outstandingLeases(coord); n != 1 {
		t.Errorf("%d leases outstanding, want only the live request's", n)
	}
	if l := waitLease(t, coord, live.WorkerID); l.Start != 0 {
		t.Errorf("live request got [%d,%d), want the returned [0,10)", l.Start, l.Start+l.Count)
	}
	cancel()
	<-runDone
}

// TestHeldLeaseIdleWorkerFirst: when a new run's only shard arrives, a held
// request of a worker with no lease gets it ahead of an older held request
// of a worker still executing a shard (its prefetch).
func TestHeldLeaseIdleWorkerFirst(t *testing.T) {
	coord := newTestCoordinator(t, Config{LeaseTTL: time.Minute, PollInterval: 30 * time.Second, ShardSize: 10})
	defer coord.Close()
	holds := holdEvents(coord)
	busy := coord.register(RegisterRequest{Name: "busy", CPUs: 1})
	idle := coord.register(RegisterRequest{Name: "idle", CPUs: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := startRun(ctx, coord, testRun(t, 48, 10, 1))
	waitLease(t, coord, busy.WorkerID)
	for len(holds) > 0 {
		<-holds
	}
	prefetchCtx, stopPrefetch := context.WithCancel(context.Background())
	prefetch := askLease(prefetchCtx, coord, busy.WorkerID)
	awaitHold(t, holds)
	answer := askLease(context.Background(), coord, idle.WorkerID)
	awaitHold(t, holds)

	second := startRun(ctx, coord, testRun(t, 32, 10, 2))
	got := receive(t, answer)
	if got.err != nil || got.lease == nil {
		t.Fatalf("idle worker's held request answered lease %v, err %v; want the new run's shard", got.lease, got.err)
	}
	stopPrefetch()
	if got := receive(t, prefetch); got.lease != nil || got.err != nil {
		t.Errorf("busy worker's prefetch got lease %v, err %v; want none", got.lease, got.err)
	}
	cancel()
	<-first
	<-second
}

// TestReleaseHeld: ReleaseHeld answers a held request null at once, long
// before its window ends, and later requests are no longer held.
func TestReleaseHeld(t *testing.T) {
	const window = 30 * time.Second
	coord := newTestCoordinator(t, Config{LeaseTTL: time.Minute, PollInterval: window, ShardSize: 10})
	defer coord.Close()
	holds := holdEvents(coord)
	w := coord.register(RegisterRequest{Name: "idle", CPUs: 1})

	answer := askLease(context.Background(), coord, w.WorkerID)
	awaitHold(t, holds)
	coord.ReleaseHeld()
	for _, ch := range []<-chan leaseAnswer{answer, askLease(context.Background(), coord, w.WorkerID)} {
		got := receive(t, ch)
		if got.lease != nil || got.err != nil {
			t.Errorf("released request got lease %v, err %v; want none", got.lease, got.err)
		}
		if got.waited >= window {
			t.Errorf("released request waited %v, the whole window", got.waited)
		}
	}
}

// outstandingLeases counts the coordinator's granted, unsettled leases.
func outstandingLeases(coord *Coordinator) int {
	coord.mu.Lock()
	defer coord.mu.Unlock()
	return len(coord.leases)
}

// TestHeldLeaseManyWorkersManyRuns: several workers hold requests while
// several runs arrive at once; every run settles byte-identical to the
// single-node result. The window outlasts the test, so every shard is
// picked up by a woken request, never by a re-ask after an empty answer.
func TestHeldLeaseManyWorkersManyRuns(t *testing.T) {
	const workers = 3
	coord := newTestCoordinator(t, Config{LeaseTTL: time.Minute, PollInterval: 20 * time.Second, ShardSize: 7})
	defer coord.Close()
	holds := holdEvents(coord)
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	stop := startWorkers(t, ts.URL, workers)
	defer stop()
	for i := 0; i < workers; i++ {
		awaitHold(t, holds)
	}

	runs := []service.BackendRun{
		testRun(t, 48, 100, 1), testRun(t, 32, 60, 2), testRun(t, 64, 45, 3), testRun(t, 48, 100, 4),
	}
	results := make([]service.BackendResult, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = coord.Run(context.Background(), run)
		}()
	}
	wg.Wait()
	for i, run := range runs {
		if errs[i] != nil {
			t.Errorf("run %d: %v", i, errs[i])
			continue
		}
		want := localResult(t, run)
		if results[i].Completed != want.Completed {
			t.Errorf("run %d: completed = %d, want %d", i, results[i].Completed, want.Completed)
		}
		if !bytes.Equal(mustMarshal(t, results[i]), mustMarshal(t, want)) {
			t.Errorf("run %d: cluster stream differs from single-node stream", i)
		}
	}
}
