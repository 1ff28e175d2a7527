package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"testing"

	"dynamicrumor/internal/engine"
	"dynamicrumor/internal/store"
)

// TestJournalRefusalCountsNoMiss: a submission the ledger cannot record is
// refused with 500 and leaves no mark — no cache miss, no job record — and
// its job ID goes to the next accepted submission.
func TestJournalRefusalCountsNoMiss(t *testing.T) {
	stateDir := t.TempDir()
	svc, ts := newTestServer(t, Config{Budget: 1, StateDir: stateDir})
	svc.mu.Lock()
	svc.journal.Close()
	svc.mu.Unlock()

	status, body := do(t, http.MethodPost, ts.URL+"/v1/runs", submitBody)
	if status != http.StatusInternalServerError {
		t.Fatalf("submit with a closed ledger returned %d, want 500: %s", status, body)
	}
	if c := svc.metrics().Cache; c.Misses != 0 || c.Hits != 0 || c.HitRate != 0 {
		t.Errorf("refused submission moved the cache counters: %+v", c)
	}
	if views := svc.jobViews(); len(views) != 0 {
		t.Errorf("refused submission left %d job records", len(views))
	}

	// The ledger is back: the next accepted submission takes the refused
	// one's ID, and the counters read as if the refusal never happened.
	jr, err := store.OpenJournal(filepath.Join(stateDir, "service.journal"), func(store.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	svc.journal = jr
	svc.mu.Unlock()
	status, body = do(t, http.MethodPost, ts.URL+"/v1/runs", submitBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit after reopening the ledger returned %d: %s", status, body)
	}
	if id := decodeJob(t, body).ID; id != "j00000001" {
		t.Errorf("accepted submission got ID %s, want the refused one's j00000001", id)
	}
	waitState(t, ts.URL, "j00000001", StateDone)
	if status, body = do(t, http.MethodPost, ts.URL+"/v1/runs", submitBody); status != http.StatusOK {
		t.Fatalf("resubmit returned %d, want 200 (cache hit): %s", status, body)
	}
	if c := svc.metrics().Cache; c.Misses != 1 || c.Hits != 1 || c.HitRate != 0.5 {
		t.Errorf("cache counters %+v, want 1 miss, 1 hit, hit_rate 0.5", c)
	}
}

// heldBackend runs seed-1 and seed-5 runs at once and holds every other run
// until its context ends, so a test can keep runs in flight for as long as
// it needs.
type heldBackend struct{}

func (heldBackend) Run(ctx context.Context, run BackendRun) (BackendResult, error) {
	if run.Seed == 1 || run.Seed == 5 {
		return LocalBackend{}.Run(ctx, run)
	}
	<-ctx.Done()
	return BackendResult{}, ctx.Err()
}

// admissionScenario is the small clique every admission test runs, 4
// repetitions at a time.
const admissionScenario = `{"network":{"family":"clique","params":{"n":32}}}`

// admissionRun renders a POST /v1/runs body of admissionScenario.
func admissionRun(seed uint64) string {
	return fmt.Sprintf(`{"scenario":%s,"reps":4,"seed":%d}`, admissionScenario, seed)
}

// planAdmission plans admissionScenario at seed exactly as POST /v1/runs
// does on a service without a default stream.
func planAdmission(t *testing.T, seed uint64) plannedCell {
	t.Helper()
	sc, err := engine.Parse([]byte(admissionScenario))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := planRun(sc, seed, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

// writeAdmissionLedger writes a ledger of unsettled submissions into
// stateDir: j00000001 at seed 9, j00000002 at seed 1, j00000003 and
// j00000004 at seed 2, then the sweep s00000001 over seeds 1, 2 and 3.
// Over a cache that holds the seed-1 result, a daemon replaying it admits
// every rung of the ladder: j00000002 and s00000001.c000 are cache hits,
// j00000004 and s00000001.c001 coalesce onto j00000003, and j00000001,
// j00000003 and s00000001.c002 are queued.
func writeAdmissionLedger(t *testing.T, stateDir string) {
	t.Helper()
	jr, err := store.OpenJournal(filepath.Join(stateDir, "service.journal"), func(store.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range []uint64{9, 1, 2, 2} {
		pc := planAdmission(t, seed)
		rec, err := (&job{id: fmt.Sprintf("j%08d", i+1), canonical: pc.canonical, reps: 4, seed: seed, submitted: testClock()}).ledgerRecord()
		if err == nil {
			err = jr.Append(rec)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	req, err := json.Marshal(SweepRequest{Sweep: SweepSpec{Family: "clique", N: []int{32}, Seeds: []uint64{1, 2, 3}}, Reps: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := (&sweep{id: "s00000001", request: req, submitted: testClock()}).ledgerRecord()
	if err == nil {
		err = jr.Append(rec)
	}
	if err == nil {
		err = jr.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// admission is one cell of the admission matrix: a job and the rung of the
// ladder it must have taken.
type admission struct {
	entry     string
	id        string
	outcome   string // "cache-hit", "coalesced" or "queued"
	leader    string // the leader a coalesced job follows
	recovered bool   // recovered jobs (not sweep cells) carry a "recovered" span
}

// checkAdmission asserts a job's state, cache_hit flag, leader and trace
// spans against its expected rung.
func checkAdmission(t *testing.T, svc *Service, want admission) {
	t.Helper()
	v, ok := svc.jobView(want.id)
	if !ok {
		t.Fatalf("%s: job %s missing", want.entry, want.id)
	}
	state := StateQueued
	if want.outcome == "cache-hit" {
		state = StateDone
	}
	if v.State != state || v.CacheHit != (want.outcome == "cache-hit") || v.CoalescedWith != want.leader {
		t.Errorf("%s %s: state %s, cache_hit %v, coalesced_with %q; want %s, %v, %q",
			want.entry, want.id, v.State, v.CacheHit, v.CoalescedWith, state, want.outcome == "cache-hit", want.leader)
	}
	tv, _ := svc.traceView(want.id)
	spans := make(map[string]string)
	for _, sp := range tv.Spans {
		spans[sp.Name] = sp.Detail
	}
	_, hit := spans["cache-hit"]
	detail, coalesced := spans["coalesced"]
	_, recovered := spans["recovered"]
	if hit != (want.outcome == "cache-hit") || coalesced != (want.outcome == "coalesced") || recovered != want.recovered {
		t.Errorf("%s %s: spans %v, want outcome %s (recovered %v)", want.entry, want.id, spans, want.outcome, want.recovered)
	}
	if coalesced && detail != "leader="+want.leader {
		t.Errorf("%s %s: coalesced span detail %q, want leader=%s", want.entry, want.id, detail, want.leader)
	}
}

// TestAdmissionMatrix drives every entry into the admission ladder — POST
// /v1/runs, a sweep cell, a recovered job and a recovered sweep cell — to
// each of its rungs: cache hit, coalesced and queued. Live entries move the
// hit, miss and coalesce counters; recovered entries leave them alone and
// list the keys they queue in RecoveredKeys.
func TestAdmissionMatrix(t *testing.T) {
	cacheDir, stateDir := t.TempDir(), t.TempDir()
	submit := func(url string, seed uint64, status int) string {
		t.Helper()
		got, body := do(t, http.MethodPost, url+"/v1/runs", admissionRun(seed))
		if got != status {
			t.Fatalf("submit seed %d returned %d, want %d: %s", seed, got, status, body)
		}
		return decodeJob(t, body).ID
	}

	// Live. Seed 1 runs to completion and is cached (in memory and on
	// disk); seed 9 then holds the single worker, so later runs stay queued.
	svc, ts := startPersistServer(t, Config{Budget: 1, Backend: heldBackend{}, CacheDir: cacheDir})
	waitState(t, ts.URL, submit(ts.URL, 1, http.StatusAccepted), StateDone)
	blocker := submit(ts.URL, 9, http.StatusAccepted)
	waitState(t, ts.URL, blocker, StateRunning)
	before := svc.metrics().Cache

	hit := submit(ts.URL, 1, http.StatusOK)
	queued := submit(ts.URL, 2, http.StatusAccepted)
	follower := submit(ts.URL, 2, http.StatusAccepted)
	status, body := do(t, http.MethodPost, ts.URL+"/v1/sweeps",
		`{"sweep":{"family":"clique","n":[32],"seeds":[1,9,3]},"reps":4}`)
	if status != http.StatusAccepted {
		t.Fatalf("sweep submit returned %d: %s", status, body)
	}
	sv, _ := svc.sweepView(decodeSweep(t, body).ID)
	for i, seed := range []uint64{1, 9, 3} {
		if k := planAdmission(t, seed).key; sv.Cells[i].Key != k {
			t.Fatalf("sweep cell %d key %s, want the standalone key %s", i, sv.Cells[i].Key, k)
		}
	}
	for _, c := range []admission{
		{entry: "POST /v1/runs", id: hit, outcome: "cache-hit"},
		{entry: "POST /v1/runs", id: queued, outcome: "queued"},
		{entry: "POST /v1/runs", id: follower, outcome: "coalesced", leader: queued},
		{entry: "sweep cell", id: sv.Cells[0].Run, outcome: "cache-hit"},
		{entry: "sweep cell", id: sv.Cells[1].Run, outcome: "coalesced", leader: blocker},
		{entry: "sweep cell", id: sv.Cells[2].Run, outcome: "queued"},
	} {
		checkAdmission(t, svc, c)
	}
	after := svc.metrics().Cache
	if d := [3]int64{after.Hits - before.Hits, after.Misses - before.Misses, after.Coalesced - before.Coalesced}; d != [3]int64{2, 2, 2} {
		t.Errorf("live admissions moved hits, misses, coalesced by %v, want [2 2 2]", d)
	}
	if keys := svc.RecoveredKeys(); len(keys) != 0 {
		t.Errorf("live admissions recorded recovered keys %v", keys)
	}
	stopPersistServer(svc, ts)

	// Recovered. A ledger of unsettled submissions — the seed-9 blocker, a
	// seed-1 run whose result reached the disk cache before its settle
	// record was lost, two seed-2 runs and a sweep over seeds 1, 2 and 3 —
	// is replayed by a fresh daemon.
	writeAdmissionLedger(t, stateDir)

	svc, ts = startPersistServer(t, Config{Budget: 1, Backend: heldBackend{}, CacheDir: cacheDir, StateDir: stateDir, Logger: testLogger(t)})
	defer stopPersistServer(svc, ts)
	for _, c := range []admission{
		{entry: "recovered job", id: "j00000002", outcome: "cache-hit", recovered: true},
		{entry: "recovered job", id: "j00000003", outcome: "queued", recovered: true},
		{entry: "recovered job", id: "j00000004", outcome: "coalesced", leader: "j00000003", recovered: true},
		{entry: "recovered sweep cell", id: "s00000001.c000", outcome: "cache-hit"},
		{entry: "recovered sweep cell", id: "s00000001.c001", outcome: "coalesced", leader: "j00000003"},
		{entry: "recovered sweep cell", id: "s00000001.c002", outcome: "queued"},
	} {
		checkAdmission(t, svc, c)
	}
	m := svc.metrics()
	if m.Cache.Hits != 0 || m.Cache.Misses != 0 || m.Cache.Coalesced != 0 {
		t.Errorf("recovered admissions moved the cache counters: %+v", m.Cache)
	}
	if m.Durability == nil || m.Durability.JobsRecovered != 4 || m.Sweeps == nil || m.Sweeps.Recovered != 1 {
		t.Errorf("recovery counters: durability %+v, sweeps %+v; want 4 jobs and 1 sweep", m.Durability, m.Sweeps)
	}
	if got, want := svc.RecoveredKeys(), []string{planAdmission(t, 9).key, planAdmission(t, 2).key, planAdmission(t, 3).key}; !slices.Equal(got, want) {
		t.Errorf("RecoveredKeys = %v, want the queued recovered runs' keys %v", got, want)
	}
}
