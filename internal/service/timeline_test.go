package service

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"regexp"
	"sync/atomic"
	"testing"
	"time"
)

// stepClock returns a clock that starts at testClock and advances one
// millisecond per call, so every timestamp a service takes is distinct and
// the order of its clock reads shows in the rendered timelines.
func stepClock() func() time.Time {
	var calls atomic.Int64
	return func() time.Time {
		return testClock().Add(time.Duration(calls.Add(1)-1) * time.Millisecond)
	}
}

// wallClockSpan matches the LocalBackend's compiled and execute spans,
// the only times in a timeline taken from the wall clock.
var wallClockSpan = regexp.MustCompile(`("name":"(?:compiled|execute)","start":")[^"]*(","end":")[^"]*(","duration_ms":)[^,}]*`)

// timeline accumulates the golden document of TestTimelineGolden: labelled
// response bodies in the order the test read them.
type timeline struct {
	t   *testing.T
	url string
	buf bytes.Buffer
}

// trace records a job's GET /v1/runs/{id}/trace body with its wall-clock
// span times masked.
func (tl *timeline) trace(id, when string) {
	tl.t.Helper()
	status, body := do(tl.t, http.MethodGet, tl.url+"/v1/runs/"+id+"/trace", "")
	if status != http.StatusOK {
		tl.t.Fatalf("trace of %s returned %d: %s", id, status, body)
	}
	fmt.Fprintf(&tl.buf, "### trace %s (%s)\n%s", id, when, wallClockSpan.ReplaceAll(body, []byte("${1}*${2}*${3}0")))
}

// events records a sweep's SSE body: the first n events while the stream is
// live (n > 0), or the whole stream of a terminal sweep (n == 0).
func (tl *timeline) events(id string, n int, when string) {
	tl.t.Helper()
	resp, err := http.Get(tl.url + "/v1/sweeps/" + id + "/events")
	if err != nil {
		tl.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tl.t.Fatalf("events of %s returned %d", id, resp.StatusCode)
	}
	var body bytes.Buffer
	rd := bufio.NewReader(resp.Body)
	for seen := 0; n == 0 || seen < n; {
		line, err := rd.ReadBytes('\n')
		body.Write(line)
		if err != nil {
			if n > 0 {
				tl.t.Fatalf("events of %s ended after %d of %d events: %v", id, seen, n, err)
			}
			break
		}
		if len(line) == 1 {
			seen++
		}
	}
	fmt.Fprintf(&tl.buf, "### events %s (%s)\n%s", id, when, body.Bytes())
}

// TestTimelineGolden pins every job's /trace body and a sweep's SSE body,
// read while the work is live and again once it is terminal, across the
// lifecycle paths: a done run and a cache hit, a running cancel, a queued
// cancel whose coalesced follower is promoted and then cancelled while
// running, a sweep with a cache-hit cell, a run left queued (and one left
// running) at Close, and recovered hit, queued and coalesced jobs. The
// clock advances 1 ms per read and heldBackend finishes only seeds 1 and 5,
// so every timestamp is deterministic except the wall-clock times of the
// backend's compiled and execute spans, which are masked.
func TestTimelineGolden(t *testing.T) {
	cacheDir, stateDir := t.TempDir(), t.TempDir()
	svc, ts := startPersistServer(t, Config{Budget: 1, Backend: heldBackend{}, CacheDir: cacheDir, Clock: stepClock()})
	tl := &timeline{t: t, url: ts.URL}
	submit := func(seed uint64, status int) JobView {
		t.Helper()
		got, body := do(t, http.MethodPost, ts.URL+"/v1/runs", admissionRun(seed))
		if got != status {
			t.Fatalf("submit seed %d returned %d, want %d: %s", seed, got, status, body)
		}
		return decodeJob(t, body)
	}
	cancel := func(id string, status int) {
		t.Helper()
		if got, body := do(t, http.MethodDelete, ts.URL+"/v1/runs/"+id, ""); got != status {
			t.Fatalf("cancel %s returned %d, want %d: %s", id, got, status, body)
		}
	}

	// A done run, then its cache hit.
	done := submit(1, http.StatusAccepted).ID
	waitState(t, ts.URL, done, StateDone)
	tl.trace(done, "done")
	hit := submit(1, http.StatusOK).ID
	tl.trace(hit, "cache hit")

	// A running run; a queued one and its coalesced follower behind it.
	running := submit(2, http.StatusAccepted).ID
	waitState(t, ts.URL, running, StateRunning)
	tl.trace(running, "running")
	leader := submit(3, http.StatusAccepted).ID
	follower := submit(3, http.StatusAccepted)
	if follower.CoalescedWith != leader {
		t.Fatalf("second seed-3 submission coalesced with %q, want %s", follower.CoalescedWith, leader)
	}
	tl.trace(leader, "queued")
	tl.trace(follower.ID, "coalesced")

	// The queued leader is cancelled and its follower promoted; the
	// running run is cancelled, so the promoted follower runs, and is
	// cancelled in turn.
	cancel(leader, http.StatusOK)
	tl.trace(leader, "cancelled while queued")
	tl.trace(follower.ID, "promoted")
	cancel(running, http.StatusAccepted)
	waitState(t, ts.URL, running, StateCancelled)
	tl.trace(running, "cancelled while running")
	waitState(t, ts.URL, follower.ID, StateRunning)
	tl.trace(follower.ID, "running after promotion")
	cancel(follower.ID, http.StatusAccepted)
	waitState(t, ts.URL, follower.ID, StateCancelled)
	tl.trace(follower.ID, "cancelled while running")

	// A sweep over seeds 1, 5 and 6: a cache-hit cell, a cell that runs to
	// done and a cell held running until the sweep is cancelled.
	status, body := do(t, http.MethodPost, ts.URL+"/v1/sweeps", `{"sweep":{"family":"clique","n":[32],"seeds":[1,5,6]},"reps":4}`)
	if status != http.StatusAccepted {
		t.Fatalf("sweep submit returned %d: %s", status, body)
	}
	sw := decodeSweep(t, body).ID
	cells := []string{sw + ".c000", sw + ".c001", sw + ".c002"}
	waitState(t, ts.URL, cells[2], StateRunning)
	for _, c := range cells {
		tl.trace(c, "sweep running")
	}
	tl.events(sw, 2, "live")
	if status, body := do(t, http.MethodDelete, ts.URL+"/v1/sweeps/"+sw, ""); status != http.StatusAccepted {
		t.Fatalf("sweep cancel returned %d: %s", status, body)
	}
	waitSweep(t, ts.URL, sw, StateCancelled)
	tl.trace(cells[2], "sweep cancelled")
	tl.events(sw, 0, "terminal")

	// One run holds the worker and another waits behind it when the
	// service closes.
	atClose := submit(7, http.StatusAccepted).ID
	waitState(t, ts.URL, atClose, StateRunning)
	queuedAtClose := submit(8, http.StatusAccepted).ID
	tl.trace(atClose, "running")
	tl.trace(queuedAtClose, "queued")
	svc.Close()
	for _, id := range append([]string{done, hit, running, leader, follower.ID, atClose, queuedAtClose}, cells...) {
		tl.trace(id, "after close")
	}
	ts.Close()

	// Recovery: a fresh daemon replays the admission ledger over the cache
	// that holds the seed-1 result.
	writeAdmissionLedger(t, stateDir)
	svc, ts = startPersistServer(t, Config{Budget: 1, Backend: heldBackend{}, CacheDir: cacheDir, StateDir: stateDir, Clock: stepClock()})
	tl.url = ts.URL
	recovered := []string{"j00000001", "j00000002", "j00000003", "j00000004", "s00000001.c000", "s00000001.c001", "s00000001.c002"}
	waitState(t, ts.URL, recovered[0], StateRunning)
	for _, id := range recovered {
		tl.trace(id, "recovered")
	}
	svc.Close()
	for _, id := range recovered {
		tl.trace(id, "recovered, after close")
	}
	tl.events("s00000001", 0, "recovered, after close")
	ts.Close()

	checkGolden(t, "timeline.golden", tl.buf.Bytes())
}
