package service

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// retainedBytesPerJob bounds the live heap one settled job leaves behind
// in the service's history: its record, summary, trace and share of its
// sweep. TestRetainedHeapPerSettledJob measures 1429–1439 bytes a job, and
// 2598–2613 when each record also stores its scheduler spans, rendered
// sweep events and parsed scenario (2-CPU Xeon VM, go1.24.0, with and
// without -race alike). The bound sits 40% above the first figure and 23%
// below the second.
const retainedBytesPerJob = 2000

// TestRetainedHeapPerSettledJob settles 1000 plain runs and 40 twelve-cell
// sweeps, following each run to done and each sweep's event stream to its
// terminal event, and bounds the live heap the history keeps per job.
func TestRetainedHeapPerSettledJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Budget: 2})
	run := func(seed int) {
		t.Helper()
		status, body := do(t, http.MethodPost, ts.URL+"/v1/runs",
			fmt.Sprintf(`{"scenario":{"network":{"family":"clique","params":{"n":32}}},"reps":4,"seed":%d}`, seed))
		if status != http.StatusAccepted {
			t.Fatalf("submit seed %d returned %d: %s", seed, status, body)
		}
		waitState(t, ts.URL, decodeJob(t, body).ID, StateDone)
	}
	sweep := func(seed int) {
		t.Helper()
		status, body := do(t, http.MethodPost, ts.URL+"/v1/sweeps",
			fmt.Sprintf(`{"sweep":{"family":"clique","n":[32,48,64],"protocols":["async","sync"],"seeds":[%d,%d]},"reps":4}`, seed, seed+1))
		if status != http.StatusAccepted {
			t.Fatalf("sweep submit seed %d returned %d: %s", seed, status, body)
		}
		status, events := do(t, http.MethodGet, ts.URL+"/v1/sweeps/"+decodeSweep(t, body).ID+"/events", "")
		if status != http.StatusOK || strings.Count(string(events), "event: cell") != 12 || !strings.Contains(string(events), "event: sweep") {
			t.Fatalf("sweep seed %d events returned %d: %s", seed, status, events)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	// Warm up the lazily allocated state — connections, the compile paths,
	// the first sweep — before the baseline.
	run(1)
	sweep(1 << 20)
	before := liveHeap()
	const runs, sweeps = 1000, 40
	for i := range runs {
		run(1000 + i)
	}
	for i := range sweeps {
		sweep(2000 + 2*i)
	}
	after := liveHeap()
	perJob := (float64(after) - float64(before)) / float64(runs+12*sweeps)
	t.Logf("live heap %d → %d bytes: %.0f bytes per settled job", before, after, perJob)
	if perJob > retainedBytesPerJob {
		t.Errorf("settled jobs keep %.0f bytes each on the heap, want at most %d", perJob, retainedBytesPerJob)
	}
}
