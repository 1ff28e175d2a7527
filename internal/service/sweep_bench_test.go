package service

import (
	"fmt"
	"testing"
	"time"

	"dynamicrumor/internal/engine"
)

// The sweep-vs-separate anchor pair (recorded in BENCH_*.json; the
// Makefile's bench and bench-smoke targets run it): the same deterministic
// 24-cell grid — clique n ∈ {1024, 2048} × 12 seeds, async, 1 rep per cell —
// executed once as a native sweep and once as 24 separate submissions
// against the same service. The native path plans the grid in one request and compiles every
// cell through one engine.CompileSet, so the n=1024 and n=2048 cliques are
// built once each and read concurrently by all 24 cells; the separate path
// parses, canonicalizes, admits, and compiles each submission on its own,
// rebuilding each clique 12 times. Both paths produce byte-identical
// per-cell summaries (pinned by TestSweepCellsByteIdenticalToStandaloneRuns);
// the pair measures only the amortization.

// benchSweepCells is the anchor grid size; the names below encode it so a
// drive-by edit of the grid cannot silently change what the anchor measures.
const benchSweepCells = 24

func benchSweepRequest() SweepRequest {
	seeds := make([]uint64, 12)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return SweepRequest{
		Sweep: SweepSpec{Family: "clique", N: []int{1024, 2048}, Seeds: seeds},
		Reps:  1,
	}
}

func newBenchService(b *testing.B) *Service {
	b.Helper()
	svc, err := New(Config{Budget: 2})
	if err != nil {
		b.Fatal(err)
	}
	return svc
}

func waitSweepTerminal(b *testing.B, svc *Service, id string) {
	b.Helper()
	for {
		svc.mu.Lock()
		sw := svc.sweeps[id]
		var state JobState
		if sw != nil {
			state = sw.state
		}
		svc.mu.Unlock()
		if sw == nil {
			b.Fatalf("sweep %s disappeared", id)
		}
		if state.Terminal() {
			if state != StateDone {
				b.Fatalf("sweep %s settled %s", id, state)
			}
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func waitJobsTerminal(b *testing.B, svc *Service, ids []string) {
	b.Helper()
	for {
		svc.mu.Lock()
		pending := false
		for _, id := range ids {
			j := svc.jobs[id]
			if j == nil {
				svc.mu.Unlock()
				b.Fatalf("job %s disappeared", id)
			}
			if !j.state.Terminal() {
				pending = true
				break
			}
			if j.state != StateDone {
				st := j.state
				svc.mu.Unlock()
				b.Fatalf("job %s settled %s", id, st)
			}
		}
		svc.mu.Unlock()
		if !pending {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// BenchmarkSweepNative24Cells: one POST /v1/sweeps worth of work — plan the
// grid, admit it, share compiled networks across cells, run to completion.
func BenchmarkSweepNative24Cells(b *testing.B) {
	req := benchSweepRequest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svc := newBenchService(b)
		cells, err := planSweep(req, svc.defaultStream)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != benchSweepCells {
			b.Fatalf("planned %d cells, want %d", len(cells), benchSweepCells)
		}
		view, err := svc.submitSweep(req, cells, "")
		if err != nil {
			b.Fatal(err)
		}
		waitSweepTerminal(b, svc, view.ID)
		svc.Close()
	}
}

// BenchmarkSweepSeparate24Cells: the same grid as 24 independent POST
// /v1/runs submissions — per-cell parse, canonicalization, admission, and
// network construction, exactly what a client looping over the grid incurs.
func BenchmarkSweepSeparate24Cells(b *testing.B) {
	req := benchSweepRequest()
	docs := make([][]byte, 0, benchSweepCells)
	seeds := make([]uint64, 0, benchSweepCells)
	for _, n := range req.Sweep.N {
		for _, seed := range req.Sweep.Seeds {
			docs = append(docs, []byte(fmt.Sprintf(
				`{"network":{"family":"clique","params":{"n":%d}}}`, n)))
			seeds = append(seeds, seed)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svc := newBenchService(b)
		ids := make([]string, 0, len(docs))
		for k, doc := range docs {
			sc, err := engine.Parse(doc)
			if err != nil {
				b.Fatal(err)
			}
			pc, err := planRun(sc, seeds[k], req.Reps, 0)
			if err != nil {
				b.Fatal(err)
			}
			view, err := svc.submit(pc, req.Reps, "")
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, view.ID)
		}
		waitJobsTerminal(b, svc, ids)
		svc.Close()
	}
}
