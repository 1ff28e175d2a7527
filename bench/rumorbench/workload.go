package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	// primary names the operation whose latency the latency metrics report.
	primary string
	// setup starts one deployment and warms it up; the benchmark times it as
	// set-up.
	setup func(ctx context.Context, rc *runContext) (deployment, error)
	// setups is how many times an untraced run sets the workload up; setup_s
	// is the median. Enough set-ups put the median past the first few, which
	// run in a cold process and take up to 1.7 times as long.
	setups int
}

// deployment is a set-up workload, ready to be measured.
type deployment interface {
	// measure applies the workload's load until deadline, recording every
	// operation, failed and wrong ones included, in tl. It may be called
	// more than once; each call continues the load where the last one
	// stopped, with inputs not used before.
	measure(ctx context.Context, deadline time.Time, tl *tally)
	close()
}

// workloads is the benchmark's workload registry, in the order BENCHMARK.json
// lists them.
var workloads = []*workload{
	reproduceWorkload,
	ensembleWorkload,
	plainWorkload,
	durableWorkload,
	clusterWorkload,
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// runContext carries what every set-up of one run shares.
type runContext struct {
	// seed is the workload seed; every input of the run derives from it.
	seed uint64
	// dir is the run's private scratch directory.
	dir string
	// tr records spans in a traced run and is nil otherwise.
	tr *tracer
}

// subdir creates a fresh directory inside the run's scratch directory.
func (rc *runContext) subdir(prefix string) (string, error) {
	return os.MkdirTemp(rc.dir, prefix)
}

// tally counts a run's operations. It is safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int
	latencies []float64 // primary operations, milliseconds
	reasons   map[string]int
	notes     []string
}

// notef adds a diagnostic line to the run's report.
func (t *tally) notef(format string, args ...any) {
	t.mu.Lock()
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

func newTally() *tally { return &tally{reasons: make(map[string]int)} }

// ok records a successful operation that is not the workload's primary one.
func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// okTimed records a successful primary operation and its latency.
func (t *tally) okTimed(d time.Duration) {
	t.mu.Lock()
	t.attempted++
	t.latencies = append(t.latencies, float64(d.Nanoseconds())/1e6)
	t.mu.Unlock()
}

// failf records an operation the program refused or did not complete.
func (t *tally) failf(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	t.reasons[fmt.Sprintf(format, args...)]++
	t.mu.Unlock()
}

// wrongf records an operation whose output failed its correctness check.
func (t *tally) wrongf(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	t.wrong++
	t.reasons["wrong: "+fmt.Sprintf(format, args...)]++
	t.mu.Unlock()
}

// merge adds o's operations and failures to t, but not its notes.
func (t *tally) merge(o *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.latencies = append(t.latencies, o.latencies...)
	for r, n := range o.reasons {
		t.reasons[r] += n
	}
}

// failureLines lists the distinct failure reasons with their counts.
func (t *tally) failureLines() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for r, n := range t.reasons {
		out = append(out, fmt.Sprintf("%dx %s", n, r))
	}
	sort.Strings(out)
	return out
}

// closedLoop runs clients concurrent callers, each issuing its next operation
// only after the previous one completed, until deadline. op records its
// outcome in the run's tally.
func closedLoop(ctx context.Context, clients int, deadline time.Time, op func(client int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				op(c)
			}
		}()
	}
	wg.Wait()
}
