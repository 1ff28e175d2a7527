package obs

import (
	"sort"
	"sync"
	"time"
)

// The flight recorder: every run gets a Trace at submission, phases the run's
// record cannot restate append Spans as they happen (backend compilation and
// execution, cluster leases and uploads), and GET /v1/runs/{id}/trace
// replays the timeline, merging in the spans its caller renders from its own
// record (the scheduler's submitted, queued, run and settled phases) rather
// than storing. A trace caps its stored span count, counting overflow
// instead of growing, and lives on its run's job record, so the service's
// job and sweep history bounds how many traces a long-lived daemon keeps.
// The service's sweep event streams are likewise rendered on read, from the
// sweep's settled cells.

// maxSpansPerTrace bounds one trace's timeline. A plain run records a
// handful of spans; a large cluster run records a few per shard, so 1024
// covers hundreds of shards before overflow counting starts.
const maxSpansPerTrace = 1024

// Span is one timed phase of a run. Point events carry Start == End.
type Span struct {
	// Name is the phase: submitted, queued, compile, execute, run, lease,
	// upload, settled, ...
	Name string
	// Worker names the executing node for cluster-side spans.
	Worker string
	// Detail is free-form context (rep range, worker grant, terminal state).
	Detail string
	Start  time.Time
	End    time.Time
}

// Trace is one run's span timeline. Appends are cheap and safe from any
// goroutine (coordinator settle path, local backend, scheduler); the nil
// trace swallows appends so instrumented code needs no guards.
type Trace struct {
	mu      sync.Mutex
	id      string
	run     string
	spans   []Span
	dropped int
}

// NewTrace starts an empty timeline for run under the trace ID id.
func NewTrace(id, run string) *Trace {
	return &Trace{id: id, run: run}
}

// ID returns the trace identifier ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Add appends a span, counting instead of appending beyond the cap.
func (t *Trace) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpansPerTrace {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// TraceView is the JSON representation of a timeline, served by
// GET /v1/runs/{id}/trace.
type TraceView struct {
	Trace string `json:"trace"`
	Run   string `json:"run"`
	// DroppedSpans counts spans discarded beyond the per-trace cap.
	DroppedSpans int        `json:"dropped_spans,omitempty"`
	Spans        []SpanView `json:"spans"`
}

// SpanView is one rendered span.
type SpanView struct {
	Name       string  `json:"name"`
	Worker     string  `json:"worker,omitempty"`
	Detail     string  `json:"detail,omitempty"`
	Start      string  `json:"start"`
	End        string  `json:"end"`
	DurationMS float64 `json:"duration_ms"`
}

// View renders the timeline: the stored spans merged with phases, spans the
// caller derives from its own record instead of storing them. Spans are
// sorted by (start, name, worker, detail) — concurrent appenders (shards
// settling in any order) race only for slice position, so the sort makes
// the rendered timeline a pure function of the set of spans recorded.
func (t *Trace) View(phases ...Span) TraceView {
	spans := append([]Span(nil), phases...)
	var v TraceView
	if t != nil {
		t.mu.Lock()
		spans = append(spans, t.spans...)
		v = TraceView{Trace: t.id, Run: t.run, DroppedSpans: t.dropped}
		t.mu.Unlock()
	}
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.Detail < b.Detail
	})
	v.Spans = make([]SpanView, len(spans))
	for i, s := range spans {
		v.Spans[i] = SpanView{
			Name:       s.Name,
			Worker:     s.Worker,
			Detail:     s.Detail,
			Start:      s.Start.UTC().Format(time.RFC3339Nano),
			End:        s.End.UTC().Format(time.RFC3339Nano),
			DurationMS: float64(s.End.Sub(s.Start)) / float64(time.Millisecond),
		}
	}
	return v
}
