package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxSpans bounds the spans one traced run keeps in memory; later spans are
// counted as dropped instead of growing the heap without limit.
const maxSpans = 250_000

// span is one interval recorded by the benchmark's own code around a call
// into a layer of the program. Its name is "<layer>.<call>", the layer being
// the program's module name (service, cluster, engine, ...). Spans of one
// request share a trace identifier; Parent names the span that caused it.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Trace   string  `json:"trace,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer is valid and records nothing, so untraced runs pay only a nil
// check at each boundary.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	counts  map[string]float64
	nextID  int64
	dropped int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]float64)}
}

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	trace  string
	name   string
	start  time.Time
}

// begin opens a span under parent (0 for a root span).
func (t *tracer) begin(name string, parent int64, trace string) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return openSpan{t: t, id: id, parent: parent, trace: trace, name: name, start: time.Now()}
}

// end closes the span.
func (o openSpan) end() {
	if o.t != nil {
		o.t.record(o.id, o.parent, o.trace, o.name, o.start, time.Now())
	}
}

// add records a span whose interval the caller has already measured and
// returns its identifier.
func (t *tracer) add(name string, parent int64, trace string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	t.record(id, parent, trace, name, start, end)
	return id
}

func (t *tracer) record(id, parent int64, trace, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		ID:      id,
		Parent:  parent,
		Trace:   trace,
		Name:    name,
		StartUS: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
		DurUS:   float64(end.Sub(start).Nanoseconds()) / 1e3,
	})
}

// count adds delta to a named counter recorded at a layer boundary.
func (t *tracer) count(name string, delta float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += delta
	t.mu.Unlock()
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// mark is a position in the span log; spansSince returns the spans recorded
// after it, so a probe can derive its metrics from its own spans alone.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) spansSince(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// named returns the spans called name, and with trace as their trace
// identifier unless trace is empty.
func named(spans []span, name, trace string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name && (trace == "" || s.Trace == trace) {
			out = append(out, s)
		}
	}
	return out
}

// durationsMS returns the spans' durations in milliseconds.
func durationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.DurUS / 1e3
	}
	return out
}

// spanCount is the number of spans recorded so far, dropped ones included.
func (t *tracer) spanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + t.dropped
}

// layerTime is one layer's share of a trace.
type layerTime struct {
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the layer's span time not covered by its child spans.
	SelfMS float64 `json:"self_ms"`
}

// layers sums span time per layer. A span's self time is its duration minus
// the part of its interval that its children cover.
func (t *tracer) layers() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		lt := out[layer]
		lt.Spans++
		lt.TotalMS += s.DurUS / 1e3
		lt.SelfMS += (s.DurUS - covered(s, children[s.ID])) / 1e3
		out[layer] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals clipped to
// the parent's interval, in microseconds.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b float64 }
	lo, hi := parent.StartUS, parent.StartUS+parent.DurUS
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartUS, lo), min(k.StartUS+k.DurUS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// traceSection is one tracer's content in a trace file.
type traceSection struct {
	Dropped int                  `json:"dropped_spans"`
	Counts  map[string]float64   `json:"counts"`
	Layers  map[string]layerTime `json:"layers"`
	Spans   []span               `json:"spans"`
}

func (t *tracer) section() traceSection {
	layers := t.layers()
	t.mu.Lock()
	defer t.mu.Unlock()
	return traceSection{Dropped: t.dropped, Counts: t.counts, Layers: layers, Spans: t.spans}
}

// traceFile is the document a traced run writes: the workload's own spans,
// recorded while it was measured, and the layer ladder's.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Env      envInfo      `json:"env"`
	Measured traceSection `json:"measured"`
	Ladder   traceSection `json:"ladder"`
}

// writeTrace stores the trace as <dir>/trace-<workload>.json.
func writeTrace(dir string, doc traceFile) (string, error) {
	data, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+doc.Workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
