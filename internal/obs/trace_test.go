package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTraceViewSortsDeterministically(t *testing.T) {
	base := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	tr := NewTrace("tr1", "j1")

	// Append shard spans from concurrent goroutines in racing order; the
	// rendered view must come out identical to the sequential ordering.
	const shards = 64
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr.Add(Span{
				Name:   "lease",
				Worker: fmt.Sprintf("w%02d", i%4),
				Detail: fmt.Sprintf("[%04d,%04d)", i*10, i*10+10),
				Start:  base.Add(time.Duration(i%8) * time.Millisecond),
				End:    base.Add(time.Duration(i%8+1) * time.Millisecond),
			})
		}(i)
	}
	wg.Wait()

	v1 := tr.View()
	v2 := tr.View()
	if len(v1.Spans) != shards {
		t.Fatalf("spans = %d, want %d", len(v1.Spans), shards)
	}
	for i := range v1.Spans {
		if v1.Spans[i] != v2.Spans[i] {
			t.Fatalf("view not deterministic at span %d: %+v vs %+v", i, v1.Spans[i], v2.Spans[i])
		}
	}
	parse := func(s string) time.Time {
		ts, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			t.Fatalf("bad span timestamp %q: %v", s, err)
		}
		return ts
	}
	for i := 1; i < len(v1.Spans); i++ {
		a, b := v1.Spans[i-1], v1.Spans[i]
		as, bs := parse(a.Start), parse(b.Start)
		if as.After(bs) {
			t.Fatalf("spans out of start order at %d: %s > %s", i, a.Start, b.Start)
		}
		if as.Equal(bs) && a.Worker > b.Worker {
			t.Fatalf("equal-start spans out of worker order at %d", i)
		}
		if as.Equal(bs) && a.Worker == b.Worker && a.Detail > b.Detail {
			t.Fatalf("spans out of detail order at %d", i)
		}
	}
	if v1.Spans[0].DurationMS != 1 {
		t.Errorf("duration_ms = %g, want 1", v1.Spans[0].DurationMS)
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("tr1", "j1")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		tr.Add(Span{Name: "s"})
	}
	v := tr.View()
	if len(v.Spans) != maxSpansPerTrace {
		t.Errorf("spans = %d, want cap %d", len(v.Spans), maxSpansPerTrace)
	}
	if v.DroppedSpans != 10 {
		t.Errorf("dropped = %d, want 10", v.DroppedSpans)
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Add(Span{Name: "x"})
	if tr.ID() != "" {
		t.Errorf("nil ID = %q, want empty", tr.ID())
	}
	v := tr.View()
	if len(v.Spans) != 0 {
		t.Errorf("nil view spans = %d, want 0", len(v.Spans))
	}
}

// TestTraceViewMergesPhases: the caller's phase spans are rendered with the
// stored ones in one sorted timeline, are never stored, and render on a nil
// trace too.
func TestTraceViewMergesPhases(t *testing.T) {
	base := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	tr := NewTrace("tr1", "j1")
	tr.Add(Span{Name: "execute", Start: base.Add(time.Millisecond), End: base.Add(2 * time.Millisecond)})
	phases := []Span{
		{Name: "settled", Start: base.Add(3 * time.Millisecond), End: base.Add(3 * time.Millisecond)},
		{Name: "submitted", Start: base, End: base},
	}
	var names []string
	for _, s := range tr.View(phases...).Spans {
		names = append(names, s.Name)
	}
	if fmt.Sprint(names) != "[submitted execute settled]" {
		t.Errorf("merged timeline %v, want [submitted execute settled]", names)
	}
	if n := len(tr.View().Spans); n != 1 {
		t.Errorf("view without phases has %d spans, want the 1 stored", n)
	}
	if phases[0].Name != "settled" {
		t.Errorf("View reordered the caller's phases: %v", phases)
	}
	var nilTrace *Trace
	if v := nilTrace.View(phases...); len(v.Spans) != 2 || v.Spans[0].Name != "submitted" {
		t.Errorf("nil trace view %+v, want the 2 phases in start order", v.Spans)
	}
}
