package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWorkloadsSmoke runs every workload briefly, and one of them traced,
// and checks that no operation failed and that every metric BENCHMARK.json
// names is reported with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	spec, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, w *workload, trace bool, declared []specMetric) {
		traceDir := t.TempDir()
		res, err := runWorkload(context.Background(), w, options{
			seed:     1,
			seconds:  0.5,
			trace:    trace,
			workRoot: t.TempDir(),
			traceDir: traceDir,
		}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
			t.Fatalf("attempted=%d failed=%d correct=%v: %v", res.Attempted, res.Failed, res.Correct, res.Failures)
		}
		if len(res.Metrics) != len(declared) {
			t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(declared))
		}
		for _, m := range declared {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
			}
		}
		if !trace {
			return
		}
		data, err := os.ReadFile(filepath.Join(traceDir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc traceFile
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Measured.Spans) == 0 || len(doc.Ladder.Spans) == 0 || doc.Workload != w.name {
			t.Errorf("trace has %d measured and %d ladder spans for workload %q",
				len(doc.Measured.Spans), len(doc.Ladder.Spans), doc.Workload)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) { run(t, w, false, spec.EndToEnd) })
	}
	t.Run("service-plain-traced", func(t *testing.T) { run(t, plainWorkload, true, spec.PerLayer) })
}
