package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynamicrumor/internal/xrand"
)

func TestQuantileAndTailRule(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	// The p90 of n samples is measured once at least ten lie beyond it: the
	// first such n is 92, and 100 samples leave exactly ten.
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{91, 0.9, 9, false}, {92, 0.9, 10, true}, {100, 0.9, 10, true},
		{999, 0.99, 10, true}, {5, 0.9, 1, false}, {20, 0.5, 10, true}, {0, 0.9, 0, false},
	} {
		if got := beyond(c.n, c.q); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
		if got := tailMeasured(c.n, c.q); got != c.ok {
			t.Errorf("tailMeasured(%d, %v) = %v, want %v", c.n, c.q, got, c.ok)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), which
// is how the spread of a metric is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4}, [3]float64{1.8125, 3.75, 7.75}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// fakeService answers POST /v1/runs with a fixed status and body.
func fakeService(t *testing.T, status int, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestFailuresCountOnce(t *testing.T) {
	ctx := context.Background()
	settled := settledRun{body: runRequest("clique", 64, smallReps, 1), summary: []byte(`{"mean":1}`)}
	for _, c := range []struct {
		name                string
		status              int
		body                string
		resubmit            bool
		wantFailed, wantBad int
	}{
		{"rate limited", http.StatusTooManyRequests, `{"error":"rate limited"}`, false, 1, 0},
		{"server error", http.StatusInternalServerError, `{"error":"boom"}`, false, 1, 0},
		{"unavailable resubmit", http.StatusServiceUnavailable, `{"error":"no workers"}`, true, 1, 0},
		{"non-identical cache hit", http.StatusOK, `{"id":"r1","state":"done","cache_hit":true,"summary":{"mean":2}}`, true, 1, 1},
		{"identical cache hit", http.StatusOK, `{"id":"r1","state":"done","cache_hit":true,"summary":{"mean":1}}`, true, 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := fakeService(t, c.status, c.body)
			p := &plainDeployment{d: &httpDeployment{base: srv.URL}}
			client := &plainClient{api: newAPIClient(srv.URL, nil, 1), rng: xrand.New(1), settled: []settledRun{settled}}
			defer client.api.close()
			tl := newTally()
			if c.resubmit {
				p.resubmit(ctx, client, tl)
			} else {
				p.newRun(ctx, client, tl)
			}
			if tl.attempted != 1 || tl.failed != c.wantFailed || tl.wrong != c.wantBad {
				t.Fatalf("attempted=%d failed=%d wrong=%d, want 1/%d/%d (%v)",
					tl.attempted, tl.failed, tl.wrong, c.wantFailed, c.wantBad, tl.failureLines())
			}
		})
	}
}

// A server that stalls must inflate the latency of every request due during
// the stall, because latency runs from the due time, not from when a sender
// got to the request.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	start := time.Now()
	stallEnd := start.Add(300 * time.Millisecond)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Until(stallEnd))
		served.Add(1)
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"r","state":"queued"}`))
	}))
	defer srv.Close()

	var arrivals []arrival
	var floors []float64 // least latency each arrival can see, in ms
	for i := 1; i <= 25; i++ {
		due := start.Add(time.Duration(i) * 15 * time.Millisecond)
		arrivals = append(arrivals, arrival{due: due, body: runRequest("clique", 64, smallReps, uint64(i))})
		floors = append(floors, max(0, float64(stallEnd.Sub(due).Nanoseconds())/1e6))
	}
	p := &durableDeployment{accepted: make(map[uint64]bool)}
	apis := []*apiClient{newAPIClient(srv.URL, nil, 1), newAPIClient(srv.URL, nil, 2)}
	defer apis[0].close()
	defer apis[1].close()
	tl := newTally()
	lags, backlog := openLoop(arrivals, start.Add(time.Second), nil, func(sender int, a *arrival) {
		p.send(context.Background(), apis[sender], a, tl)
	})
	if tl.failed != 0 || len(tl.latencies) != len(arrivals) || served.Load() != int64(len(arrivals)) {
		t.Fatalf("failed=%d latencies=%d served=%d, want 0/%d/%d: %v",
			tl.failed, len(tl.latencies), served.Load(), len(arrivals), len(arrivals), tl.failureLines())
	}
	if backlog != 0 || len(lags) != len(arrivals) {
		t.Fatalf("backlog=%d lags=%d, want 0 and %d", backlog, len(lags), len(arrivals))
	}
	// Latencies complete out of order, so compare them as multisets: the
	// k-th largest latency must reach the k-th largest floor.
	got := append([]float64(nil), tl.latencies...)
	sort.Sort(sort.Reverse(sort.Float64Slice(got)))
	sort.Sort(sort.Reverse(sort.Float64Slice(floors)))
	for k := range floors {
		if got[k] < floors[k]-5 {
			t.Fatalf("latency #%d = %.1f ms, want at least %.1f ms (the wait behind the stall): %v", k, got[k], floors[k], got)
		}
	}
}

func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	spec, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var registered []string
	for _, w := range workloads {
		registered = append(registered, w.name)
	}
	if strings.Join(names, ",") != strings.Join(registered, ",") {
		t.Errorf("BENCHMARK.json workloads %v, registry %v", names, registered)
	}
	check := func(kind string, declared []specMetric, emitted []metricDef) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark emits %d", kind, len(declared), len(emitted))
		}
		for i := range min(len(declared), len(emitted)) {
			if declared[i].Name != emitted[i].name || declared[i].Unit != emitted[i].unit {
				t.Errorf("%s #%d: BENCHMARK.json has %s [%s], the benchmark emits %s [%s]", kind, i,
					declared[i].Name, declared[i].Unit, emitted[i].name, emitted[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics())

	// withUnits is the gate every run's output passes: it must refuse a
	// missing metric and an unnamed one.
	values := map[string]float64{}
	for _, d := range endToEndMetrics {
		values[d.name] = 1
	}
	if _, err := withUnits(endToEndMetrics, values); err != nil {
		t.Errorf("complete metrics refused: %v", err)
	}
	values["unnamed"] = 1
	if _, err := withUnits(endToEndMetrics, values); err == nil {
		t.Error("an unnamed metric was accepted")
	}
	delete(values, "unnamed")
	delete(values, "setup_s")
	if _, err := withUnits(endToEndMetrics, values); err == nil {
		t.Error("a missing metric was accepted")
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", shift(base, 1.001), "no change"},
		{"faster", shift(base, 0.8), "improved"},
		{"slower", shift(base, 1.3), "worse"},
		{"noisy", []float64{50, 150, 60, 140, 100, 55, 145, 100, 70, 130}, "unresolved"},
	} {
		if got := judge(base, c.b, true, 0.1, 0).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Set-up times of about 30 ms whose spread is a large share of the
	// median but a few milliseconds wide: resolved under the 50 ms floor, a
	// slowdown beyond the floor is worse, and higher-is-better flips it.
	setupA := []float64{0.030, 0.022, 0.035, 0.026, 0.041, 0.028, 0.033, 0.024, 0.038, 0.030}
	floor := absoluteFloor["setup_s"]
	if got := judge(setupA, shift(setupA, 1.3), true, 0.25, 0).verdict; got != "unresolved" {
		t.Errorf("noisy set-up without a floor: verdict %q, want unresolved", got)
	}
	if got := judge(setupA, shift(setupA, 1.3), true, 0.25, floor).verdict; got != "no change" {
		t.Errorf("noisy set-up under the floor: verdict %q, want no change", got)
	}
	if got := judge(setupA, shift(setupA, 4), true, 0.25, floor).verdict; got != "worse" {
		t.Errorf("set-up 4x slower: verdict %q, want worse", got)
	}
	if got := judge(base, shift(base, 0.7), false, 0.1, 0).verdict; got != "worse" {
		t.Errorf("throughput down 30%%: verdict %q, want worse", got)
	}
}
