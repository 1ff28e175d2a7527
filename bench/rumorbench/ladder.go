package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"dynamicrumor/internal/bound"
	"dynamicrumor/internal/diligence"
	"dynamicrumor/internal/dynamic"
	"dynamicrumor/internal/engine"
	"dynamicrumor/internal/gen"
	"dynamicrumor/internal/graph"
	"dynamicrumor/internal/service"
	"dynamicrumor/internal/sim"
	"dynamicrumor/internal/spectral"
	"dynamicrumor/internal/store"
	"dynamicrumor/internal/xrand"
	"dynamicrumor/rumor"
)

// The layer ladder is what a traced run measures after its workload: one
// fixed probe per layer, the same whichever workload the run traced, so a
// per-layer number means the same thing in every trace. Every probe records
// spans from the benchmark's own code around its calls into the layer, and
// its metrics are derived from those spans. The comment on each probe names
// the end-to-end metric and workload it should move.

// Durations of the deployment probes, long enough for their percentiles to
// have ten samples beyond them, except the cluster upload p90 (65–85
// uploads): a longer cluster probe would stretch a traced cluster run
// towards 30 s. The durable probe runs longer than its percentile needs:
// resubmits start only resubmitDistance arrivals in, 1.7 s at durableRate,
// and the disk-hit ratio needs them.
const (
	plainProbe   = 1000 * time.Millisecond
	durableProbe = 2500 * time.Millisecond
	clusterProbe = 2 * time.Second
)

type probe func(ctx context.Context, rc *runContext, v map[string]float64) error

// runLadder runs every probe, recording into rc.tr, a fresh tracer: each
// counter has one probe writing it, while span names the deployment probes
// share (http.handler, service.backend) are told apart by marks. measured
// holds the spans the workload's traced phases recorded.
func runLadder(ctx context.Context, rc *runContext, measured *tracer) (map[string]float64, error) {
	v := make(map[string]float64)
	if err := probeExperiments(ctx, rc, measured, v); err != nil {
		return nil, err
	}
	for _, p := range []probe{
		probeAnalysis, probeEnsembles, probeGraphs,
		probePlain, probeStore, probeDurable, probeCluster,
	} {
		if err := p(ctx, rc, v); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// probeExperiments times one quick E1–E12 pass table by table. Moves
// latency_p50_ms@reproduce. When the workload's traced phases ran such
// passes (the reproduce workload does, with the same configuration), it
// takes the tables' times from the last of them instead of running another:
// a pass takes seconds, and a second one would stretch a traced run past 30
// s on a slow machine.
func probeExperiments(ctx context.Context, rc *runContext, measured *tracer, v map[string]float64) error {
	spans := measured.spansSince(0)
	if len(named(spans, "experiment."+experimentIDs[len(experimentIDs)-1], "")) == 0 {
		cfg := rumor.QuickExperimentConfig()
		cfg.Seed = experimentSeeds[rc.seed%uint64(len(experimentSeeds))]
		cfg.Parallelism = 2
		m := rc.tr.mark()
		for _, id := range experimentIDs {
			sp := rc.tr.begin("experiment."+id, 0, "")
			t, err := rumor.RunExperiment(id, cfg)
			sp.end()
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			if !t.Passed {
				return fmt.Errorf("%s (seed %d) failed its shape checks", id, cfg.Seed)
			}
		}
		spans = rc.tr.spansSince(m)
	}
	for _, id := range experimentIDs {
		times := durationsMS(named(spans, "experiment."+id, ""))
		v["experiment."+id+"_s"] = times[len(times)-1] / 1e3
	}
	return nil
}

// probeAnalysis times the Theorem 1.1 bound on E1's alternating
// expander/cycle network (n=64), counting the profile calls the bound makes
// against the distinct graphs among them, and exact Φ and ρ on E8's n=22
// H_{k,Δ}, and the spectral estimate on a 64-vertex expander. Moves
// latency_p50_ms@reproduce.
func probeAnalysis(ctx context.Context, rc *runContext, v map[string]float64) error {
	rng := xrand.New(rc.seed).Split(400)
	exp := gen.Expander(64, 6, rng.Split(1))
	net := dynamic.NewAlternating([]*graph.Graph{exp, gen.Cycle(64)})
	calls, distinct := 0, make(map[*graph.Graph]bool)
	prof := bound.NewNetworkProfiler(func(t int) *graph.Graph {
		calls++
		g := net.GraphAt(t, nil)
		distinct[g] = true
		return g
	})
	m := rc.tr.mark()
	sp := rc.tr.begin("bound.theorem11", 0, "")
	_, err := bound.Theorem11(prof.Func(), 64, 1, 0)
	sp.end()
	if err != nil {
		return fmt.Errorf("theorem 1.1 bound: %w", err)
	}
	rc.tr.count("bound.profile_calls", float64(calls))
	rc.tr.count("bound.profile_distinct_graphs", float64(len(distinct)))

	var a, b []int
	for i := 0; i < 22; i++ {
		if i < 6 {
			a = append(a, i)
		} else {
			b = append(b, i)
		}
	}
	h, err := gen.NewHkd(gen.HkdParams{K: 2, Delta: 3, A: a, B: b}, rng.Split(2))
	if err != nil {
		return err
	}
	sp = rc.tr.begin("spectral.exact", 0, "")
	_, err = spectral.ExactConductance(h.Graph)
	sp.end()
	if err != nil {
		return err
	}
	sp = rc.tr.begin("diligence.exact", 0, "")
	_, err = diligence.Exact(h.Graph)
	sp.end()
	if err != nil {
		return err
	}
	g64 := gen.Expander(64, 6, rng.Split(3))
	sp = rc.tr.begin("spectral.estimate", 0, "")
	_, err = spectral.EstimateConductance(g64, 0)
	sp.end()
	if err != nil {
		return err
	}
	spans := rc.tr.spansSince(m)
	v["bound.profile_calls"] = float64(calls)
	v["bound.profile_distinct_ratio"] = float64(len(distinct)) / float64(calls)
	v["bound.theorem11_ms"] = durationsMS(named(spans, "bound.theorem11", ""))[0]
	v["spectral.exact_ms"] = durationsMS(named(spans, "spectral.exact", ""))[0]
	v["diligence.exact_ms"] = durationsMS(named(spans, "diligence.exact", ""))[0]
	v["spectral.estimate_ms"] = durationsMS(named(spans, "spectral.estimate", ""))[0]
	return nil
}

// probeEnsembles runs half of each ensemble-mix call at parallelism 2 and at
// parallelism 1. Compile time moves latency_p50_ms@ensemble-mix and
// latency_p50_ms@service-plain; per-repetition time moves
// ops_per_s@ensemble-mix (and latency_p50_ms@cluster for the clique and
// dynamic star); efficiency is T₁ ÷ (2·T₂), the runner's use of its two
// workers.
func probeEnsembles(ctx context.Context, rc *runContext, v map[string]float64) error {
	m := rc.tr.mark()
	for i, c := range ensembleCases {
		seed := xrand.New(rc.seed).Split(500 + uint64(i)).Uint64()
		reps := max(1, c.reps/2)
		var compiled *engine.Compiled
		for k := 0; k < 3; k++ {
			sp := rc.tr.begin("engine.compile", 0, c.name)
			var err error
			compiled, err = engine.Compile(c.sc)
			sp.end()
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
		}
		for _, p := range []struct {
			span        string
			parallelism int
		}{{"runner.exec", 2}, {"sim.serial", 1}} {
			eng := engine.Engine{Parallelism: p.parallelism, Seed: seed}
			sp := rc.tr.begin(p.span, 0, c.name)
			err := eng.RunReduceCompiledCtx(ctx, compiled, reps, func(int, *sim.Result) error { return nil })
			sp.end()
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
		}
		spans := rc.tr.spansSince(m)
		t2 := durationsMS(named(spans, "runner.exec", c.name))[0]
		t1 := durationsMS(named(spans, "sim.serial", c.name))[0]
		v["engine.compile_ms."+c.name] = median(durationsMS(named(spans, "engine.compile", c.name)))
		v["runner.exec_ms."+c.name] = t2
		v["sim.rep_us."+c.name] = t1 * 1e3 / float64(reps)
		v["runner.efficiency."+c.name] = t1 / (2 * t2)
	}
	return nil
}

// probeGraphs times graph construction, dynamic-network steps and variate
// fills. Moves ops_per_s@ensemble-mix.
func probeGraphs(ctx context.Context, rc *runContext, v map[string]float64) error {
	rng := xrand.New(rc.seed).Split(600)
	m := rc.tr.mark()
	b := graph.NewBuilder(0)
	var g *graph.Graph
	var scratch gen.EmitScratch
	for k := 0; k < 5; k++ {
		sp := rc.tr.begin("graph.build", 0, "expander10000")
		var err error
		g, err = gen.BuildInto("expander", gen.Params{"n": 10000}, rng, b, g, &scratch)
		sp.end()
		if err != nil {
			return err
		}
	}
	for k := 0; k < 3; k++ {
		sp := rc.tr.begin("graph.build", 0, "torus512")
		_, err := gen.Build("torus", gen.Params{"rows": 512, "cols": 512}, nil)
		sp.end()
		if err != nil {
			return err
		}
	}
	steps := []struct {
		name  string
		build func(*xrand.RNG) (dynamic.Network, int, error)
	}{
		{"gnrho2048", func(r *xrand.RNG) (dynamic.Network, int, error) {
			net, err := dynamic.NewGNRho(2048, 0.1, 0, r)
			if err != nil {
				return nil, 0, err
			}
			return net, net.StartVertex(), nil
		}},
		{"dynstar5000", func(r *xrand.RNG) (dynamic.Network, int, error) {
			net, err := dynamic.NewDichotomyG2(4999, r)
			if err != nil {
				return nil, 0, err
			}
			return net, net.StartVertex(), nil
		}},
	}
	for _, s := range steps {
		sc := engine.Scenario{Network: engine.NetworkSpec{Custom: func(r *xrand.RNG) (dynamic.Network, int, error) {
			net, start, err := s.build(r)
			if err != nil {
				return nil, 0, err
			}
			return &timedNetwork{Network: net, tr: rc.tr, trace: s.name}, start, nil
		}}}
		eng := engine.Engine{Parallelism: 1, Seed: rng.Uint64()}
		if err := eng.RunReduceCtx(ctx, sc, 8, func(int, *sim.Result) error { return nil }); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	buf := make([]float64, 256)
	fills := func(name string, fill func()) {
		n := 0
		sp := rc.tr.begin(name, 0, "")
		for start := time.Now(); time.Since(start) < 20*time.Millisecond; n++ {
			fill()
		}
		sp.end()
		rc.tr.count(name+"_variates", float64(n*len(buf)))
	}
	vr := xrand.New(rc.seed)
	fills("xrand.exp_fill", func() { vr.ExpFill(1, buf) })
	fills("xrand.float_fill", func() { vr.Float64Fill(buf) })

	spans := rc.tr.spansSince(m)
	v["graph.build_ms.expander10000"] = median(durationsMS(named(spans, "graph.build", "expander10000")))
	v["graph.build_ms.torus512"] = median(durationsMS(named(spans, "graph.build", "torus512")))
	for _, s := range steps {
		v["dynamic.step_us."+s.name] = median(durationsMS(named(spans, "dynamic.step", s.name))) * 1e3
	}
	v["xrand.exp_ns"] = durationsMS(named(spans, "xrand.exp_fill", ""))[0] * 1e6 / rc.tr.counter("xrand.exp_fill_variates")
	v["xrand.float_ns"] = durationsMS(named(spans, "xrand.float_fill", ""))[0] * 1e6 / rc.tr.counter("xrand.float_fill_variates")
	return nil
}

// timedNetwork records a dynamic.step span around every GraphAt.
type timedNetwork struct {
	dynamic.Network
	tr    *tracer
	trace string
}

func (n *timedNetwork) GraphAt(t int, informed []bool) *graph.Graph {
	start := time.Now()
	g := n.Network.GraphAt(t, informed)
	n.tr.add("dynamic.step", 0, n.trace, start, time.Now())
	return g
}

// probePlain runs the service-plain load for plainProbe with the handler and
// backend timing layers. Handler time moves latency_p50_ms@service-plain and
// latency_p50_ms@service-durable; backend time and queue wait (submit
// response to Backend.Run of the same key) move
// latency_p50_ms@service-plain; the compile-set share moves the sweeps in
// ops_per_s@service-plain.
func probePlain(ctx context.Context, rc *runContext, v map[string]float64) error {
	m := rc.tr.mark()
	dep, err := setupPlain(ctx, rc)
	if err != nil {
		return fmt.Errorf("plain deployment: %w", err)
	}
	p := dep.(*plainDeployment)
	defer p.close()
	tl := newTally()
	p.measure(ctx, time.Now().Add(plainProbe), tl)
	if err := probeFailures("service-plain probe", tl); err != nil {
		return err
	}
	var metrics service.Metrics
	if err := getJSON(ctx, p.d.base+"/metrics", &metrics); err != nil {
		return err
	}
	cells, networks := p.d.backend.compileShare()

	spans := rc.tr.spansSince(m)
	handler := durationsMS(named(spans, "http.handler", ""))
	backend := durationsMS(named(spans, "service.backend", ""))
	v["http.handler_p50_ms"] = quantile(handler, 0.5)
	v["http.handler_p90_ms"] = quantile(handler, 0.9)
	v["service.backend_p50_ms"] = quantile(backend, 0.5)
	v["service.backend_p90_ms"] = quantile(backend, 0.9)
	waits := queueWaits(spans)
	v["service.queue_wait_p50_ms"] = quantile(waits, 0.5)
	v["service.queue_wait_p90_ms"] = quantile(waits, 0.9)
	v["service.cache_hit_ratio"] = metrics.Cache.HitRate
	v["engine.compileset_share"] = float64(cells) / float64(max(networks, 1))
	v["loadgen.polls_per_result"] = rc.tr.counter("loadgen.polls") / rc.tr.counter("loadgen.results")
	return nil
}

// queueWaits pairs each loadgen.submitted mark (the POST response of a new
// run) with the service.backend span of the same key and returns the gaps in
// milliseconds.
func queueWaits(spans []span) []float64 {
	submitted := make(map[string]float64)
	for _, s := range named(spans, "loadgen.submitted", "") {
		submitted[s.Trace] = s.StartUS
	}
	var out []float64
	for _, s := range named(spans, "service.backend", "") {
		if at, ok := submitted[s.Trace]; ok {
			out = append(out, (s.StartUS-at)/1e3)
		}
	}
	return out
}

// probeStore times journal appends (each fsync'd) with a service-sized
// record and disk-cache puts and gets of a summary-sized entry, in the run's
// own directory. Moves latency_p50_ms@service-durable.
func probeStore(ctx context.Context, rc *runContext, v map[string]float64) error {
	dir, err := rc.subdir("store-")
	if err != nil {
		return err
	}
	m := rc.tr.mark()
	j, err := store.OpenJournal(filepath.Join(dir, "probe.journal"), func(store.Record) error { return nil })
	if err != nil {
		return err
	}
	record := bytes.Repeat([]byte("r"), 320)
	for k := 0; k < 100; k++ {
		sp := rc.tr.begin("store.journal_append", 0, "")
		err := j.Append(store.Record{Type: 1, Payload: record})
		sp.end()
		if err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	cache, err := store.OpenCache(filepath.Join(dir, "cache"), 0)
	if err != nil {
		return err
	}
	summary := bytes.Repeat([]byte("s"), 400)
	for k := 0; k < 50; k++ {
		sp := rc.tr.begin("store.cache_put", 0, "")
		err := cache.Put(fmt.Sprintf("%064x", k), summary)
		sp.end()
		if err != nil {
			return err
		}
	}
	for k := 0; k < 50; k++ {
		sp := rc.tr.begin("store.cache_get", 0, "")
		got, ok := cache.Get(fmt.Sprintf("%064x", k))
		sp.end()
		if !ok || !bytes.Equal(got, summary) {
			return fmt.Errorf("disk cache lost entry %d", k)
		}
	}
	spans := rc.tr.spansSince(m)
	appends := durationsMS(named(spans, "store.journal_append", ""))
	v["store.journal_append_p50_us"] = quantile(appends, 0.5) * 1e3
	v["store.journal_append_p90_us"] = quantile(appends, 0.9) * 1e3
	v["store.cache_put_us"] = median(durationsMS(named(spans, "store.cache_put", ""))) * 1e3
	v["store.cache_get_us"] = median(durationsMS(named(spans, "store.cache_get", ""))) * 1e3
	return nil
}

// probeDurable runs the service-durable load for durableProbe and reads the
// durability counters from /metrics. The lag and backlog check that the
// open loop kept its schedule, so service-durable's numbers are valid.
func probeDurable(ctx context.Context, rc *runContext, v map[string]float64) error {
	m := rc.tr.mark()
	dep, err := setupDurable(ctx, rc)
	if err != nil {
		return fmt.Errorf("durable deployment: %w", err)
	}
	p := dep.(*durableDeployment)
	defer p.close()
	tl := newTally()
	p.measure(ctx, time.Now().Add(durableProbe), tl)
	if err := probeFailures("service-durable probe", tl); err != nil {
		return err
	}
	var metrics service.Metrics
	if err := getJSON(ctx, p.d.base+"/metrics", &metrics); err != nil {
		return err
	}
	d := metrics.Durability
	if d == nil || d.DiskCache == nil {
		return fmt.Errorf("durable deployment reports no durability block in /metrics")
	}
	spans := rc.tr.spansSince(m)
	v["store.disk_hit_ratio"] = float64(d.DiskCache.Hits) / float64(max(d.DiskCache.Hits+d.DiskCache.Misses, 1))
	v["store.compactions"] = float64(d.JournalCompactions)
	v["store.journal_bytes"] = float64(d.JournalBytes)
	v["loadgen.lag_p90_ms"] = quantile(durationsMS(named(spans, "loadgen.lag", "")), 0.9)
	v["loadgen.backlog_end"] = rc.tr.counter("loadgen.backlog_end")
	return nil
}

// probeCluster runs the cluster load for clusterProbe with the workers'
// HTTP transport timed. Moves ops_per_s and latency_p50_ms@cluster.
func probeCluster(ctx context.Context, rc *runContext, v map[string]float64) error {
	m := rc.tr.mark()
	dep, err := setupCluster(ctx, rc)
	if err != nil {
		return fmt.Errorf("cluster deployment: %w", err)
	}
	p := dep.(*clusterDeployment)
	tl := newTally()
	p.measure(ctx, time.Now().Add(clusterProbe), tl)
	p.close() // settles the workers' last uploads before the spans are read
	if err := probeFailures("cluster probe", tl); err != nil {
		return err
	}
	spans := rc.tr.spansSince(m)
	uploads := named(spans, "cluster.upload", "")
	lastUpload := make(map[string]float64)
	for _, s := range uploads {
		lastUpload[s.Trace] = max(lastUpload[s.Trace], s.StartUS)
	}
	var settles []float64
	for _, s := range named(spans, "service.backend_settled", "") {
		if end, ok := lastUpload[s.Trace]; ok {
			settles = append(settles, (s.StartUS-end)/1e3)
		}
	}
	if len(settles) == 0 {
		return fmt.Errorf("cluster probe settled no runs")
	}
	empty, granted := rc.tr.counter("cluster.lease_empty"), rc.tr.counter("cluster.lease_granted")
	uploadMS := durationsMS(uploads)
	v["cluster.lease_p50_ms"] = median(durationsMS(named(spans, "cluster.lease", "")))
	v["cluster.upload_p50_ms"] = quantile(uploadMS, 0.5)
	v["cluster.upload_p90_ms"] = quantile(uploadMS, 0.9)
	v["cluster.empty_lease_ratio"] = empty / (empty + granted)
	v["cluster.shard_ms"] = median(durationsMS(named(spans, "cluster.shard", "")))
	v["cluster.upload_bytes"] = rc.tr.counter("cluster.upload_bytes") / float64(len(uploads))
	v["cluster.shards_per_run"] = float64(len(uploads)) / float64(len(lastUpload))
	v["cluster.settle_ms"] = median(settles)
	return nil
}

// probeFailures turns a probe's failed operations into an error: a probe
// measures layers of a working system.
func probeFailures(probe string, tl *tally) error {
	if tl.failed == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d of %d operations failed: %v", probe, tl.failed, tl.attempted, tl.failureLines())
}

// getJSON fetches and decodes one document.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
