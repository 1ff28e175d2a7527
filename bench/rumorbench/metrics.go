package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists the
// same names and units, with each metric's direction and bound; the schema
// test keeps the two in step.
type metricDef struct {
	name string
	unit string
}

// endToEndMetrics are what a user of the workload sees, reported by every
// untraced run. "latency" is the workload's primary operation (see
// workload.primary); ops counts every successful operation of the mix.
// Every workload reports every metric, so each one means the same thing
// across workloads.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"rss_peak_mb", "MiB"},
}

// perLayerMetrics are what a traced run reports: the layer ladder's numbers
// plus the tracing overhead on the workload itself.
func perLayerMetrics() []metricDef {
	var out []metricDef
	for _, id := range experimentIDs {
		out = append(out, metricDef{"experiment." + id + "_s", "s"})
	}
	out = append(out,
		metricDef{"bound.profile_calls", "count"},
		metricDef{"bound.profile_distinct_ratio", "ratio"},
		metricDef{"bound.theorem11_ms", "ms"},
		metricDef{"spectral.exact_ms", "ms"},
		metricDef{"diligence.exact_ms", "ms"},
		metricDef{"spectral.estimate_ms", "ms"},
	)
	for _, c := range ensembleCases {
		out = append(out,
			metricDef{"engine.compile_ms." + c.name, "ms"},
			metricDef{"runner.exec_ms." + c.name, "ms"},
			metricDef{"sim.rep_us." + c.name, "us"},
			metricDef{"runner.efficiency." + c.name, "ratio"},
		)
	}
	out = append(out,
		metricDef{"graph.build_ms.expander10000", "ms"},
		metricDef{"graph.build_ms.torus512", "ms"},
		metricDef{"dynamic.step_us.gnrho2048", "us"},
		metricDef{"dynamic.step_us.dynstar5000", "us"},
		metricDef{"xrand.exp_ns", "ns"},
		metricDef{"xrand.float_ns", "ns"},

		metricDef{"http.handler_p50_ms", "ms"},
		metricDef{"http.handler_p90_ms", "ms"},
		metricDef{"service.backend_p50_ms", "ms"},
		metricDef{"service.backend_p90_ms", "ms"},
		metricDef{"service.queue_wait_p50_ms", "ms"},
		metricDef{"service.queue_wait_p90_ms", "ms"},
		metricDef{"service.cache_hit_ratio", "ratio"},
		metricDef{"engine.compileset_share", "ratio"},
		metricDef{"loadgen.polls_per_result", "count"},

		metricDef{"store.journal_append_p50_us", "us"},
		metricDef{"store.journal_append_p90_us", "us"},
		metricDef{"store.cache_put_us", "us"},
		metricDef{"store.cache_get_us", "us"},
		metricDef{"store.disk_hit_ratio", "ratio"},
		metricDef{"store.compactions", "count"},
		metricDef{"store.journal_bytes", "bytes"},
		metricDef{"loadgen.lag_p90_ms", "ms"},
		metricDef{"loadgen.backlog_end", "count"},

		metricDef{"cluster.lease_p50_ms", "ms"},
		metricDef{"cluster.upload_p50_ms", "ms"},
		metricDef{"cluster.upload_p90_ms", "ms"},
		metricDef{"cluster.empty_lease_ratio", "ratio"},
		metricDef{"cluster.shard_ms", "ms"},
		metricDef{"cluster.upload_bytes", "bytes"},
		metricDef{"cluster.shards_per_run", "count"},
		metricDef{"cluster.settle_ms", "ms"},

		metricDef{"trace.overhead_pct", "%"},
	)
	return out
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits pairs values with the units defs declare, and fails unless
// values has exactly the metrics defs names.
func withUnits(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("unnamed metrics measured: %v", extra)
	}
	return out, nil
}
