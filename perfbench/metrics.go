package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract: BENCHMARK.json lists the same names and
// units, a run fails unless it measured every metric of its mode, and its
// final line holds exactly those.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"heap_mb", "MB"},
	{"cpu_us_per_req", "us"},
	{"alloc_kb_per_req", "KB"},
}

// reportOnly are end-to-end metrics an untraced run prints, with their
// units, but leaves out of its final line and so out of any bound: on a
// shared 2-vCPU host, ten runs of the same code spread them by 20-50%
// (a few slow minutes of the host move a tail quantile, and the rate
// search that reads it, far more than the median).
var reportOnly = []metricDef{
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"max_rate_rps", "1/s"},
}

// spanNames are the spans a traced run records; each reports its count.
var spanNames = []string{
	"client", "gateway", "server",
	"krak.predict", "krak.simulate", "render.json",
	"artifacts.deck", "artifacts.graph", "artifacts.partition", "artifacts.summary",
	"cluster.simulate", "core.general", "core.mesh_specific",
	"calib.contrived", "calib.deck",
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = append([]metricDef{
	{"loadgen.lag_ms_p99", "ms"},
	{"client.transport_us_p50", "us"},
	{"gateway.self_us_p50", "us"},
	{"gateway.attempts_per_req", "ratio"},
	{"gateway.replica_share_max", "ratio"},
	{"gateway.degraded_count", "count"},
	{"server.busy_us_p50", "us"},
	{"server.self_us_p50", "us"},
	{"server.lru_hit_ratio", "ratio"},
	{"server.batch_jobs_per_batch", "ratio"},
	{"server.rejected_count", "count"},
	{"server.partition_computes_per_scenario", "ratio"},
	{"krak.predict_us_p50", "us"},
	{"krak.simulate_ms_p50", "ms"},
	{"render.json_us_p50", "us"},
	{"artifacts.partition_ms_p50", "ms"},
	{"artifacts.partition_ms_p90", "ms"},
	{"artifacts.summary_ms_p50", "ms"},
	{"artifacts.live_mb_per_scenario", "MB"},
	{"artifacts.deck_ms", "ms"},
	{"artifacts.graph_ms", "ms"},
	{"cluster.simulate_ms_p50", "ms"},
	{"core.general_us_p50", "us"},
	{"core.mesh_specific_us_p50", "us"},
	{"calib.contrived_ms", "ms"},
	{"calib.deck_ms", "ms"},
	{"trace.overhead_pct", "%"},
}, spanCounts()...)

func spanCounts() []metricDef {
	defs := make([]metricDef, len(spanNames))
	for i, n := range spanNames {
		defs[i] = metricDef{n + ".count", "count"}
	}
	return defs
}

// contract checks that the run measured every metric of its mode, with
// its unit and a finite value, and returns just those.
func contract(got map[string]metric, want []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	for _, d := range want {
		m, ok := got[d.name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		case m.Unit != d.unit:
			return nil, fmt.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
		out[d.name] = m
	}
	return out, nil
}
