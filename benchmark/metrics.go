package main

import (
	"fmt"
	"math"
	"sort"

	"sprinklers/internal/stats"
)

// metricDef names one metric of the benchmark. README.md records which
// end-to-end metric each per-layer metric is expected to move, and where.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system feels, measured with the
// benchmark's tracing off and defined on every workload. Failures are not a
// metric here: they are the attempted/failed counts of every result line,
// and any failure at all makes the run incorrect.
var endToEnd = []metricDef{
	{Name: "study_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.03},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// archLayers maps the registered architecture of a Fig. 6 curve to the
// module (layer) that implements it.
var archLayers = []struct{ alg, layer string }{
	{"load-balanced", "baseline"},
	{"ufs", "ufs"},
	{"foff", "foff"},
	{"pf", "pf"},
	{"sprinklers", "core"},
}

func layerOf(alg string) string {
	for _, a := range archLayers {
		if a.alg == alg {
			return a.layer
		}
	}
	return ""
}

// perLayer is every metric of the traced pass; the layer is the module name
// before the first dot.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, a := range archLayers {
		add(a.layer+".new_ms", "ms", "lower")
		add(a.layer+".arrive_ns_per_pkt", "ns", "lower")
		add(a.layer+".step_ns_per_slot", "ns", "lower")
		add(a.layer+".allocs_per_slot", "count", "lower")
		add(a.layer+".job_share_pct", "%", "lower")
	}
	add("core.live_heap_mb", "MB", "lower")
	add("core.step_ns_per_slot_p2", "ns", "lower")
	add("core.p2_speedup", "ratio", "higher")
	add("traffic.next_ns_per_slot", "ns", "lower")
	add("traffic.pkts_per_slot", "count", "higher")
	add("traffic.pattern_ms", "ms", "lower")
	add("stats.observe_ns_per_pkt", "ns", "lower")
	add("sim.loop_self_ns_per_slot", "ns", "lower")
	add("sim.run_ns_per_cell_slot", "ns", "lower")

	add("experiment.sum_job_s", "s", "lower")
	add("experiment.runner_self_ms_per_point", "ms", "lower")
	add("experiment.pool_efficiency", "ratio", "higher")
	add("experiment.spec_prepare_us", "us", "lower")
	add("experiment.checkpoint_bytes", "B", "lower")
	add("experiment.cache_hits", "count", "higher")
	add("experiment.cache_misses", "count", "lower")
	add("experiment.points_computed", "count", "lower")
	add("experiment.replicas_computed", "count", "lower")
	add("experiment.slots_simulated", "count", "lower")
	add("experiment.golden_match", "count", "higher")

	add("resultcache.put_us_p50", "us", "lower")
	add("resultcache.put_us_p99", "us", "lower")
	add("resultcache.get_hit_us_p50", "us", "lower")
	add("resultcache.get_hit_us_p99", "us", "lower")
	add("resultcache.get_miss_us_p50", "us", "lower")
	add("resultcache.puts", "count", "lower")
	add("resultcache.gets", "count", "lower")
	add("resultcache.bytes_per_entry", "B", "lower")

	add("service.submit_ms_p50", "ms", "lower")
	add("service.first_event_ms_p50", "ms", "lower")
	add("service.results_fetch_ms_p50", "ms", "lower")
	add("service.overhead_ms_per_point", "ms", "lower")
	add("service.job_handler_ms_p50", "ms", "lower")
	add("service.job_handler_ms_p99", "ms", "lower")
	add("service.http_requests", "count", "lower")
	add("service.events_streamed", "count", "lower")

	add("cluster.dispatch_overhead_ms_p50", "ms", "lower")
	add("cluster.dispatch_overhead_ms_p99", "ms", "lower")
	add("cluster.efficiency", "ratio", "higher")
	add("cluster.worker_balance", "ratio", "higher")
	add("cluster.jobs_dispatched", "count", "lower")
	add("cluster.jobs_retried", "count", "lower")
	add("cluster.jobs_redispatched", "count", "lower")
	add("cluster.local_fallbacks", "count", "lower")
	add("cluster.jobs_stolen", "count", "lower")
	add("cluster.speculative_wasted", "count", "lower")

	add("trace.spans_per_study", "count", "lower")
	add("trace.spans_dropped", "count", "lower")
	add("trace.fetch_ms", "ms", "lower")
	add("trace.journal_overhead_pct", "%", "lower")

	add("bench.trace_overhead_pct", "%", "lower")
	return out
}

// metricValue is one measured metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one pass. Every defined metric is
// emitted; a layer a workload does not exercise reads 0.
type metricSet map[string]float64

func (m metricSet) emit(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// quantile is the p-quantile (0..1) of sorted values, interpolated the way
// Python's statistics.quantiles(method="exclusive") does, so spreads
// computed here match the ones the driver computes.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(math.Floor(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile is the interpolated p-th percentile (0..100), 0 of no values.
func percentile(v []float64, p float64) float64 {
	return stats.Quantiles(v, p/100)[0]
}

// iqrShare is the distance between the first and third quartile as a share
// of the median: the run-to-run spread the bounds are judged against.
func iqrShare(v []float64) float64 {
	s := sortedCopy(v)
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / math.Abs(med)
}

// tail describes the highest percentile of v that still has at least ten
// samples beyond it, or the maximum when the sample is too small for any.
func tail(v []float64) (label string, value float64) {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(v))*(1-p/100) >= 10 {
			return fmt.Sprintf("p%g", p), percentile(v, p)
		}
	}
	return "max", percentile(v, 100)
}

// timing formats a sample of durations as median, supported tail and count.
func timing(v []float64, unit string) string {
	label, t := tail(v)
	return fmt.Sprintf("median %.6g %s, %s %.6g %s, n=%d", median(v), unit, label, t, unit, len(v))
}
