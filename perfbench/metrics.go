package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. For per-layer metrics, Moves and
// Workload record which end-to-end metric a change to the layer should
// move and on which workload (the interaction map).
type metricDef struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound,omitempty"`
	Moves    string  `json:"-"`
	Workload string  `json:"-"`
}

// endToEnd are the metrics a user of the floorplanner sees. Every
// workload reports all of them; "the operation" is one exact solve of a
// library design (offline; its latency is the design's median over the
// run's rounds), one /v1/solve request timed from its due time (serve) or
// one Session.Apply event (online; its median over the run's rounds).
//
// quality_loss_pct is what the answers give up: the MILP engines' mean
// objective excess over exact's proven optimum (offline), the mean excess
// of every served answer over its instance's optimum (serve), and the
// share of arrivals the sessions rejected (online).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_ms_p99", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "quality_loss_pct", Unit: "%", Better: "lower", Bound: 0.2},
}

// selfTimed are the span names whose mean self time (duration minus the
// time covered by child spans) the traced run reports as self_ms.<span>.
var selfTimed = []string{
	spanInstance, spanSolve, spanCheck, spanEnumerate,
	spanRequest, spanRoundTrip,
	spanEvent, spanFallback,
}

// perLayer are the traced run's metrics. Layers a workload does not
// exercise report 0 on it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"lp.root_ms", "ms", "lower", 0, "quality_loss_pct", "offline"},
		{"lp.root_pivots", "count", "lower", 0, "quality_loss_pct", "offline"},
		{"lp.pivots_per_s", "1/s", "higher", 0, "quality_loss_pct", "offline"},
		{"milp.nodes", "count", "higher", 0, "quality_loss_pct", "offline"},
		{"milp.nodes_per_s", "1/s", "higher", 0, "quality_loss_pct", "offline"},
		{"milp.final_gap", "ratio", "lower", 0, "quality_loss_pct", "offline"},
		{"model.build_ms", "ms", "lower", 0, "quality_loss_pct", "offline"},
		{"heuristic.seed_ms", "ms", "lower", 0, "quality_loss_pct", "offline"},
		{"exact.nodes", "count", "lower", 0, "latency_ms_p50 latency_ms_p99 throughput_per_s", "offline serve"},
		{"exact.nodes_per_s", "1/s", "higher", 0, "latency_ms_p50 latency_ms_p99 throughput_per_s", "offline serve"},
		{"core.cand_cache_hit_ratio", "ratio", "higher", 0, "latency_ms_p50", "offline"},
		{"core.enumerate_ms", "ms", "lower", 0, "latency_ms_p50", "offline"},
		{"guard.check_ms", "ms", "lower", 0, "latency_ms_p50", "offline"},
		{"server.cache_hit_ratio", "ratio", "higher", 0, "latency_ms_p50", "serve"},
		{"server.dedup_joined", "count", "higher", 0, "latency_ms_p50", "serve"},
		{"server.queue_rejected", "count", "lower", 0, "latency_ms_p50", "serve"},
		{"server.hit_ms_p50", "ms", "lower", 0, "latency_ms_p50", "serve"},
		{"server.solve_ms_mean", "ms", "lower", 0, "latency_ms_p99", "serve"},
		{"server.wait_ms_mean", "ms", "lower", 0, "latency_ms_p99", "serve"},
		{"serve.session_req_ms_p50", "ms", "lower", 0, "latency_ms_p50", "serve"},
		{"serve.session_req_ms_p99", "ms", "lower", 0, "latency_ms_p99", "serve"},
		{"serve.lateness_ms_p99", "ms", "lower", 0, "latency_ms_p99", "serve"},
		{"session.wal_records", "count", "lower", 0, "serve.session_req_ms_p50", "serve"},
		{"session.snapshots", "count", "lower", 0, "serve.session_req_ms_p50", "serve"},
		{"session.greedy_ms_p50", "ms", "lower", 0, "latency_ms_p50", "online"},
		{"session.departure_ms_p50", "ms", "lower", 0, "latency_ms_p50", "online"},
		{"session.mer_ms_p50", "ms", "lower", 0, "latency_ms_p50", "online"},
		{"session.defrag_ms_p50", "ms", "lower", 0, "latency_ms_p99 throughput_per_s", "online"},
		{"session.defrag_ms_p99", "ms", "lower", 0, "latency_ms_p99 throughput_per_s", "online"},
		{"session.defrag_noop_ratio", "ratio", "lower", 0, "latency_ms_p99 throughput_per_s", "online"},
		{"session.fallback_attempts", "count", "lower", 0, "throughput_per_s quality_loss_pct", "online"},
		{"session.fallback_success_ratio", "ratio", "higher", 0, "throughput_per_s quality_loss_pct", "online"},
		{"session.fallback_ms_mean", "ms", "lower", 0, "throughput_per_s quality_loss_pct", "online"},
		{"session.fragmentation_mean", "ratio", "lower", 0, "quality_loss_pct", "online"},
		{"reconfig.frames_per_event", "count", "lower", 0, "latency_ms_p99", "online"},
		{"reconfig.relocations", "count", "lower", 0, "latency_ms_p99", "online"},
		{"bitstream.relocate_ms", "ms", "lower", 0, "latency_ms_p99", "online"},
	}
	for _, s := range selfTimed {
		defs = append(defs, metricDef{Name: "self_ms." + s, Unit: "ms", Better: "lower", Moves: "latency_ms_p50", Workload: spanWorkload[s]})
	}
	// Tracing overhead: the traced run's end-to-end value minus the
	// untraced run's, measured back to back in one process. Set-up is
	// never traced.
	for _, e := range endToEnd[1:] {
		defs = append(defs, metricDef{Name: "overhead." + e.Name, Unit: e.Unit, Better: e.Better, Moves: e.Name, Workload: "offline serve online"})
	}
	return defs
}()

// values holds one run's metrics by name.
type values map[string]float64

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, or
// 0 for an empty sample. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencyMetrics fills the latency percentiles of one operation sample
// (milliseconds).
func latencyMetrics(v values, ms []float64) {
	v["latency_ms_p50"] = percentile(ms, 0.50)
	v["latency_ms_p99"] = percentile(ms, 0.99)
}

// closedLoopMetrics fills the latency percentiles and the throughput of a
// closed loop from the median latency of each of its distinct operations:
// the throughput is the operations per second of one round at those
// latencies.
func closedLoopMetrics(v values, ms []float64) {
	latencyMetrics(v, ms)
	v["throughput_per_s"] = ratio(1000, mean(ms))
}
