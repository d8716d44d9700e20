package main

import (
	"strings"

	"rubik"
)

// layerNames lists every per-layer metric in print order. A traced run
// reports all of them; a layer the workload does not run reads 0.
func layerNames() []string {
	names := []string{}
	for _, op := range []string{"decide", "tick", "observe", "slack"} {
		names = append(names, "core."+op+"_calls", "core."+op+"_ns", "core."+op+"_self_s")
	}
	names = append(names,
		"core.tick_p50_ns", "core.tick_p99_ns",
		"core.table_builds", "core.table_skips",
		"core.cache_lookups", "core.cache_hits", "core.cache_hit_ratio", "core.cache_evictions",
		"core.depth_ge8_frac",
		"workload.next_calls", "workload.next_ns", "workload.self_s",
		"cluster.pick_calls", "cluster.pick_ns", "cluster.self_s",
		"capping.rounds", "capping.allocate_ns", "capping.allocate_self_s",
		"capping.tree_rounds", "capping.level_calls", "capping.level_ns", "capping.level_self_s",
		"capping.cap_changes", "capping.throttle_events", "capping.rounds_per_sim_s",
		"report.tail_s", "report.energy_s",
		"substrate.events", "substrate.self_s", "substrate.ns_per_event",
	)
	for _, e := range rubik.Experiments() {
		names = append(names, experimentMetric(e.ID))
	}
	return append(names, "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_frac")
}

func experimentMetric(id string) string { return "experiments." + id + "_s" }

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_sim_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ns"), strings.HasSuffix(name, "ns_per_event"):
		return "ns"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_ratio"):
		return "frac"
	default:
		return "count"
	}
}

// initLayerMetrics sets every per-layer metric to 0, in print order.
func initLayerMetrics(o *outcome) {
	for _, n := range layerNames() {
		o.set(n, 0, layerUnit(n))
	}
}
