package main

// spec names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names and units.
type spec struct{ name, unit string }

// perLayer is the --trace 1 metric set. Every workload reports all of
// them; a layer the workload does not exercise reports 0.
var perLayer = []spec{
	// Virtual (modelled-machine) outputs; they repeat exactly for a seed.
	{"virtual_s", "s"},
	{"moved_gib", "GiB"},
	{"p50_ms.2x", "ms"},
	{"p99_ms.2x", "ms"},
	{"p50_ms.4x", "ms"},
	{"p99_ms.4x", "ms"},
	{"goodput_jps.8x", "1/s"},
	{"slo_rate_jps", "1/s"},
	{"error_frac", "fraction"},

	{"sim.events", "count"},
	{"sim.procs", "count"},
	{"sim.callback_frac", "fraction"},
	{"sim.ns_per_event", "ns"},
	{"sim.self_frac", "fraction"},

	{"go.sched_frac", "fraction"},
	{"go.gc_frac", "fraction"},

	{"core.busy_s.io", "s"},
	{"core.busy_s.transfer", "s"},
	{"core.busy_s.gpu", "s"},
	{"core.busy_s.cpu", "s"},
	{"core.busy_s.setup", "s"},
	{"core.busy_s.runtime", "s"},
	{"core.critpath_frac.io", "fraction"},
	{"core.critpath_frac.transfer", "fraction"},
	{"core.critpath_frac.gpu", "fraction"},
	{"core.critpath_frac.cpu", "fraction"},
	{"core.self_frac", "fraction"},

	{"cache.hit_frac", "fraction"},
	{"cache.hit_bytes_frac", "fraction"},
	{"cache.evictions", "count"},
	{"cache.bypasses", "count"},
	{"cache.invalidations", "count"},
	{"cache.prefetch_waste_frac", "fraction"},
	{"cache.self_frac", "fraction"},

	{"sched.pops", "count"},
	{"sched.steals", "count"},
	{"sched.steal_frac", "fraction"},
	{"sched.cpu_task_frac", "fraction"},
	{"sched.steal_gain", "fraction"},
	{"sched.self_frac", "fraction"},

	{"taskgraph.tasks", "count"},
	{"taskgraph.affinity_picks", "count"},
	{"taskgraph.saved_gib", "GiB"},
	{"taskgraph.add_us_per_task", "us"},
	{"taskgraph.self_frac", "fraction"},

	{"serve.arrivals", "count"},
	{"serve.admitted", "count"},
	{"serve.rejected.quota", "count"},
	{"serve.rejected.backlog", "count"},
	{"serve.self_frac", "fraction"},

	{"journey.p99_share.admit-wait", "fraction"},
	{"journey.p99_share.queue-wait", "fraction"},
	{"journey.p99_share.stage", "fraction"},
	{"journey.p99_share.kernel", "fraction"},
	{"journey.self_frac", "fraction"},
	{"obs.self_frac", "fraction"},
	{"ops.self_frac", "fraction"},
	{"trace.self_frac", "fraction"},

	{"workload.gen_s", "s"},
	{"workload.self_frac", "fraction"},

	{"trace.overhead_frac", "fraction"},
}

// zeroLayers returns every per-layer metric at 0, for a workload to fill
// in the layers it exercises.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		m[s.name] = 0
	}
	return m
}
