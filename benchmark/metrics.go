package main

// metricDef is one metric of the benchmark. End-to-end metrics carry
// the bound by which a change may worsen them (a share of the base
// median) and, where the metric is small enough for scheduling noise
// to dominate, an absolute floor under that allowance. Layer metrics
// are diagnostic and have no bound. BENCHMARK.json lists the same
// names, units, directions and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Floor  float64
}

// e2eMetrics are measured with tracing off, on every workload. One
// "operation" is a paper pass, a fleet run, or a served request; one
// "item" is an experiment, a simulated host, or a request.
var e2eMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// failedRatio gates failed/attempted operations when two recorded sets
// are compared: any increase is a regression. It is not a reported
// metric — the result line carries attempted and failed directly.
var failedRatio = metricDef{Name: "failed_ratio", Unit: "ratio", Better: "lower"}

// paperExperiments names the paper workload's experiments whose compute
// is reported per experiment. fig8 shares every shard with fig7 (same
// cache scope), so its compute lands in core.compute_s.fig7.
var paperExperiments = []string{
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "figFP", "fig7",
	"timesync", "migration", "memory", "buscontention", "serviceduty",
	"natqueue", "udploss", "confinement", "multivm",
}

// layerMetrics come from the traced run. A layer a workload does not
// exercise reads 0 there.
var layerMetrics = func() []metricDef {
	ms := []metricDef{
		{Name: "trace_overhead", Unit: "ratio", Better: "lower"},
		{Name: "ops", Unit: "count", Better: "higher"},
		// Peak RSS of the untraced window. It is not end to end: with
		// GOGC=400 the high-water mark follows collector timing and
		// varies by more than any usable bound between runs.
		{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},

		{Name: "engine.compute_s", Unit: "s", Better: "lower"},
		{Name: "engine.max_shard_s", Unit: "s", Better: "lower"},
		{Name: "engine.pool_busy_ratio", Unit: "ratio", Better: "higher"},
		{Name: "engine.self_s", Unit: "s", Better: "lower"},
		{Name: "engine.fold_s", Unit: "s", Better: "lower"},
		{Name: "engine.merge_s", Unit: "s", Better: "lower"},
		{Name: "engine.max_fold_gap_s", Unit: "s", Better: "lower"},
		{Name: "engine.first_event_s", Unit: "s", Better: "lower"},
		{Name: "engine.cache_put_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "engine.cache_put_ms.tail", Unit: "ms", Better: "lower"},
		{Name: "engine.cache_get_ms.p50", Unit: "ms", Better: "lower"},
		{Name: "engine.cache_puts", Unit: "count", Better: "lower"},
		{Name: "engine.hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "engine.journal_bytes", Unit: "bytes", Better: "lower"},

		{Name: "grid.calibration_s", Unit: "s", Better: "lower"},
		{Name: "grid.hosts_per_compute_s", Unit: "1/s", Better: "higher"},
		{Name: "grid.evictions", Unit: "count", Better: "lower"},
		{Name: "grid.restores", Unit: "count", Better: "lower"},
		{Name: "grid.lost_chunks", Unit: "count", Better: "lower"},
		{Name: "grid.migrations", Unit: "count", Better: "lower"},

		{Name: "sim.events_fired", Unit: "count", Better: "lower"},
		{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},

		{Name: "netsim.tx_bytes", Unit: "bytes", Better: "lower"},
		{Name: "netsim.rx_bytes", Unit: "bytes", Better: "lower"},

		{Name: "boinc.assignments", Unit: "count", Better: "lower"},
		{Name: "boinc.units_issued", Unit: "count", Better: "lower"},
		{Name: "boinc.validated", Unit: "count", Better: "higher"},
		{Name: "boinc.invalid", Unit: "count", Better: "lower"},
		{Name: "boinc.us_per_assignment", Unit: "us", Better: "lower"},
	}
	for _, e := range paperExperiments {
		ms = append(ms, metricDef{Name: "core.compute_s." + e, Unit: "s", Better: "lower"})
	}
	return append(ms,
		metricDef{Name: "serve.warm_ms.p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.warm_ms.tail", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.cold_ms.p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.cold_ms.tail", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.ttff_ms.p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.warm_requests", Unit: "count", Better: "higher"},
		metricDef{Name: "serve.cold_requests", Unit: "count", Better: "higher"},
		metricDef{Name: "serve.handler_ms.warm.p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.handler_ms.warm.tail", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.handler_ms.cold.p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.client_ms.warm.p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.mem_tier_hit_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "serve.cache_entries_new", Unit: "count", Better: "lower"},
		metricDef{Name: "serve.cache_bytes_new", Unit: "bytes", Better: "lower"},
		metricDef{Name: "serve.sse_frames", Unit: "count", Better: "lower"},
		metricDef{Name: "serve.response_bytes.p50", Unit: "bytes", Better: "lower"},
		metricDef{Name: "serve.rejected_429", Unit: "count", Better: "lower"},
	)
}()
