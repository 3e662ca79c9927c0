package main

// metricDef is one metric the benchmark reports. Workload is the
// workload that measures a per-layer metric; end-to-end metrics have
// none, because every workload reports them. BENCHMARK.json lists the
// same names and units (a test keeps the two in step), and METRICS.md
// says what each one means and which end-to-end metric it should move.
type metricDef struct {
	Name     string
	Unit     string
	Better   string // "lower" or "higher"
	Workload string
}

const (
	wlSearch = "search-gpt3-2.6b"
	wlServe  = "serve-zipf"
	wlChurn  = "churn-mlp"
)

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"latency_p50_ms", "ms", "lower", ""},
	{"latency_tail_ms", "ms", "lower", ""},
	{"throughput_per_s", "1/s", "higher", ""},
	{"alloc_mb_per_op", "MB", "lower", ""},
}

var perLayer = []metricDef{
	{"core.search_ms", "ms", "lower", wlSearch},
	{"core.iterations", "count", "higher", wlSearch},
	{"core.explored", "count", "higher", wlSearch},
	{"core.iter_ms_p50", "ms", "lower", wlSearch},
	{"core.hops_mean", "count", "lower", wlSearch},
	{"core.backtracks", "count", "lower", wlSearch},
	{"core.pool_restarts", "count", "lower", wlSearch},
	{"core.dedup_ratio", "ratio", "lower", wlSearch},
	{"core.improve_ratio", "ratio", "higher", wlSearch},
	{"config.clone_ns", "ns", "lower", wlSearch},
	{"config.mutate_hash_ns", "ns", "lower", wlSearch},
	{"config.validate_ns", "ns", "lower", wlSearch},
	{"config.ops", "count", "higher", wlSearch},
	{"perfmodel.estimate_warm_ns", "ns", "lower", wlSearch},
	{"perfmodel.estimate_cold_ns", "ns", "lower", wlSearch},
	{"perfmodel.stage_cache_hit_ratio", "ratio", "higher", wlSearch},
	{"perfmodel.stage_cache_entries", "count", "lower", wlSearch},
	{"profiler.optime_ns", "ns", "lower", wlSearch},
	{"profiler.entries", "count", "lower", wlSearch},
	{"profiler.prewarm_ms", "ms", "lower", wlSearch},
	{"collective.allreduce_ns", "ns", "lower", wlSearch},
	{"collective.p2p_ns", "ns", "lower", wlSearch},

	{"model.build_us", "us", "lower", wlServe},
	{"hardware.cluster_build_us", "us", "lower", wlServe},
	{"planserver.hit_ms_p50", "ms", "lower", wlServe},
	{"planserver.warm_ms_p50", "ms", "lower", wlServe},
	{"planserver.miss_ms_p50", "ms", "lower", wlServe},
	{"planserver.server_ms_mean", "ms", "lower", wlServe},
	{"planserver.http_overhead_ms", "ms", "lower", wlServe},
	{"planserver.decode_us", "us", "lower", wlServe},
	{"planserver.prepare_us", "us", "lower", wlServe},
	{"planserver.encode_us", "us", "lower", wlServe},
	{"planserver.shed", "count", "lower", wlServe},
	{"planserver.queue_depth_max", "count", "lower", wlServe},
	{"plancache.hit_ratio", "ratio", "higher", wlServe},
	{"plancache.warm_ratio", "ratio", "higher", wlServe},
	{"plancache.evictions", "count", "lower", wlServe},
	{"plancache.entries", "count", "higher", wlServe},
	{"plancache.get_ns", "ns", "lower", wlServe},
	{"plancache.put_ns", "ns", "lower", wlServe},
	{"gen.lag_ms", "ms", "lower", wlServe},
	{"gen.sweep_max_rps", "1/s", "higher", wlServe},

	{"elastic.recovery_project_ms", "ms", "lower", wlChurn},
	{"elastic.recovery_replan_ms", "ms", "lower", wlChurn},
	{"elastic.replans", "count", "lower", wlChurn},
	{"elastic.replans_avoided", "count", "higher", wlChurn},
	{"elastic.steps_lost", "count", "lower", wlChurn},
	{"elastic.checkpoints", "count", "lower", wlChurn},
	{"elastic.checkpoint_save_ms", "ms", "lower", wlChurn},
	{"elastic.checkpoint_load_ms", "ms", "lower", wlChurn},
	{"elastic.reshard_ms", "ms", "lower", wlChurn},
	{"elastic.reshard_bytes", "bytes", "lower", wlChurn},
	{"elastic.replan_explored", "count", "higher", wlChurn},
	{"runtime.parallel_step_ms", "ms", "lower", wlChurn},
	{"runtime.serial_step_ms", "ms", "lower", wlChurn},
	{"comm.retries", "count", "lower", wlChurn},

	// Every workload measures its own tracing overhead.
	{"trace.overhead_ratio", "ratio", "lower", ""},
}
