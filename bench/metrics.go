package main

// metricDef names one metric. BENCHMARK.json at the root of the
// repository lists the same metrics; bench_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median a change may lose
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; what each means on each workload is in
// README.md ("End-to-end metrics"). Durations are in reference time
// (yardstick.go). The bounds are what the sandbox allows, not what one
// would wish: with the host busy the same binary spreads by up to 10 %
// on the timings even so (README.md, "Spread").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported by a traced run.
// A workload that never calls a layer function reports 0 for it.
var perLayer = []metricDef{
	{name: "darshan.decode_us", unit: "us", better: "lower"},
	{name: "darshan.decode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "darshan.decode_alloc_kb", unit: "KB", better: "lower"},
	{name: "darshan.encode_us", unit: "us", better: "lower"},
	{name: "darshan.readfile_us", unit: "us", better: "lower"},

	{name: "core.preprocess_us", unit: "us", better: "lower"},
	{name: "core.categorize_us", unit: "us", better: "lower"},
	{name: "core.categorize_explained_us", unit: "us", better: "lower"},
	{name: "core.categorize_tail_us", unit: "us", better: "lower"},
	{name: "core.categorize_alloc_kb", unit: "KB", better: "lower"},

	{name: "engine.run_single_overhead_us", unit: "us", better: "lower"},
	{name: "engine.corpus_inproc_traces_per_s", unit: "1/s", better: "higher"},
	{name: "engine.parallel_efficiency", unit: "share", better: "higher"},
	{name: "engine.cli_overhead_share", unit: "share", better: "lower"},
	{name: "engine.pass_p50_ms", unit: "ms", better: "lower"},
	{name: "engine.startup_ms", unit: "ms", better: "lower"},

	{name: "store.tracekey_us", unit: "us", better: "lower"},
	{name: "store.put_trace_us", unit: "us", better: "lower"},
	{name: "store.put_trace_nosync_us", unit: "us", better: "lower"},
	{name: "store.put_result_us", unit: "us", better: "lower"},
	{name: "store.put_explanation_us", unit: "us", better: "lower"},
	{name: "store.fsyncs_per_trace", unit: "count", better: "lower"},
	{name: "store.frames_per_fsync", unit: "count", better: "higher"},
	{name: "store.open_s", unit: "s", better: "lower"},
	{name: "store.get_result_zipf_us", unit: "us", better: "lower"},
	{name: "store.get_result_uniform_us", unit: "us", better: "lower"},
	{name: "store.disk_bytes_per_user_byte", unit: "ratio", better: "lower"},

	{name: "index.rebuild_s", unit: "s", better: "lower"},
	{name: "index.point_us", unit: "us", better: "lower"},
	{name: "index.and_heavy_us", unit: "us", better: "lower"},
	{name: "index.not_heavy_us", unit: "us", better: "lower"},
	{name: "index.or_page_us", unit: "us", better: "lower"},
	{name: "index.axis_counts_us", unit: "us", better: "lower"},
	{name: "index.not_heavy_alloc_kb", unit: "KB", better: "lower"},
	{name: "index.ids_examined_per_returned", unit: "ratio", better: "lower"},
	{name: "index.add_us", unit: "us", better: "lower"},

	{name: "serve.ingest_handler_us", unit: "us", better: "lower"},
	{name: "serve.ingest_handler_alloc_kb", unit: "KB", better: "lower"},
	{name: "serve.reingest_handler_us", unit: "us", better: "lower"},
	{name: "serve.ingest_edge_self_us", unit: "us", better: "lower"},
	{name: "serve.query_handler_us", unit: "us", better: "lower"},
	{name: "serve.result_handler_us", unit: "us", better: "lower"},
	{name: "serve.wire_overhead_us", unit: "us", better: "lower"},
	{name: "serve.unattributed_share", unit: "share", better: "lower"},
	{name: "serve.process_overhead_share", unit: "share", better: "lower"},
	{name: "serve.point_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.not_heavy_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.batch_ack_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.ready_s", unit: "s", better: "lower"},
	{name: "serve.ack_tail_ms", unit: "ms", better: "lower"},
	{name: "serve.query_tail_ms", unit: "ms", better: "lower"},
	{name: "serve.saturated_traces_per_s", unit: "1/s", better: "higher"},
	{name: "serve.http_429_share", unit: "share", better: "lower"},
	{name: "serve.drain_s", unit: "s", better: "lower"},

	{name: "ring.forward_ingest_us", unit: "us", better: "lower"},
	{name: "ring.replicate_us", unit: "us", better: "lower"},
	{name: "ring.scatter_query_us", unit: "us", better: "lower"},
	{name: "ring.merge_us", unit: "us", better: "lower"},
	{name: "ring.scatter_p50_ms", unit: "ms", better: "lower"},
	{name: "ring.ready_s", unit: "s", better: "lower"},
	{name: "ring.batch_ack_tail_ms", unit: "ms", better: "lower"},
	{name: "ring.scatter_tail_ms", unit: "ms", better: "lower"},
	{name: "ring.partial_share", unit: "share", better: "lower"},
	{name: "ring.replica_copies_per_trace", unit: "count", better: "lower"},
	{name: "ring.node_cpu_imbalance", unit: "ratio", better: "lower"},

	{name: "loadgen.late_tail_ms", unit: "ms", better: "lower"},
	{name: "loadgen.cpu_share", unit: "share", better: "lower"},
	{name: "loadgen.slowdown", unit: "ratio", better: "lower"},
}
