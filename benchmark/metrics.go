package main

// metricDecl declares one metric the benchmark prints. BENCHMARK.json at
// the root of the repository lists the same names, units, directions and
// bounds; the tests hold the two together.
type metricDecl struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share by which the metric may worsen
}

// endToEnd are the metrics a user of the system sees; every workload
// prints all of them in a metric run (-trace 0). Time-valued ones are in
// reference seconds (see refSliceS).
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"job_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer are the metrics of single layers; every workload prints all
// of them in a traced run (-trace 1). The ones measured from the
// workload's own passes read 0 on a workload that does not enter the
// layer; the ones measured by the layer drivers do not depend on the
// workload.
var perLayer = []metricDecl{
	// memory system (layer drivers)
	{name: "cache.load_ns", unit: "ns", better: "lower"},
	{name: "cache.stream_store_ns", unit: "ns", better: "lower"},
	{name: "cache.flush_ns", unit: "ns", better: "lower"},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "mem.snapshot_images_us", unit: "us", better: "lower"},
	{name: "mem.restore_images_us", unit: "us", better: "lower"},
	{name: "nvm.line_cost_ns", unit: "ns", better: "lower"},
	// crash (layer drivers, on the cg machine paused at its seeded points)
	{name: "crash.profile_ms", unit: "ms", better: "lower"},
	{name: "crash.record_ms", unit: "ms", better: "lower"},
	{name: "crash.capture_us", unit: "us", better: "lower"},
	{name: "crash.restore_us", unit: "us", better: "lower"},
	{name: "crash.state_version_hits", unit: "count", better: "higher"},
	{name: "crash.capture_fault_us", unit: "us", better: "lower"},
	{name: "crash.fault_overlay_torn_us", unit: "us", better: "lower"},
	{name: "crash.fault_overlay_reorder_us", unit: "us", better: "lower"},
	{name: "crash.fault_overlay_bitflip_us", unit: "us", better: "lower"},
	{name: "crash.fault_overlay_eadr_us", unit: "us", better: "lower"},
	// workload families and mechanisms (layer drivers)
	{name: "core.cg_ns_per_simop", unit: "ns", better: "lower"},
	{name: "core.mm_ns_per_simop", unit: "ns", better: "lower"},
	{name: "core.mc_ns_per_simop", unit: "ns", better: "lower"},
	{name: "stencil.ns_per_simop", unit: "ns", better: "lower"},
	{name: "kvlog.ns_per_simop", unit: "ns", better: "lower"},
	{name: "core.cg_recover_ms", unit: "ms", better: "lower"},
	{name: "stencil.recover_ms", unit: "ms", better: "lower"},
	{name: "kvlog.recover_ms", unit: "ms", better: "lower"},
	{name: "ckpt.checkpoint_us", unit: "us", better: "lower"},
	{name: "pmem.tx_us", unit: "us", better: "lower"},
	// campaign, from outside at Parallel=1 (replay-* passes)
	{name: "campaign.profile_frac", unit: "ratio", better: "lower"},
	{name: "campaign.cell_ms_p50", unit: "ms", better: "lower"},
	{name: "campaign.cell_ms_max", unit: "ms", better: "lower"},
	{name: "campaign.slowest_cell_frac", unit: "ratio", better: "lower"},
	// exact simulated totals of one pass (replay-* passes)
	{name: "sim.recover_ns_total", unit: "ns", better: "lower"},
	{name: "sim.resume_ns_total", unit: "ns", better: "lower"},
	{name: "sim.flush_lines_total", unit: "count", better: "lower"},
	{name: "sim.rework_ops_total", unit: "count", better: "lower"},
	{name: "sim.recovered_frac", unit: "ratio", better: "higher"},
	// harness (figures passes)
	{name: "harness.fig3_ms", unit: "ms", better: "lower"},
	{name: "harness.fig4_ms", unit: "ms", better: "lower"},
	{name: "harness.fig7_ms", unit: "ms", better: "lower"},
	{name: "harness.fig8_ms", unit: "ms", better: "lower"},
	{name: "harness.fig10_ms", unit: "ms", better: "lower"},
	{name: "harness.fig12_ms", unit: "ms", better: "lower"},
	{name: "harness.fig13_ms", unit: "ms", better: "lower"},
	{name: "harness.stencil_ms", unit: "ms", better: "lower"},
	{name: "harness.kvlog_ms", unit: "ms", better: "lower"},
	// result store and report (layer drivers)
	{name: "resultstore.encode_rows_per_s", unit: "1/s", better: "higher"},
	{name: "resultstore.open_us", unit: "us", better: "lower"},
	{name: "resultstore.scan_rows_per_s", unit: "1/s", better: "higher"},
	{name: "resultstore.aggregate_us", unit: "us", better: "lower"},
	{name: "resultstore.bytes_per_row", unit: "B", better: "lower"},
	{name: "report.encode_us", unit: "us", better: "lower"},
	{name: "report.decode_us", unit: "us", better: "lower"},
	// service plane (layer drivers, on a server of their own)
	{name: "adccd.resubmit_us", unit: "us", better: "lower"},
	{name: "adccd.report_us", unit: "us", better: "lower"},
	{name: "adccd.query_us", unit: "us", better: "lower"},
	{name: "adccd.store_us", unit: "us", better: "lower"},
	{name: "adccd.events_replay_us", unit: "us", better: "lower"},
	{name: "adccd.direct_submit_us", unit: "us", better: "lower"},
	{name: "adccd.http_overhead_us", unit: "us", better: "lower"},
	{name: "adccd.fresh_run_frac", unit: "ratio", better: "higher"},
	{name: "adccd.restart_load_ms", unit: "ms", better: "lower"},
	// service plane (service passes; per block)
	{name: "service.read_us_per_req", unit: "us", better: "lower"},
	{name: "adccclient.sse_events_per_s", unit: "1/s", better: "higher"},
	{name: "adccd.dedup_hits", unit: "count", better: "higher"},
	{name: "adccd.cache_hits", unit: "count", better: "higher"},
	{name: "adccd.cells_executed", unit: "count", better: "lower"},
	// runtime and the benchmark itself (the workload's measured passes)
	{name: "go.mallocs_per_op", unit: "count", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms_total", unit: "ms", better: "lower"},
	{name: "go.heap_peak_mb", unit: "MB", better: "lower"},
	{name: "bench.raw_wall_s", unit: "s", better: "lower"},
	{name: "bench.cal_slice_ms_min", unit: "ms", better: "lower"},
	{name: "bench.cal_slice_ms_p50", unit: "ms", better: "lower"},
	{name: "bench.cal_slice_ms_max", unit: "ms", better: "lower"},
	{name: "bench.unit_ratio_cv_max", unit: "ratio", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
}
