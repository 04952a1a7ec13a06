package main

// The metric lists below are the benchmark's contract and match
// BENCHMARK.json name for name (bench_test.go checks both directions).

type metricDef struct {
	name, unit, better string
	bound              float64 // share of the parent's median it may worsen by; end-to-end only
}

// endToEndMetrics are measured by the untraced run, on every workload. Every
// time among them is at the reference speed (speedref.go). A bound is three
// times the widest quartile spread any workload showed for the metric in the
// ten-seed calibration sets of README.md, rounded up to a twentieth, and at
// most the contract's 0.25. The 99th percentiles are not here: even at the
// reference speed they spread 0.10-0.27 between runs of the same code in a
// noisy spell of the sandbox (the tail of a microsecond op is the host's
// cache misses and interrupts more than the engine's), which no bound the
// contract allows covers, so they are reported in the per-layer list, which
// carries no bound, as the issue prescribes for a metric that does not
// repeat. The counts repeat within 0.1-3.5 % on the embedded workloads
// (exactly with -ops); space_amp and persist_max_over_dpt carry
// served_mixed's bound, whose wall-clock DPT makes both follow the machine's
// speed, because a metric has one bound for all workloads.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"put_p50_us", "us", "lower", 0.25},
	{"get_p50_us", "us", "lower", 0.25},
	{"scan_p50_us", "us", "lower", 0.25},
	{"write_amp", "ratio", "lower", 0.10},
	{"space_amp", "ratio", "lower", 0.25},
	{"persist_max_over_dpt", "ratio", "lower", 0.20},
	{"alloc_bytes_per_op", "B/op", "lower", 0.08},
}

// perLayerMetrics are produced by the traced run. C = counter delta over the
// measured phase, S = span time, P = layer probe on the artefacts the
// workload left behind. A metric a workload does not exercise reads 0. Their
// times are as the clock read them, except the three 99th percentiles, which
// are at the reference speed and come from the run's untraced reference
// phase; machine.speed says how fast the machine was beside the traced
// phase, as a multiple of the reference speed.
var perLayerMetrics = []metricDef{
	{name: "put_p99_us", unit: "us", better: "lower"},
	{name: "get_p99_us", unit: "us", better: "lower"},
	{name: "scan_p99_us", unit: "us", better: "lower"},
	{name: "machine.speed", unit: "ratio", better: "higher"},

	{name: "vfs.bytes_written_per_user_byte", unit: "ratio", better: "lower"},
	{name: "vfs.syncs_per_kop", unit: "1/kop", better: "lower"},
	{name: "vfs.write_calls_per_kop", unit: "1/kop", better: "lower"},
	{name: "vfs.read_calls_per_get", unit: "ratio", better: "lower"},
	{name: "vfs.busy_share", unit: "ratio", better: "lower"},

	{name: "wal.bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "wal.appends_per_sync", unit: "ratio", better: "higher"},
	{name: "wal.sync_p50_us", unit: "us", better: "lower"},
	{name: "wal.add_records_ns", unit: "ns", better: "lower"},

	{name: "skiplist.insert_ns", unit: "ns", better: "lower"},
	{name: "skiplist.seek_ns", unit: "ns", better: "lower"},
	{name: "memtable.add_ns", unit: "ns", better: "lower"},
	{name: "memtable.get_ns", unit: "ns", better: "lower"},

	{name: "bloom.skips_per_get", unit: "ratio", better: "higher"},
	{name: "bloom.false_positive_rate", unit: "ratio", better: "lower"},
	{name: "bloom.may_contain_ns", unit: "ns", better: "lower"},

	{name: "block.seek_ns", unit: "ns", better: "lower"},
	{name: "block.next_ns", unit: "ns", better: "lower"},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.misses_per_get", unit: "ratio", better: "lower"},
	{name: "cache.get_hit_ns", unit: "ns", better: "lower"},

	{name: "sstable.tables_probed_per_get", unit: "ratio", better: "lower"},
	{name: "sstable.tables_opened_per_scan", unit: "ratio", better: "lower"},
	{name: "sstable.get_hit_ns", unit: "ns", better: "lower"},
	{name: "sstable.get_miss_ns", unit: "ns", better: "lower"},
	{name: "sstable.get_allocs", unit: "count", better: "lower"},
	{name: "sstable.iter_next_ns", unit: "ns", better: "lower"},
	{name: "sstable.write_mb_per_s", unit: "MB/s", better: "higher"},

	{name: "iterator.merge_next_ns", unit: "ns", better: "lower"},
	{name: "iterator.steps_per_entry", unit: "ratio", better: "lower"},
	{name: "readview.builds_per_kscan", unit: "1/kscan", better: "lower"},
	{name: "readview.hit_ratio", unit: "ratio", better: "higher"},
	{name: "readview.build_ms", unit: "ms", better: "lower"},
	{name: "readview.next_ns", unit: "ns", better: "lower"},

	{name: "manifest.files_created_per_kop", unit: "1/kop", better: "lower"},
	{name: "manifest.live_files_end", unit: "count", better: "lower"},
	{name: "manifest.max_level_end", unit: "count", better: "lower"},

	{name: "compaction.jobs_l0", unit: "count", better: "lower"},
	{name: "compaction.jobs_saturation", unit: "count", better: "lower"},
	{name: "compaction.jobs_ttl", unit: "count", better: "lower"},
	{name: "compaction.trivial_moves", unit: "count", better: "higher"},
	{name: "compaction.flush_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "compaction.bytes_read_per_user_byte", unit: "ratio", better: "lower"},
	{name: "compaction.bytes_written_per_user_byte", unit: "ratio", better: "lower"},
	{name: "compaction.ttl_write_share", unit: "ratio", better: "lower"},

	{name: "core.put_self_us", unit: "us", better: "lower"},
	{name: "core.get_self_us", unit: "us", better: "lower"},
	{name: "core.scan_self_us", unit: "us", better: "lower"},
	{name: "core.maintenance_share", unit: "ratio", better: "lower"},
	{name: "core.put_allocs_per_op", unit: "count", better: "lower"},
	{name: "core.get_allocs_per_op", unit: "count", better: "lower"},
	{name: "core.write_stalls_per_kop", unit: "1/kop", better: "lower"},
	{name: "core.write_stall_share", unit: "ratio", better: "lower"},
	{name: "core.commits_per_sync", unit: "ratio", better: "higher"},
	{name: "core.tombstones_persisted", unit: "count", better: "higher"},
	{name: "core.live_tombstones_end", unit: "count", better: "lower"},
	{name: "core.range_tombstones_live_end", unit: "count", better: "lower"},
	{name: "core.pages_dropped", unit: "count", better: "higher"},
	{name: "core.persist_mean_over_dpt", unit: "ratio", better: "lower"},
	{name: "core.range_delete_p50_us", unit: "us", better: "lower"},

	{name: "shard.route_ns", unit: "ns", better: "lower"},
	{name: "shard.overhead_us_per_op", unit: "us", better: "lower"},
	{name: "server_wire.overhead_us_per_op", unit: "us", better: "lower"},
	{name: "client.ping_p50_us", unit: "us", better: "lower"},
	{name: "wire.encode_request_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_request_ns", unit: "ns", better: "lower"},
	{name: "wire.frame_roundtrip_ns", unit: "ns", better: "lower"},
	{name: "wire.bytes_per_op", unit: "B/op", better: "lower"},
	{name: "admission.admit_ns", unit: "ns", better: "lower"},

	{name: "process.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "process.gc_cycles", unit: "count", better: "lower"},
	{name: "process.gc_pause_total_ms", unit: "ms", better: "lower"},
	{name: "loadgen.self_us_per_op", unit: "us", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.top_level_coverage", unit: "ratio", better: "higher"},
	{name: "audit.stale_keys_sampled", unit: "count", better: "lower"},
	{name: "audit.keys_sampled", unit: "count", better: "higher"},
}
