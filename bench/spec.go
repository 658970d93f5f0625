package main

// The benchmark's vocabulary: workloads, end-to-end metrics and per-layer
// metrics. BENCHMARK.json at the repository root declares the same names
// for the acceptance driver; TestSpecMatchesBenchmarkJSON keeps the two
// from drifting.

type workloadSpec struct {
	Name string
	Why  string
	// Gated workloads are the ones BENCHMARK.json declares, which the
	// acceptance driver runs 22 times each inside one time limit. That
	// limit fits four workloads at a run length the shared host's noise
	// allows (README, "Measured spread"), not seven; the other three run
	// in all-workloads mode and under -check, like the gated ones.
	Gated bool
}

var workloadSpecs = []workloadSpec{
	{"generate", "vcg.Generate of a fresh seeded city per iteration: the only workload where vcity+render work; decode, cache, engines, shard and serve do nothing", true},
	{"qmix", "lightdblike Q1,Q2a,Q2b,Q2d,Q5,Q6a in concurrent mode with the 256 MB decoded cache: result encode is the largest share, so an encoder change shows most here", true},
	{"qdecode", "lightdblike Q1+Q5, 64 instances, Sequential (one at a time, no shared cache): decode-bound; the cache and worker pool are bypassed", true},
	{"qcache", "the qdecode plan in concurrent mode with a cache far larger than the working set: qdecode / qcache is what the cache and pool buy", false},
	{"qcache_tight", "the qcache plan with a 2 MB decoded cache, smaller than the working set: the same cache layer under eviction", false},
	{"composite_write", "scannerlike Q2c,Q3,Q6b,Q7,Q9,Q10 Sequential, WriteMode, Validate: the only workload where detect, scannerlike, persisted results and the validator work", false},
	{"serve_openloop", "real serve.Server + 2 TCP shard workers: seeded Poisson open loop at 12 jobs/s from 8 tenants, then a 1-client closed loop: control plane, shard framing and queueing", true},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening, as a share of the median
}

// endToEnd metrics are reported by every workload (the driver's contract
// is one list for all workloads), so each is defined in terms every
// workload has: a closed-loop iteration, a request inside it, the
// process's memory and the bytes it stores.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"batch_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"stored_bytes_per_raw_byte", "ratio", "lower", 0.25},
}

// perLayer metrics come from the traced pass. A workload that does not
// touch a layer reports 0 for it — "does nothing" is the prediction, and
// a non-zero there is a finding.
var perLayer = []metricSpec{
	{"vcity.generate_ms", "ms", "lower", 0},
	{"render.frame_us", "us", "lower", 0},
	{"render.mpix_per_s", "Mpix/s", "higher", 0},

	{"codec.encode_mpix_per_s", "Mpix/s", "higher", 0},
	{"codec.encode_frame_us", "us", "lower", 0},
	{"codec.encode_alloc_kb_per_frame", "KB", "lower", 0},
	{"codec.bytes_per_raw_byte", "ratio", "lower", 0},
	{"codec.decode_mpix_per_s", "Mpix/s", "higher", 0},
	{"codec.decode_par_mpix_per_s", "Mpix/s", "higher", 0},
	{"codec.decode_range_ms", "ms", "lower", 0},
	{"codec.decode_range_decoded_per_req", "ratio", "lower", 0},
	{"codec.decode_tiles_1of4_ms", "ms", "lower", 0},
	{"codec.decode_alloc_kb_per_frame", "KB", "lower", 0},
	{"codec.transform_fallbacks", "count", "lower", 0},

	{"container.mux_mb_per_s", "MB/s", "higher", 0},
	{"container.demux_mb_per_s", "MB/s", "higher", 0},
	{"container.seek_us", "us", "lower", 0},

	{"vcg.frames_per_s", "1/s", "higher", 0},
	{"vcg.overlap_ratio", "ratio", "higher", 0},
	{"vcg.clip_p95_ms", "ms", "lower", 0},

	{"vcd.load_dataset_ms", "ms", "lower", 0},
	{"vcd.build_batch_ms", "ms", "lower", 0},
	{"vcd.result_encode_ms", "ms", "lower", 0},
	{"vcd.result_encode_share", "ratio", "lower", 0},
	{"vcd.decode_share", "ratio", "lower", 0},
	{"vcd.driver_overhead_ms", "ms", "lower", 0},
	{"vcd.validate_ms", "ms", "lower", 0},
	{"vcd.cache_hit_rate", "ratio", "higher", 0},
	{"vcd.cache_decoded_per_req", "ratio", "lower", 0},
	{"vcd.cache_evictions", "count", "lower", 0},
	{"vcd.cache_speedup", "ratio", "higher", 0},
	{"vcd.frames_per_s", "1/s", "higher", 0},
	{"vcd.alloc_mb_per_batch", "MB", "lower", 0},
	{"vcd.instance_p95_ms", "ms", "lower", 0},

	{"lightdblike.execute_ms.Q1", "ms", "lower", 0},
	{"lightdblike.execute_ms.Q2a", "ms", "lower", 0},
	{"lightdblike.execute_ms.Q2b", "ms", "lower", 0},
	{"lightdblike.execute_ms.Q2d", "ms", "lower", 0},
	{"lightdblike.execute_ms.Q5", "ms", "lower", 0},
	{"lightdblike.execute_ms.Q6a", "ms", "lower", 0},
	{"scannerlike.execute_ms.Q2c", "ms", "lower", 0},
	{"scannerlike.execute_ms.Q3", "ms", "lower", 0},
	{"scannerlike.execute_ms.Q6b", "ms", "lower", 0},
	{"scannerlike.execute_ms.Q7", "ms", "lower", 0},
	{"scannerlike.execute_ms.Q9", "ms", "lower", 0},
	{"scannerlike.execute_ms.Q10", "ms", "lower", 0},
	{"detect.frame_us", "us", "lower", 0},

	{"shard.pipe1_batch_ms", "ms", "lower", 0},
	{"shard.tcp2_batch_ms", "ms", "lower", 0},
	{"shard.overhead_frac", "ratio", "lower", 0},
	{"shard.wire_bytes_per_job", "B", "lower", 0},
	{"shard.retried_instances", "count", "lower", 0},

	{"serve.submit_p50_ms", "ms", "lower", 0},
	{"serve.queue_wait_p50_ms", "ms", "lower", 0},
	{"serve.queue_wait_p75_ms", "ms", "lower", 0},
	{"serve.run_p50_ms", "ms", "lower", 0},
	{"serve.job_p50_ms", "ms", "lower", 0},
	{"serve.job_p75_ms", "ms", "lower", 0},
	{"serve.jobs_per_s", "1/s", "higher", 0},
	{"serve.overhead_ms", "ms", "lower", 0},
	{"serve.journal_bytes_per_job", "B", "lower", 0},
	{"serve.alloc_mb_per_job", "MB", "lower", 0},
	{"serve.refused", "count", "lower", 0},
	{"serve.gen_late_p75_ms", "ms", "lower", 0},

	{"metrics.enabled_overhead_frac", "ratio", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
}
