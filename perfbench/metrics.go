package main

// The metric tables below are the benchmark's contract with BENCHMARK.json:
// every run reports every name, on every workload. METRICS.md says what
// each one means on each workload and which end-to-end metric a per-layer
// metric should move.

type metricSpec struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"step_virtual_ms", "virtual_ms"},
	{"speedup_virtual", "x"},
	{"samples_per_s", "1/s"},
	{"fwd_virtual_ms", "virtual_ms"},
	{"p50_ms.low", "ms"},
	{"p50_ms.high", "ms"},
	{"slo_rps", "1/s"},
	{"mem_mb", "MB"},
	{"ok_rate", "ratio"},
}

// ungated lists the end-to-end metrics an untraced run prints beside the
// gated ones but leaves out of its result line: the p99 latencies spread
// across runs by more than the largest bound, and the error rate reads 0
// on a healthy run (ok_rate = 1 - error_rate is gated instead).
var ungated = []metricSpec{
	{"p99_ms.low", "ms"},
	{"p99_ms.high", "ms"},
	{"error_rate", "ratio"},
}

// netLayers are the conv and inner-product layers of the two nets the
// workloads run (CIFAR10: conv1-3, ip1-2; CaffeNet: conv1-5, fc6-8).
var netLayers = []string{"conv1", "conv2", "conv3", "conv4", "conv5", "ip1", "ip2", "fc6", "fc7", "fc8"}

// modules are the repository packages whose self time the trace reports.
var modules = []string{"simgpu", "core", "dnn", "tensor", "data", "parallel", "serve", "models"}

// perLayer lists the metrics a traced run reports.
var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, c := range netLayers[:5] {
		out = append(out, metricSpec{"tensor.gemm_gflops." + c, "GFLOP/s"}, metricSpec{"tensor.im2col_ms." + c, "ms"})
	}
	out = append(out,
		metricSpec{"simgpu.host_us_per_kernel", "us"},
		metricSpec{"simgpu.kernels_per_step", "count"},
		metricSpec{"simgpu.inflight_mean", "kernels"},
	)
	for _, l := range netLayers {
		out = append(out, metricSpec{"core." + l + ".fwd_width", "streams"}, metricSpec{"core." + l + ".bwd_width", "streams"})
	}
	for _, l := range netLayers {
		out = append(out, metricSpec{"dnn." + l + ".fwd_virtual_ms", "virtual_ms"}, metricSpec{"dnn." + l + ".bwd_virtual_ms", "virtual_ms"})
	}
	out = append(out,
		metricSpec{"core.profile_ms", "ms"},
		metricSpec{"core.analyze_ms", "ms"},
		metricSpec{"core.streams_ms", "ms"},
		metricSpec{"core.dispatches_per_step", "count"},
		metricSpec{"core.budget_throttles", "count"},
		metricSpec{"core.copy_overlap_virtual_ms", "virtual_ms"},
		metricSpec{"core.recoveries", "count"},
		metricSpec{"models.build_ms", "ms"},
		metricSpec{"dnn.freeze_ms", "ms"},
		metricSpec{"dnn.step_wall_ms", "ms"},
		metricSpec{"parallel.step_wall_ms", "ms"},
		metricSpec{"parallel.compute_virtual_ms", "virtual_ms"},
		metricSpec{"parallel.exposed_comm_virtual_ms", "virtual_ms"},
		metricSpec{"parallel.overlapped_comm_virtual_ms", "virtual_ms"},
		metricSpec{"parallel.buckets_per_step", "count"},
		metricSpec{"parallel.checkpoint_ms", "ms"},
		metricSpec{"parallel.checkpoint_bytes", "bytes"},
		metricSpec{"parallel.rollbacks", "count"},
		metricSpec{"data.feed_ms", "ms"},
		metricSpec{"data.prefetch_hits", "count"},
		metricSpec{"data.prefetch_stalls", "count"},
		metricSpec{"serve.mean_batch", "requests"},
		metricSpec{"serve.batch_p50_ms", "ms"},
		metricSpec{"serve.batch_p99_ms", "ms"},
		metricSpec{"serve.req_p50_ms", "ms"},
		metricSpec{"serve.req_p99_ms", "ms"},
		metricSpec{"serve.shed", "count"},
		metricSpec{"serve.retries", "count"},
		metricSpec{"serve.gen_late_ms", "ms"},
		metricSpec{"serve.p99_ms.low", "ms"},
		metricSpec{"serve.p99_ms.high", "ms"},
		metricSpec{"go.allocs_per_step", "count"},
		metricSpec{"go.gc_cpu_pct", "%"},
	)
	for _, m := range modules {
		out = append(out, metricSpec{"trace.self_ms." + m, "ms"})
	}
	for _, e := range endToEnd {
		out = append(out, metricSpec{"overhead." + e.name, e.unit})
	}
	return out
}()
