package main

// metricDef names one metric of the ledger. README.md holds the written
// definition of each and, for per-layer metrics, the prediction of which
// end-to-end metric it moves on which workload; BENCHMARK.json repeats name,
// unit, direction and bound, and bench_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression. Zero on
	// per-layer metrics, which carry no bound.
	Bound float64
}

// workloadNames are the four workloads, in run order.
var workloadNames = []string{"cleanse_mnist_f64", "cleanse_cifar_f32", "wire_batch", "wire_stream_durable"}

// endToEnd are the metrics of the untraced pass. Every workload reports every
// one of them: a round is a training round on the cleanse workloads and a
// loopback wire round on the wire workloads, and the defense phase is the
// full pipeline on the former and report collection on the latter.
//
// The timing bounds sit at the contract's cap of 0.25: about three times the
// run-to-run spread a quiet hour on the shared 2-core host gives (README.md
// has the table); tighter ones would reject unchanged code in a noisy one.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"updates_per_s", "1/s", "higher", 0.25},
	{"round_p50_ms", "ms", "lower", 0.25},
	{"round_p90_ms", "ms", "lower", 0.25},
	{"defense_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_update", "ms", "lower", 0.25},
	{"alloc_kb_per_update", "KiB", "lower", 0.05},
}

// perLayer are the metrics of the traced pass, grouped by the module whose
// boundary they are measured at. A metric whose layer does no work in a
// workload (transport.* in-process, nn probes aside) reads 0 there.
var perLayer = []metricDef{
	{Name: "fl.round_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.local_update_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.worker_busy_share", Unit: "share", Better: "higher"},
	{Name: "fl.aggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.fold_us", Unit: "us", Better: "lower"},
	{Name: "fl.fold_wait_us", Unit: "us", Better: "lower"},
	{Name: "fl.round_self_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.select_us", Unit: "us", Better: "lower"},
	{Name: "fl.checkpoint_encode_us", Unit: "us", Better: "lower"},
	{Name: "fl.checkpoint_write_ms", Unit: "ms", Better: "lower"},
	{Name: "fl.checkpoint_writes_per_round", Unit: "count", Better: "lower"},
	{Name: "fl.checkpoint_bytes", Unit: "B", Better: "lower"},
	{Name: "fl.resume_us", Unit: "us", Better: "lower"},
	{Name: "fl.peak_inflight", Unit: "count", Better: "lower"},
	{Name: "fl.heap_inuse_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "fl.train_samples_per_s", Unit: "1/s", Better: "higher"},

	{Name: "transport.update_call_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.update_call_p99_us", Unit: "us", Better: "lower"},
	{Name: "transport.http_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.http_rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "transport.client_codec_us", Unit: "us", Better: "lower"},
	{Name: "transport.fleet_handle_us", Unit: "us", Better: "lower"},
	{Name: "transport.fleet_participant_us", Unit: "us", Better: "lower"},
	{Name: "transport.fleet_codec_us", Unit: "us", Better: "lower"},
	{Name: "transport.network_us", Unit: "us", Better: "lower"},
	{Name: "transport.req_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "transport.resp_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "transport.bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "transport.attempts_per_call", Unit: "count", Better: "lower"},
	{Name: "transport.report_call_us", Unit: "us", Better: "lower"},
	{Name: "transport.report_req_bytes", Unit: "B", Better: "lower"},
	{Name: "transport.report_bytes_per_report", Unit: "B", Better: "lower"},
	{Name: "transport.update_codec_probe_us", Unit: "us", Better: "lower"},
	{Name: "transport.report_codec_probe_us", Unit: "us", Better: "lower"},

	{Name: "wire.encode_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_us", Unit: "us", Better: "lower"},

	{Name: "nn.train_step_us", Unit: "us", Better: "lower"},
	{Name: "nn.forward_train_us", Unit: "us", Better: "lower"},
	{Name: "nn.loss_us", Unit: "us", Better: "lower"},
	{Name: "nn.backward_us", Unit: "us", Better: "lower"},
	{Name: "nn.sgd_step_us", Unit: "us", Better: "lower"},
	{Name: "nn.forward_eval_us", Unit: "us", Better: "lower"},
	{Name: "nn.clone_us", Unit: "us", Better: "lower"},
	{Name: "nn.params_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "nn.train_step_allocs", Unit: "count", Better: "lower"},

	{Name: "tensor.matmul_us", Unit: "us", Better: "lower"},
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.im2col_us", Unit: "us", Better: "lower"},

	{Name: "dataset.gen_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.batch_into_us", Unit: "us", Better: "lower"},

	{Name: "metrics.evaluate_full_us", Unit: "us", Better: "lower"},
	{Name: "metrics.evaluate_suffix_us", Unit: "us", Better: "lower"},
	{Name: "metrics.evaluate_count", Unit: "count", Better: "lower"},
	{Name: "metrics.record_activations_ms", Unit: "ms", Better: "lower"},

	{Name: "core.pipeline_ms", Unit: "ms", Better: "lower"},
	{Name: "core.report_collect_ms", Unit: "ms", Better: "lower"},
	{Name: "core.report_client_ms", Unit: "ms", Better: "lower"},
	{Name: "core.prune_sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "core.prune_steps", Unit: "count", Better: "lower"},
	{Name: "core.aw_sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "core.aw_steps", Unit: "count", Better: "lower"},
	{Name: "core.finetune_round_ms", Unit: "ms", Better: "lower"},
	{Name: "core.pipeline_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.aggregate_reports_us", Unit: "us", Better: "lower"},

	{Name: "obs.flight_record_us", Unit: "us", Better: "lower"},
	{Name: "obs.audit_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "obs.span_ring_append_ns", Unit: "ns", Better: "lower"},

	{Name: "parallel.for_dispatch_us", Unit: "us", Better: "lower"},
	{Name: "parallel.workers", Unit: "count", Better: "higher"},

	{Name: "bench.host_speed", Unit: "share", Better: "higher"},
	{Name: "bench.cleanse_s", Unit: "s", Better: "lower"},
	{Name: "bench.unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// metric is one measured value with its unit and the number of samples the
// statistic was taken over (1 for a count or a single measurement).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet collects a run's metrics by name, checking each against its
// definition so a typo cannot invent a metric.
type metricSet struct {
	defs   map[string]metricDef
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	ms := &metricSet{defs: make(map[string]metricDef, len(defs)), values: make(map[string]metric, len(defs))}
	for _, d := range defs {
		ms.defs[d.Name] = d
	}
	return ms
}

// set records a value; n is the sample count behind it.
func (ms *metricSet) set(name string, v float64, n int) {
	d, ok := ms.defs[name]
	if !ok {
		panic("bench: undefined metric " + name)
	}
	ms.values[name] = metric{Value: v, Unit: d.Unit, N: n}
}

// setMedian records the median of samples.
func (ms *metricSet) setMedian(name string, samples []float64) {
	ms.set(name, median(samples), len(samples))
}

// fillMissing reports every defined metric the run did not set as 0 with no
// samples: the layer did no work on this workload.
func (ms *metricSet) fillMissing() {
	for name, d := range ms.defs {
		if _, ok := ms.values[name]; !ok {
			ms.values[name] = metric{Unit: d.Unit}
		}
	}
}
