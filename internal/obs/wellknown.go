package obs

// Default is the process-wide registry. Library instrumentation records
// into it unconditionally — recording is allocation-free and invisible
// until something reads a snapshot — and the ops endpoint and the
// commands' final snapshots serve it.
var Default = NewRegistry()

// DurationBuckets are the shared latency bucket bounds, in seconds. They
// span sub-millisecond tensor stages to multi-minute federated rounds.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// M holds the well-known metrics, pre-registered on Default at package
// initialization so every hot-path Inc/Add/Observe is a pointer chase plus
// an atomic — never a map lookup, never an allocation. The naming scheme
// is snake_case with a subsystem prefix (fl_, defense_, transport_,
// parallel_), `_total` for counters and `_seconds` for latency histograms
// (DESIGN.md §11).
var M = struct {
	// Federated rounds (internal/fl).
	FLRounds         *Counter   // aggregation rounds driven (training + fine-tuning)
	FLFineTuneRounds *Counter   // the fine-tuning subset of FLRounds
	FLCompleted      *Counter   // client updates that arrived and aggregated
	FLDropped        *Counter   // clients that delivered nothing (policy or wire)
	FLQuorumFailures *Counter   // rounds discarded below quorum
	FLRoundSeconds   *Histogram // wall time of one aggregation round

	// Streaming sharded aggregation (internal/fl, DESIGN.md §12).
	FLRegisteredClients  *Gauge     // population size registered with fl.Registry
	FLStreamInFlightPeak *Gauge     // last round's peak of trained-but-unfolded updates
	FLStreamFallbacks    *Counter   // streaming rounds degraded to batch (non-streaming rule)
	FLShardMergeSeconds  *Histogram // shard-partial merge + final scale per streaming round

	// Durable rounds (internal/fl, DESIGN.md §15).
	FLCheckpointWrites       *Counter   // checkpoints written (boundary + partial)
	FLCheckpointPartials     *Counter   // the mid-round partial subset of writes
	FLCheckpointWriteErrors  *Counter   // checkpoint writes that failed (round continues)
	FLCheckpointBytes        *Counter   // encoded checkpoint bytes written
	FLCheckpointWriteSeconds *Histogram // one checkpoint write, timed by its fl.checkpoint span (encode + fsync + rename)
	FLCheckpointTorn         *Counter   // checkpoint files skipped as torn/corrupt on load
	FLResumes                *Counter   // servers restored from a checkpoint
	FLResumedPartialRounds   *Counter   // resumes that re-entered an interrupted round

	// Defense pipeline (internal/core).
	DefensePipelines            *Counter   // RunPipeline invocations
	DefensePrunedUnits          *Counter   // units left pruned by PruneToThreshold
	DefenseZeroedWeights        *Counter   // weights zeroed by AdjustWeights
	DefenseReportDropouts       *Counter   // rank/vote reports lost on the wire
	DefenseReportQuorumFailures *Counter   // report collections aborted below quorum
	DefensePipelineSeconds      *Histogram // whole Algorithm 1 runs
	DefensePruneSweepSeconds    *Histogram // RunPipeline prune sweeps (defense.prune.sweep)
	DefenseFineTuneSeconds      *Histogram // RunPipeline fine-tuning stages (defense.finetune)
	DefenseAWSweepSeconds       *Histogram // RunPipeline Δ sweeps, one per layer (defense.aw.layer)

	// Wire protocol (internal/transport).
	TransportCalls        *Counter   // logical calls through RemoteClient
	TransportCallFailures *Counter   // logical calls that exhausted their retries
	TransportAttempts     *Counter   // individual HTTP attempts
	TransportRetries      *Counter   // attempts after the first (each waits a backoff)
	TransportCallSeconds  *Histogram // logical call latency including retries
	// Report-path bandwidth (DESIGN.md §14): payload bytes of report
	// responses (ranks/votes) as sent by servers and as successfully
	// decoded by RemoteClient, any encoding.
	TransportReportBytesSent *Counter
	TransportReportBytesRecv *Counter
	// Update-path bandwidth (DESIGN.md §15): payload bytes of /v1/update
	// responses as successfully decoded by RemoteClient, any encoding.
	TransportUpdateBytesRecv *Counter
	// Request-path bandwidth (DESIGN.md §15): body bytes of every request
	// attempt RemoteClient sends, any endpoint.
	TransportRequestBytesSent *Counter

	// For/ForBlocks fan-outs (internal/parallel). Counted per worker
	// goroutine (a block, or one claim loop of For), never per index, so
	// the kernels' warm paths stay atomic-add cheap.
	ForTasks      *Counter // worker goroutines' worth of work executed
	ForQueueDepth *Gauge   // fanned-out workers started but not yet finished

	// Numeric kernels (internal/tensor, DESIGN.md §17–18). Set once at
	// tensor package initialization from CPUID: 1 when the tiled matmuls
	// and the element-wise passes between them (ReLU, bias and gradient
	// adds, the optimizer's axpy, precision conversions, BatchNorm's
	// normalize and dx) run the AVX2 assembly, 0 when they run the pure-Go
	// loops (other architectures, older CPUs) — the first thing to read
	// when the same commit trains 2–3× slower on another host.
	TensorKernelAVX2 *Gauge

	// Tracing + flight recorder (DESIGN.md §16).
	TraceSpans    *Counter // traced spans recorded into the span ring
	FlightRecords *Counter // audit records written by the flight recorder

	// Load generation (transport.Fleet / cmd/fedload).
	FedloadClients       *Gauge     // synthetic clients hosted by the fleet
	FedloadUpdates       *Counter   // update requests served
	FedloadReports       *Counter   // report requests served (ranks/votes)
	FedloadBytesIn       *Counter   // request bytes read by the fleet
	FedloadBytesOut      *Counter   // response bytes written by the fleet
	FedloadHandlerPanics *Counter   // participant panics recovered by the fleet handler
	FedloadUpdateSeconds *Histogram // one synthetic update request, server side

	// Process self-telemetry (SampleProcess).
	ProcessHeapAllocBytes *Gauge // live Go heap (runtime.MemStats.HeapAlloc)
	ProcessSysBytes       *Gauge // total memory obtained from the OS by the runtime
	ProcessRSSBytes       *Gauge // resident set size from /proc/self/statm (0 off Linux)
	ProcessGoroutines     *Gauge // runtime.NumGoroutine
}{
	FLRounds:         Default.Counter("fl_rounds_total"),
	FLFineTuneRounds: Default.Counter("fl_finetune_rounds_total"),
	FLCompleted:      Default.Counter("fl_completed_updates_total"),
	FLDropped:        Default.Counter("fl_dropped_total"),
	FLQuorumFailures: Default.Counter("fl_quorum_failures_total"),
	FLRoundSeconds:   Default.Histogram("fl_round_seconds", DurationBuckets),

	FLRegisteredClients:  Default.Gauge("fl_registered_clients"),
	FLStreamInFlightPeak: Default.Gauge("fl_stream_inflight_peak"),
	FLStreamFallbacks:    Default.Counter("fl_stream_fallbacks_total"),
	FLShardMergeSeconds:  Default.Histogram("fl_shard_merge_seconds", DurationBuckets),

	FLCheckpointWrites:       Default.Counter("fl_checkpoint_writes_total"),
	FLCheckpointPartials:     Default.Counter("fl_checkpoint_partials_total"),
	FLCheckpointWriteErrors:  Default.Counter("fl_checkpoint_write_errors_total"),
	FLCheckpointBytes:        Default.Counter("fl_checkpoint_bytes_total"),
	FLCheckpointWriteSeconds: Default.Histogram("fl_checkpoint_write_seconds", DurationBuckets),
	FLCheckpointTorn:         Default.Counter("fl_checkpoint_torn_total"),
	FLResumes:                Default.Counter("fl_resumes_total"),
	FLResumedPartialRounds:   Default.Counter("fl_resumed_partial_rounds_total"),

	DefensePipelines:            Default.Counter("defense_pipeline_runs_total"),
	DefensePrunedUnits:          Default.Counter("defense_pruned_units_total"),
	DefenseZeroedWeights:        Default.Counter("defense_zeroed_weights_total"),
	DefenseReportDropouts:       Default.Counter("defense_report_dropouts_total"),
	DefenseReportQuorumFailures: Default.Counter("defense_report_quorum_failures_total"),
	DefensePipelineSeconds:      Default.Histogram("defense_pipeline_seconds", DurationBuckets),
	DefensePruneSweepSeconds:    Default.Histogram("defense_prune_sweep_seconds", DurationBuckets),
	DefenseFineTuneSeconds:      Default.Histogram("defense_finetune_seconds", DurationBuckets),
	DefenseAWSweepSeconds:       Default.Histogram("defense_aw_sweep_seconds", DurationBuckets),

	TransportCalls:           Default.Counter("transport_calls_total"),
	TransportCallFailures:    Default.Counter("transport_call_failures_total"),
	TransportAttempts:        Default.Counter("transport_attempts_total"),
	TransportRetries:         Default.Counter("transport_retries_total"),
	TransportCallSeconds:     Default.Histogram("transport_call_seconds", DurationBuckets),
	TransportReportBytesSent: Default.Counter("transport_report_bytes_sent_total"),
	TransportReportBytesRecv: Default.Counter("transport_report_bytes_recv_total"),
	TransportUpdateBytesRecv: Default.Counter("transport_update_bytes_recv_total"),

	TransportRequestBytesSent: Default.Counter("transport_request_bytes_sent_total"),

	ForTasks:      Default.Counter("parallel_for_tasks_total"),
	ForQueueDepth: Default.Gauge("parallel_for_queue_depth"),

	TensorKernelAVX2: Default.Gauge("tensor_kernel_avx2"),

	TraceSpans:    Default.Counter("trace_spans_total"),
	FlightRecords: Default.Counter("flight_records_total"),

	FedloadClients:       Default.Gauge("fedload_clients"),
	FedloadUpdates:       Default.Counter("fedload_updates_total"),
	FedloadReports:       Default.Counter("fedload_reports_total"),
	FedloadBytesIn:       Default.Counter("fedload_bytes_in_total"),
	FedloadBytesOut:      Default.Counter("fedload_bytes_out_total"),
	FedloadHandlerPanics: Default.Counter("fedload_handler_panics_total"),
	FedloadUpdateSeconds: Default.Histogram("fedload_update_seconds", DurationBuckets),

	ProcessHeapAllocBytes: Default.Gauge("process_heap_alloc_bytes"),
	ProcessSysBytes:       Default.Gauge("process_sys_bytes"),
	ProcessRSSBytes:       Default.Gauge("process_rss_bytes"),
	ProcessGoroutines:     Default.Gauge("process_goroutines"),
}
