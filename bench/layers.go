package main

import "path/filepath"

// openRoot opens the traced part of a run: the root span, bench.workload,
// becomes the scope. The returned func closes it.
func (t *tracer) openRoot() (closeRoot func()) {
	t.root, closeRoot = t.enter("bench.workload")
	return closeRoot
}

// finishTrace completes a traced run's result from what tr recorded: the
// span-derived metrics join the ones the caller already set in ms, layers
// that did no work read 0, and the roll-up and the trace file are written.
func finishTrace(res *runResult, spec runSpec, tr *tracer, ms *metricSet, workers int) error {
	spans, counts, samples := tr.snapshot()
	root := tr.root
	layerMetricsFromTrace(ms, spans, counts, samples, root, workers)
	ms.set("parallel.workers", float64(workers), 1)
	ms.fillMissing()
	res.PerLayer = ms.values
	res.Rollup = rollup(spans, root)
	return writeTrace(filepath.Join(spec.OutDir, "trace-"+spec.Workload+".json"),
		traceFile{Workload: spec.Workload, Seed: spec.Seed, Spans: spans, Counts: counts})
}

// layerMetricsFromTrace derives the per-layer metrics that come from the
// traced section's spans, counters and sample lists. Probe metrics are set by
// the caller. Span names are the ones sut.go's wrappers use; a name that did
// not occur leaves its metrics unset (reported as 0: no work in that layer).
func layerMetricsFromTrace(ms *metricSet, spans []span, counts map[string]int64, samples map[string][]float64, root spanID, workers int) {
	t := newSpanTree(spans)
	const us, msec = 1e3, 1e6

	fromDur := func(metric, spanName string, unit float64) {
		if d := t.durations(spanName, unit); len(d) > 0 {
			ms.setMedian(metric, d)
		}
	}
	fromSelf := func(metric, spanName string, unit float64) {
		if d := t.selfTimes(spanName, unit); len(d) > 0 {
			ms.setMedian(metric, d)
		}
	}

	// fl
	fromDur("fl.round_ms", "fl.round", msec)
	fromSelf("fl.round_self_ms", "fl.round", msec)
	fromDur("fl.local_update_ms", "fl.local_update", msec)
	fromDur("fl.aggregate_ms", "fl.aggregate", msec)
	fromDur("fl.fold_us", "fl.fold", us)
	fromDur("fl.checkpoint_write_ms", "fl.checkpoint_write", msec)
	if w := samples["fl.fold_wait_us"]; len(w) > 0 {
		ms.setMedian("fl.fold_wait_us", w)
	}
	if b := samples["fl.checkpoint_bytes"]; len(b) > 0 {
		ms.setMedian("fl.checkpoint_bytes", b)
	}
	if p := samples["fl.peak_inflight"]; len(p) > 0 {
		ms.set("fl.peak_inflight", percentile(p, 100), len(p))
	}
	if h := samples["fl.heap_inuse_mb"]; len(h) > 0 {
		ms.set("fl.heap_inuse_peak_mb", percentile(h, 100), len(h))
	}
	var busyShare, writesPerRound []float64
	for _, i := range t.named("fl.round") {
		r := t.spans[i]
		var busy int64
		writes, folds := 0, 0
		for _, c := range t.children[r.ID] {
			switch k := t.spans[c]; k.Name {
			case "fl.local_update", "transport.update_call":
				busy += k.dur()
			case "fl.checkpoint_write":
				writes++
			case "fl.fold":
				folds++
			}
		}
		if r.dur() > 0 {
			busyShare = append(busyShare, float64(busy)/(float64(r.dur())*float64(workers)))
		}
		// A round whose fold was timed wrote no partial checkpoints (see
		// tracedAggregator); only the others show the real write count.
		if writes > 0 && folds == 0 {
			writesPerRound = append(writesPerRound, float64(writes))
		}
	}
	if len(busyShare) > 0 {
		ms.setMedian("fl.worker_busy_share", busyShare)
	}
	if len(writesPerRound) > 0 {
		ms.setMedian("fl.checkpoint_writes_per_round", writesPerRound)
	}

	// transport: a call's self time is what it spent outside its child, so
	// the chain call > rtt > handle > participant splits into client codec,
	// network, fleet codec and load generation.
	if d := t.durations("transport.update_call", us); len(d) > 0 {
		ms.setMedian("transport.update_call_p50_us", d)
		ms.set("transport.update_call_p99_us", percentile(d, 99), len(d))
	}
	if d := t.durations("transport.http_rtt", us); len(d) > 0 {
		ms.setMedian("transport.http_rtt_p50_us", d)
		ms.set("transport.http_rtt_p99_us", percentile(d, 99), len(d))
	}
	fromSelf("transport.client_codec_us", "transport.update_call", us)
	fromSelf("transport.network_us", "transport.http_rtt", us)
	fromDur("transport.fleet_handle_us", "transport.fleet_handle", us)
	fromSelf("transport.fleet_codec_us", "transport.fleet_handle", us)
	fromDur("transport.fleet_participant_us", "transport.fleet_participant", us)
	fromDur("transport.report_call_us", "transport.report_call", us)
	if calls := len(t.named("transport.update_call")); calls > 0 {
		n := float64(calls)
		req, resp := float64(counts["update.req_bytes"]), float64(counts["update.resp_bytes"])
		ms.set("transport.req_bytes_per_update", req/n, calls)
		ms.set("transport.resp_bytes_per_update", resp/n, calls)
		ms.set("transport.bytes_per_update", (req+resp)/n, calls)
		all := calls + len(t.named("transport.report_call"))
		ms.set("transport.attempts_per_call", float64(counts["update.roundtrips"]+counts["report.roundtrips"])/float64(all), all)
	}
	if reports := len(t.named("transport.report_call")); reports > 0 {
		ms.set("transport.report_req_bytes", float64(counts["report.req_bytes"])/float64(reports), reports)
		ms.set("transport.report_bytes_per_report", float64(counts["report.resp_bytes"])/float64(reports), reports)
	}

	// core and metrics
	fromDur("core.pipeline_ms", "core.pipeline", msec)
	fromSelf("core.pipeline_self_ms", "core.pipeline", msec)
	fromDur("core.report_client_ms", "core.report_client", msec)
	fromDur("core.prune_sweep_ms", "core.prune_sweep", msec)
	fromDur("core.aw_sweep_ms", "core.aw_sweep", msec)
	fromDur("core.finetune_round_ms", "core.finetune_round", msec)
	for _, reportSpan := range []string{"core.report_client", "transport.report_call"} {
		if ext := t.groupExtent(reportSpan, msec); len(ext) > 0 {
			ms.setMedian("core.report_collect_ms", ext)
		}
	}
	fromDur("metrics.evaluate_full_us", "metrics.evaluate_full", us)
	fromDur("metrics.evaluate_suffix_us", "metrics.evaluate_suffix", us)
	if n := len(t.named("metrics.evaluate_full")) + len(t.named("metrics.evaluate_suffix")); n > 0 {
		ms.set("metrics.evaluate_count", float64(n), 1)
	}

	// bench: time under the root that no child span accounts for.
	if ri, ok := t.byID[root]; ok && t.spans[ri].dur() > 0 {
		ms.set("bench.unattributed_pct", 100*float64(t.self(ri))/float64(t.spans[ri].dur()), 1)
	}
}
