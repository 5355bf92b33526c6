package main

// sut.go is the benchmark's only contact with the system under test: no
// other file of this package imports internal/... . Everything here goes
// through constructors, interfaces and fields that the ROADMAP's deletion
// series keeps, so those changes can land without editing the benchmark.
//
// Identifiers used, by package (methods and fields in parentheses):
//
//	core:      DefaultPipelineConfig, PipelineConfig (Method, FineTuneRounds,
//	           FineTunePatience), PruneMethod, RAP, MVP, RunPipeline, Report
//	           (Prune.Steps, AW.Curve, ReportDropouts), GlobalPruneOrderDetail,
//	           PruneOrderResult (Order, Dropped), ReportClient,
//	           FallibleReportClient, ScopedEvaluator, Tuner,
//	           RanksFromActivations, VotesFromActivations, AggregateRanks,
//	           AggregateVotes
//	dataset:   Dataset (Len, BatchInto)
//	eval:      Scenario (Seed, GenCfg, Gen, Backend, ReportQuant, FL, Clients,
//	           PerClient), MNISTScenario, CIFARScenario, Components,
//	           ParticipantFor, Trained (Scenario, Server, Participants, Test,
//	           Validation; TA, AA, ModelTA, ModelAA, ValidationEvaluator)
//	fl:        Config (Rounds, LocalEpochs, SelectPerRound, Quorum, Streaming,
//	           Shards, StreamWindow), Participant, FallibleParticipant,
//	           NewServer, NewRegistryServer, Server (Model, Agg, Audit,
//	           RoundDetail, SetCheckpointer, CheckpointAt, ResumeLatest,
//	           FineTune via core.Tuner), RoundResult (Selected, Completed,
//	           Dropped, Applied, PeakInFlight), RoundAudit, StreamingAggregator,
//	           Fold, MeanAggregator, Registry, NewRegistry (RegisterRange,
//	           Cohort, SampleIDs), SyntheticClient (Id, Seed, Units),
//	           ReportClients, Checkpointer (Dir, EveryRounds, EveryFolds,
//	           WriteFile), AtomicWriteFile, EncodeCheckpoint
//	metrics:   ReportInt8, LocalActivations, QuantActs, RecordQuantActivations
//	nn:        Sequential (Clone, Forward, BackwardParams, ZeroGrads,
//	           ParamsVector, SetParamsVector, NumLayers, Layer, LastConvIndex),
//	           Conv2D (Dims, Filters), Float32, NewSGD, SGD.Step,
//	           SoftmaxXentInto
//	obs:       FlightRecorder (Record, Path, Close), NewFlightRecorder,
//	           NewSpanRing, SpanRing.Append, SpanRecord
//	parallel:  SetWorkers, Workers, For
//	tensor:    Tensor (Shape, Data, Randn), New, Arena, ConvDims (C, H, W, K,
//	           OutH, OutW), MatMulInto, Im2Col
//	transport: Fleet, NewFleet (Add, Serve, Handler, Shutdown, Err),
//	           FleetClientAddr, RemoteClient, NewRemoteClient, WithTransport
//	           (ID, TryLocalUpdate, TryRankReport, TryVoteReport),
//	           AppendVersionedUpdate, DecodeVersionedUpdate, AppendRanksDelta,
//	           DecodeRanksDelta, AppendVoteBitmap, DecodeVoteBitmap
//	wire:      NewEncoder (Section, Bytes), KindUpdate, AppendFloat64s,
//	           DecodeKind

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/eval"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
	"github.com/fedcleanse/fedcleanse/internal/transport"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Seeds derived from -seed, at the offsets the program's own drivers use
// (eval scenarios seed the server at Seed+300, fedserve draws its report
// cohort at Seed+400).
const (
	genSeedOffset    = 10
	serverSeedOffset = 300
	cohortSeedOffset = 400
)

// pinWorkers fixes the worker pool at the CPU count, whatever
// FEDCLEANSE_WORKERS says, and returns the count.
func pinWorkers() int {
	parallel.SetWorkers(runtime.NumCPU())
	return parallel.Workers()
}

// runWorkload runs one workload, untraced or traced.
func runWorkload(spec runSpec) (*runResult, error) {
	switch spec.Workload {
	case "cleanse_mnist_f64", "cleanse_cifar_f32":
		return runCleanse(spec)
	case "wire_batch", "wire_stream_durable":
		return runWire(spec)
	}
	return nil, fmt.Errorf("unknown workload %q", spec.Workload)
}

// ---------------------------------------------------------------------------
// cleanse_* : train a backdoored federation in process, then defend it
// ---------------------------------------------------------------------------

// cleanseConfig is one cleanse workload: the scenario, the defense and how
// many reps fill the measured seconds.
type cleanseConfig struct {
	scenario eval.Scenario
	defense  core.PipelineConfig
	// repSeconds is what one rep takes on the 2-core reference host. The rep
	// count is seconds/repSeconds, at least two: fixed by the flag and not by
	// how fast this host happens to be, so two commits always run the same
	// amount of work.
	repSeconds float64
}

func (c *cleanseConfig) reps(seconds float64) int {
	if n := int(seconds/c.repSeconds + 0.5); n > 2 {
		return n
	}
	return 2
}

func cleanseConfigFor(spec runSpec) cleanseConfig {
	var c cleanseConfig
	c.defense = core.DefaultPipelineConfig()
	switch spec.Workload {
	case "cleanse_mnist_f64":
		c.scenario = eval.MNISTScenario(9, 2)
		// Patience = rounds pins fine-tuning at five rounds; the default
		// early stop makes it three to nine depending on the seed.
		c.defense.FineTuneRounds, c.defense.FineTunePatience = 5, 5
		c.repSeconds = 9
	case "cleanse_cifar_f32":
		c.scenario = eval.CIFARScenario(9, 2)
		c.scenario.Backend = nn.Float32
		c.scenario.ReportQuant = metrics.ReportInt8
		c.scenario.FL.Rounds = 4
		c.defense.FineTuneRounds, c.defense.FineTunePatience = 2, 2
		c.repSeconds = 14
	}
	c.scenario.Seed = spec.Seed
	c.scenario.GenCfg.Seed = spec.Seed + genSeedOffset
	if spec.Toy {
		c.scenario.GenCfg.TrainPerClass, c.scenario.GenCfg.TestPerClass = 40, 20
		c.scenario.PerClient = 20
		c.scenario.FL.Rounds = 2
		c.defense.FineTuneRounds, c.defense.FineTunePatience = 1, 1
	}
	return c
}

// cleanseBuild is one freshly built federation.
type cleanseBuild struct {
	trained *eval.Trained
	// reporters, tuner and guard are the three seams the defense pipeline
	// takes; the traced pass wraps each.
	reporters []core.ReportClient
	tuner     core.Tuner
	guard     core.ScopedEvaluator
}

// build assembles the scenario the way eval.Build does, from the same public
// pieces, so the traced pass can put its wrappers between them.
func (c *cleanseConfig) build(tr *tracer) *cleanseBuild {
	s := c.scenario
	template, shards, test, validation := eval.Components(s)
	parts := make([]fl.Participant, s.Clients)
	for i := range parts {
		parts[i] = eval.ParticipantFor(s, i, template, shards[i])
		if tr != nil {
			parts[i] = &tracedParticipant{Participant: parts[i], reports: parts[i].(core.ReportClient), tr: tr}
		}
	}
	server := fl.NewServer(template, parts, s.FL, s.Seed+serverSeedOffset)
	b := &cleanseBuild{
		trained: &eval.Trained{Scenario: s, Server: server, Participants: parts, Test: test, Validation: validation},
		tuner:   server,
	}
	b.reporters = fl.ReportClients(parts)
	b.guard = b.trained.ValidationEvaluator()
	if tr != nil {
		server.Agg = &tracedAggregator{inner: fl.MeanAggregator{}, tr: tr}
		b.tuner = tracedTuner{inner: server, tr: tr}
		b.guard = &tracedEvaluator{inner: b.guard, tr: tr}
	}
	return b
}

// cleanseRepOut is what one rep leaves behind besides its timings.
type cleanseRepOut struct {
	model               *nn.Sequential
	hash                uint64
	taBefore, taAfter   float64
	asrBefore, asrAfter float64
	report              core.Report
}

// rep builds, trains and defends once, adding its timings to sec and its
// operations to led.
func (c *cleanseConfig) rep(tr *tracer, sec *section, led *ledger) (out cleanseRepOut) {
	sec.reps.measure(func() {
		tr.within("bench.rep", func() { out = c.timedRep(tr, sec, led) })
	})
	v := out.model.ParamsVector()
	out.hash = hashFloats(v)
	led.check(allFinite(v), "defended model has non-finite parameters")
	led.check(out.taAfter >= out.taBefore-maxTADropPts,
		"defense cost %.1f points of test accuracy (%.1f -> %.1f), more than %d",
		out.taBefore-out.taAfter, out.taBefore, out.taAfter, maxTADropPts)
	return out
}

func (c *cleanseConfig) timedRep(tr *tracer, sec *section, led *ledger) (out cleanseRepOut) {
	var b *cleanseBuild
	tr.span("bench.build", func() { b = c.build(tr) })
	server := b.trained.Server

	sec.rounds.begin()
	for t := 0; t < c.scenario.FL.Rounds; t++ {
		sec.rounds.round(func() (completed int) {
			tr.within("fl.round", func() {
				res := server.RoundDetail(t)
				led.ops(len(res.Selected), len(res.Dropped), "client updates")
				led.check(res.Applied, "training round %d not applied", t)
				completed = len(res.Completed)
			})
			return completed
		})
		if tr != nil {
			sampleHeap(tr)
		}
	}
	sec.rounds.end()

	tr.span("bench.accuracy_probe", func() { out.taBefore, out.asrBefore = b.trained.TA(), b.trained.AA() })
	sec.defense.measure(func() {
		tr.within("core.pipeline", func() {
			out.model = server.Model.Clone()
			out.report = core.RunPipeline(out.model, b.reporters, b.tuner, b.guard, c.defense)
		})
	})
	led.ops(len(b.reporters), len(out.report.ReportDropouts), "prune reports")
	tr.span("bench.accuracy_probe", func() {
		out.taAfter, out.asrAfter = b.trained.ModelTA(out.model), b.trained.ModelAA(out.model)
	})
	return out
}

// maxTADropPts is how many points of test accuracy the defense may cost
// before a rep counts as failed. The pipeline itself budgets 2 + 6 points on
// the validation slice; on the disjoint test slice single seeds lose up to
// ~15, so the gate sits above that and below a broken model.
const maxTADropPts = 25

func runCleanse(spec runSpec) (*runResult, error) {
	workers := pinWorkers()
	c := cleanseConfigFor(spec)
	led := &ledger{}
	res := &runResult{Workload: spec.Workload, Seed: spec.Seed, Traced: spec.Trace, Info: map[string]any{}}

	// Set-up: generate the data, build the federation, run one warm-up round
	// on a build that is then thrown away (each rep builds its own).
	untraced := newSection(nil)
	for i := 0; i < spec.setups(); i++ {
		untraced.setups.measure(func() { c.build(nil).trained.Server.RoundDetail(0) })
	}

	// The traced pass runs untraced, traced, untraced: the first rep of a
	// process is its slowest, and the host drifts, so the traced rep is
	// compared with the mean of the reps on either side of it.
	n := c.reps(spec.Seconds)
	if spec.Trace || spec.Toy {
		n = 1
	}
	var reps []cleanseRepOut
	for len(reps) < n {
		reps = append(reps, c.rep(nil, untraced, led))
	}

	if spec.Trace {
		tr := newTracer()
		traced := newSection(tr)
		closeRoot := tr.openRoot()
		tr.op.Store(int64(len(reps)))
		reps = append(reps, c.rep(tr, traced, led))
		closeRoot()
		if !spec.Toy {
			reps = append(reps, c.rep(nil, untraced, led))
		}

		ms := newMetricSet(perLayer)
		ms.set("core.prune_steps", float64(len(reps[0].report.Prune.Steps)), 1)
		ms.set("core.aw_steps", float64(len(reps[0].report.AW.Curve)), 1)
		ms.set("bench.cleanse_s", traced.reps.values(1e9, false)[0], 1)
		ms.set("bench.host_speed", traced.speedIndex(), len(traced.reps.log.ns))
		plain, withTrace := median(untraced.reps.values(1e9, true)), traced.reps.values(1e9, true)[0]
		ms.set("bench.trace_overhead_pct", 100*(withTrace-plain)/plain, len(untraced.reps.ops))
		template, shards, _, _ := eval.Components(c.scenario)
		samplesPerRound := 0
		for _, sh := range shards {
			samplesPerRound += sh.Len() * c.scenario.FL.LocalEpochs
		}
		roundS := traced.rounds.rounds.values(1e9, false)
		ms.set("fl.train_samples_per_s", float64(samplesPerRound)/median(roundS), len(roundS))
		runModelProbes(ms, template, shards[len(shards)-1], c.scenario)
		if err := finishTrace(res, spec, tr, ms, workers); err != nil {
			return nil, err
		}
	}

	res.setEndToEnd(untraced)

	// Every rep starts from the same seed, so every defended model — traced
	// or not — must be the same bits.
	var hashes []string
	var ta, asr []string
	for i, r := range reps {
		hashes = append(hashes, fmt.Sprintf("%016x", r.hash))
		ta = append(ta, fmt.Sprintf("%.1f->%.1f", r.taBefore, r.taAfter))
		asr = append(asr, fmt.Sprintf("%.1f->%.1f", r.asrBefore, r.asrAfter))
		if i > 0 {
			led.check(r.hash == reps[0].hash, "rep %d defended-model hash %016x differs from rep 0 %016x", i, r.hash, reps[0].hash)
		}
	}
	led.ops(len(reps), 0, "reps")
	res.Info["defended_model_hash"] = hashes
	res.Info["ta_pct_before_after"] = ta
	res.Info["asr_pct_before_after"] = asr
	res.Info["reps"] = len(reps)
	res.Info["rounds_per_rep"] = c.scenario.FL.Rounds
	res.Info["finetune_rounds"] = c.defense.FineTuneRounds
	res.Info["workers"] = workers
	res.setLedger(led)
	return res, nil
}

// tracedParticipant times an in-process client's update and its defense
// reports.
type tracedParticipant struct {
	fl.Participant
	reports core.ReportClient
	tr      *tracer
}

func (p *tracedParticipant) LocalUpdate(global []float64, round int) []float64 {
	id := p.tr.begin("fl.local_update", 0)
	defer p.tr.end(id)
	return p.Participant.LocalUpdate(global, round)
}

func (p *tracedParticipant) RankReport(m *nn.Sequential, layerIdx int) []int {
	id := p.tr.begin("core.report_client", 0)
	defer p.tr.end(id)
	return p.reports.RankReport(m, layerIdx)
}

func (p *tracedParticipant) VoteReport(m *nn.Sequential, layerIdx int, rate float64) []bool {
	id := p.tr.begin("core.report_client", 0)
	defer p.tr.end(id)
	return p.reports.VoteReport(m, layerIdx, rate)
}

// tracedAggregator times the server's aggregation rule: the one batch
// Aggregate call, or each streaming Fold.
//
// The server snapshots a fold for partial checkpoints through an interface
// it does not export, which a wrapped Fold cannot forward. So streaming
// rounds alternate: even ones get the inner fold untouched (partial
// checkpoints are written and the checkpoint metrics sampled), odd ones get
// the timed fold (fold metrics sampled, no partial checkpoints that round).
type tracedAggregator struct {
	inner fl.StreamingAggregator
	tr    *tracer
	wt    *wireTrace
	folds int
}

func (a *tracedAggregator) Aggregate(deltas [][]float64) []float64 {
	id := a.tr.begin("fl.aggregate", 0)
	defer a.tr.end(id)
	return a.inner.Aggregate(deltas)
}

func (a *tracedAggregator) BeginFold(dim, shards int, scratch *tensor.Arena) fl.Fold {
	f := a.inner.BeginFold(dim, shards, scratch)
	a.folds++
	if a.folds%2 == 1 {
		return f
	}
	return &tracedFold{inner: f, tr: a.tr, wt: a.wt}
}

type tracedFold struct {
	inner fl.Fold
	tr    *tracer
	wt    *wireTrace
}

func (f *tracedFold) Fold(id int, delta []float64) {
	if f.wt != nil {
		if v, ok := f.wt.updateEnd.LoadAndDelete(id); ok {
			// An entry left by a round whose fold was not timed is stale.
			if done := v.(updateDone); done.op == f.tr.op.Load() {
				f.tr.sample("fl.fold_wait_us", float64(f.tr.now()-done.at)/1e3)
			}
		}
	}
	sid := f.tr.begin("fl.fold", 0)
	f.inner.Fold(id, delta)
	f.tr.end(sid)
}

func (f *tracedFold) Finish() []float64 {
	id := f.tr.begin("fl.fold_finish", 0)
	defer f.tr.end(id)
	return f.inner.Finish()
}

// tracedTuner times each fine-tuning round the pipeline asks for.
type tracedTuner struct {
	inner core.Tuner
	tr    *tracer
}

func (t tracedTuner) FineTune(m *nn.Sequential, rounds int) {
	_, done := t.tr.enter("core.finetune_round")
	defer done()
	t.inner.FineTune(m, rounds)
}

// tracedEvaluator times the accuracy guard: full evaluations, and the prune
// and adjust-weights sweeps with the suffix evaluations inside them.
type tracedEvaluator struct {
	inner      core.ScopedEvaluator
	tr         *tracer
	closeScope func()
}

func (e *tracedEvaluator) Evaluate(m *nn.Sequential) float64 {
	name := "metrics.evaluate_full"
	if e.closeScope != nil {
		name = "metrics.evaluate_suffix"
	}
	id := e.tr.begin(name, 0)
	defer e.tr.end(id)
	return e.inner.Evaluate(m)
}

func (e *tracedEvaluator) BeginSuffix(m *nn.Sequential, layerIdx int) {
	_, e.closeScope = e.tr.enter("core.aw_sweep")
	e.inner.BeginSuffix(m, layerIdx)
}

func (e *tracedEvaluator) BeginPrune(m *nn.Sequential, layerIdx int) {
	_, e.closeScope = e.tr.enter("core.prune_sweep")
	e.inner.BeginPrune(m, layerIdx)
}

func (e *tracedEvaluator) EndScope() {
	e.inner.EndScope()
	if e.closeScope != nil {
		e.closeScope()
		e.closeScope = nil
	}
}

// ---------------------------------------------------------------------------
// wire_* : a registry server driving a fleet of synthetic clients over HTTP
// ---------------------------------------------------------------------------

// wireConfig is one wire workload.
type wireConfig struct {
	fleetSize    int
	fl           fl.Config
	durable      bool
	everyFolds   int
	warmup       int
	reportCohort int
	// roundShare is the share of the measured seconds spent on rounds; the
	// rest goes to report collection.
	roundShare     float64
	minCollections int
	// toyRounds, when set, fixes the round count instead of timing it.
	toyRounds int
}

func wireConfigFor(spec runSpec, workers int) wireConfig {
	w := wireConfig{
		fleetSize:      10000,
		warmup:         5,
		reportCohort:   256,
		roundShare:     0.75,
		minCollections: 5,
	}
	switch spec.Workload {
	case "wire_batch":
		// What `fedserve -fleet` does with no extra flags, plus a quorum.
		w.fl = fl.Config{SelectPerRound: 64, Quorum: 0.9}
	case "wire_stream_durable":
		// The scripts/load_smoke.sh configuration: streaming fold under a
		// window, a checkpoint every round and every 16 folds, a live flight
		// recorder.
		w.fl = fl.Config{SelectPerRound: 64, Quorum: 0.9, Streaming: true, Shards: workers, StreamWindow: workers}
		w.durable = true
		w.everyFolds = 16
	}
	if spec.Toy {
		w.fleetSize, w.warmup, w.reportCohort, w.minCollections, w.toyRounds = 200, 1, 32, 1, 2
		w.fl.SelectPerRound = 16
		if w.durable {
			w.everyFolds = 4
		}
	}
	return w
}

// reportUnits is the width of the synthetic clients' canned activation
// reports (the fleet holds no model, so it is not tied to the template's
// layer), and so the length of every prune order collected from them.
const reportUnits = 64

// wireTrace is what the traced wire wrappers share: which handler span is
// serving each client, and when each client's update call returned.
type wireTrace struct {
	handler   sync.Map // client id -> spanID of the fleet handler serving it
	updateEnd sync.Map // client id -> updateDone of its latest update call
}

// updateDone is when (tracer time) a client's update call returned, and in
// which round.
type updateDone struct {
	op int64
	at int64
}

// wireSUT is one fleet plus the server driving it.
type wireSUT struct {
	cfg      wireConfig
	seed     int64
	tr       *tracer
	template *nn.Sequential
	shard    *dataset.Dataset
	scenario eval.Scenario

	fleet    *transport.Fleet
	httpSrv  *http.Server // traced pass: the benchmark's own server over Fleet.Handler
	httpDone chan error
	registry *fl.Registry
	server   *fl.Server
	dir      string
	flight   *obs.FlightRecorder
	nextRnd  int
}

// newWireSUT is the wire workloads' set-up: build the template, host the
// fleet on a loopback listener, build the registry server (with checkpoints
// and audit when durable) and run the warm-up rounds.
func newWireSUT(cfg wireConfig, spec runSpec, tr *tracer) (*wireSUT, error) {
	w := &wireSUT{cfg: cfg, seed: spec.Seed, tr: tr}
	w.scenario = eval.MNISTScenario(9, 2)
	w.scenario.Seed = spec.Seed
	w.scenario.GenCfg.Seed = spec.Seed + genSeedOffset
	if spec.Toy {
		w.scenario.GenCfg.TrainPerClass, w.scenario.GenCfg.TestPerClass = 40, 20
		w.scenario.PerClient = 20
	}
	template, shards, _, _ := eval.Components(w.scenario)
	w.template, w.shard = template, shards[len(shards)-1]

	var wt *wireTrace
	if tr != nil {
		wt = &wireTrace{}
	}
	w.fleet = transport.NewFleet()
	for id := 0; id < cfg.fleetSize; id++ {
		sc := &fl.SyntheticClient{Id: id, Seed: spec.Seed, Units: reportUnits}
		if tr != nil {
			w.fleet.Add(&tracedSynthetic{SyntheticClient: sc, tr: tr, wt: wt})
		} else {
			w.fleet.Add(sc)
		}
	}
	var addr string
	if tr == nil {
		a, err := w.fleet.Serve("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr = a
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		addr = ln.Addr().String()
		w.httpSrv = &http.Server{Handler: traceFleetHandler(w.fleet.Handler(), tr, wt), ReadHeaderTimeout: 10 * time.Second}
		w.httpDone = make(chan error, 1)
		go func() { w.httpDone <- w.httpSrv.Serve(ln) }()
	}

	var rt http.RoundTripper
	if tr != nil {
		rt = &tracedRoundTripper{next: http.DefaultTransport, tr: tr}
	}
	w.registry = fl.NewRegistry(func(id int) fl.Participant {
		if tr == nil {
			return transport.NewRemoteClient(id, transport.FleetClientAddr(addr, id))
		}
		rc := transport.NewRemoteClient(id, transport.FleetClientAddr(addr, id), transport.WithTransport(rt))
		return &tracedStub{rc: rc, tr: tr, wt: wt}
	})
	w.registry.RegisterRange(0, cfg.fleetSize)
	w.server = w.newServer()
	if tr != nil {
		w.server.Agg = &tracedAggregator{inner: fl.MeanAggregator{}, tr: tr, wt: wt}
	}
	if cfg.durable {
		dir, err := os.MkdirTemp(spec.OutDir, "durable-")
		if err != nil {
			w.close()
			return nil, err
		}
		w.dir = dir
		ck := &fl.Checkpointer{Dir: dir, EveryRounds: 1, EveryFolds: cfg.everyFolds}
		if tr != nil {
			ck.WriteFile = func(path string, data []byte) error {
				id := tr.begin("fl.checkpoint_write", 0)
				defer tr.end(id)
				tr.sample("fl.checkpoint_bytes", float64(len(data)))
				return fl.AtomicWriteFile(path, data)
			}
		}
		w.server.SetCheckpointer(ck)
		w.flight, err = obs.NewFlightRecorder(filepath.Join(dir, "flight.jsonl"), 0)
		if err != nil {
			w.close()
			return nil, err
		}
		w.server.Audit = w.flight
	}
	for ; w.nextRnd < cfg.warmup; w.nextRnd++ {
		if res := w.server.RoundDetail(w.nextRnd); !res.Applied {
			w.close()
			return nil, fmt.Errorf("warm-up round %d not applied (%d of %d updates)", w.nextRnd, len(res.Completed), len(res.Selected))
		}
	}
	if tr != nil {
		tr.reset() // the warm-up rounds are set-up, not part of the traced section
	}
	return w, nil
}

// newServer builds a registry server over the SUT's template, population and
// config; the durable check builds a second one to resume into.
func (w *wireSUT) newServer() *fl.Server {
	return fl.NewRegistryServer(w.template, w.registry, w.cfg.fl, w.seed+serverSeedOffset)
}

// close stops the fleet, waits for its listener goroutine and removes the
// scratch directory.
func (w *wireSUT) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if w.httpSrv != nil {
		_ = w.httpSrv.Shutdown(ctx) // best effort: the process is about to drop the listener anyway
		<-w.httpDone
	} else if w.fleet != nil {
		_ = w.fleet.Shutdown(ctx)
		if errc := w.fleet.Err(); errc != nil {
			<-errc
		}
	}
	if w.flight != nil {
		_ = w.flight.Close()
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
	}
}

// runRounds drives measured rounds until the deadline (or the toy count) and
// returns how many it ran.
func (w *wireSUT) runRounds(seconds float64, sec *section, led *ledger) int {
	start := time.Now()
	n := 0
	sec.rounds.begin()
	for {
		if w.cfg.toyRounds > 0 {
			if n >= w.cfg.toyRounds {
				break
			}
		} else if time.Since(start).Seconds() >= seconds {
			break
		}
		t := w.nextRnd
		w.nextRnd++
		n++
		if w.tr != nil {
			w.tr.op.Store(int64(t))
		}
		var res fl.RoundResult
		sec.rounds.round(func() int {
			w.tr.within("fl.round", func() { res = w.server.RoundDetail(t) })
			return len(res.Completed)
		})
		led.ops(len(res.Selected), len(res.Dropped), "client updates")
		led.check(res.Applied, "round %d not applied", t)
		if w.tr != nil {
			w.tr.sample("fl.peak_inflight", float64(res.PeakInFlight))
			sampleHeap(w.tr)
		}
	}
	sec.rounds.end()
	return n
}

// collect runs the defense's wire stage once: one RAP and one MVP report
// collection over a seeded cohort, as fedserve's fleet mode does after
// training. Synthetic clients carry no signal to prune, so the pipeline
// stops there.
func (w *wireSUT) collect(sec *section, led *ledger) {
	parts := w.registry.Cohort(w.cfg.reportCohort, rand.New(rand.NewSource(w.seed+cohortSeedOffset)))
	reporters := fl.ReportClients(parts)
	layer := w.template.LastConvIndex()
	sec.defense.measure(func() { w.collectOnce(reporters, layer, led) })
}

func (w *wireSUT) collectOnce(reporters []core.ReportClient, layer int, led *ledger) {
	for _, method := range []core.PruneMethod{core.RAP, core.MVP} {
		cfg := core.DefaultPipelineConfig()
		cfg.Method = method
		var res core.PruneOrderResult
		w.tr.within("bench.collect", func() {
			res = core.GlobalPruneOrderDetail(w.server.Model, reporters, layer, cfg)
		})
		led.ops(len(reporters), len(res.Dropped), method.String()+" reports")
		led.check(isPermutation(res.Order, reportUnits), "%s prune order is not a permutation of %d units", method, reportUnits)
	}
}

// measure runs one measured section: rounds for their share of the seconds,
// then collections until the seconds are up.
func (w *wireSUT) measure(seconds float64, sec *section, led *ledger) {
	start := time.Now()
	w.runRounds(seconds*w.cfg.roundShare, sec, led)
	for n := 0; n < w.cfg.minCollections || (w.cfg.toyRounds == 0 && time.Since(start).Seconds() < seconds); n++ {
		w.collect(sec, led)
	}
}

// referenceHash replays the same seeded cohorts in process — no HTTP, batch
// aggregation — for the given number of rounds and returns the global
// model's hash. Equal hashes mean the wire moved every update bit-exactly
// and, for the streaming workload, that streaming folded to the batch sum.
func (w *wireSUT) referenceHash(rounds int) uint64 {
	reg := fl.NewRegistry(func(id int) fl.Participant {
		return &fl.SyntheticClient{Id: id, Seed: w.seed}
	})
	reg.RegisterRange(0, w.cfg.fleetSize)
	ref := fl.NewRegistryServer(w.template, reg,
		fl.Config{SelectPerRound: w.cfg.fl.SelectPerRound, Quorum: w.cfg.fl.Quorum}, w.seed+serverSeedOffset)
	for t := 0; t < rounds; t++ {
		ref.RoundDetail(t)
	}
	return hashFloats(ref.Model.ParamsVector())
}

// verify checks the server's model against the in-process replay, and the
// checkpoint directory when there is one; it returns the model's hash.
func (w *wireSUT) verify(led *ledger) uint64 {
	hash := hashFloats(w.server.Model.ParamsVector())
	led.check(hash == w.referenceHash(w.nextRnd),
		"global model after %d wire rounds differs from the in-process replay", w.nextRnd)
	if w.cfg.durable {
		w.checkDurable(led)
	}
	return hash
}

// checkDurable resumes a fresh server from the checkpoint directory: it must
// land on the round after the last one run, holding the same model.
func (w *wireSUT) checkDurable(led *ledger) {
	fresh := w.newServer()
	next, resumed, err := fresh.ResumeLatest(w.dir)
	led.check(err == nil && resumed, "resume from %s: resumed=%v err=%v", w.dir, resumed, err)
	led.check(next == w.nextRnd, "resumed at round %d, want %d", next, w.nextRnd)
	got, want := hashFloats(fresh.Model.ParamsVector()), hashFloats(w.server.Model.ParamsVector())
	led.check(got == want, "resumed model hash %016x, live model %016x", got, want)
}

func runWire(spec runSpec) (*runResult, error) {
	workers := pinWorkers()
	cfg := wireConfigFor(spec, workers)
	led := &ledger{}
	res := &runResult{Workload: spec.Workload, Seed: spec.Seed, Traced: spec.Trace, Info: map[string]any{}}

	untraced := newSection(nil)
	var sut *wireSUT
	for i := 0; i < spec.setups(); i++ {
		if sut != nil {
			sut.close()
		}
		var err error
		untraced.setups.measure(func() { sut, err = newWireSUT(cfg, spec, nil) })
		if err != nil {
			return nil, err
		}
	}

	defer sut.close()
	seconds := spec.Seconds
	if spec.Trace {
		// Untraced, traced, untraced, a third of the seconds each: a process's
		// first rounds are its slowest and the host drifts, so the traced
		// third is compared with the two around it.
		seconds /= 3
	}
	sut.measure(seconds, untraced, led)

	if spec.Trace {
		tr := newTracer()
		tsut, err := newWireSUT(cfg, spec, tr)
		if err != nil {
			return nil, err
		}
		defer tsut.close()
		traced := newSection(tr)
		var auditBefore int64
		if tsut.flight != nil {
			auditBefore = fileSize(tsut.flight.Path())
		}
		closeRoot := tr.openRoot()
		tsut.measure(seconds, traced, led)
		closeRoot()
		// The wrappers must not have changed a bit of the traced server's
		// model either.
		tsut.verify(led)

		sut.measure(seconds, untraced, led)

		ms := newMetricSet(perLayer)
		rounds := len(traced.rounds.rounds.ops)
		if tsut.flight != nil && rounds > 0 {
			ms.set("obs.audit_bytes_per_round", float64(fileSize(tsut.flight.Path())-auditBefore)/float64(rounds), rounds)
		}
		ms.set("bench.host_speed", traced.speedIndex(), len(traced.reps.log.ns))
		plain := endToEndMetrics(untraced, true)["updates_per_s"].Value
		withTrace := endToEndMetrics(traced, true)["updates_per_s"].Value
		ms.set("bench.trace_overhead_pct", 100*(plain-withTrace)/plain, rounds)
		runModelProbes(ms, tsut.template, tsut.shard, tsut.scenario)
		tsut.runWireProbes(ms)
		res.Info["traced_rounds"] = rounds
		if err := finishTrace(res, spec, tr, ms, workers); err != nil {
			return nil, err
		}
	}

	res.setEndToEnd(untraced)
	res.Info["global_model_hash"] = fmt.Sprintf("%016x", sut.verify(led))
	res.Info["rounds"] = len(untraced.rounds.rounds.ops)
	res.Info["collections"] = len(untraced.defense.ops)
	res.Info["fleet"] = cfg.fleetSize
	res.Info["select_per_round"] = cfg.fl.SelectPerRound
	res.Info["report_cohort"] = cfg.reportCohort
	res.Info["workers"] = workers
	res.setLedger(led)
	return res, nil
}

// sampleHeap records the heap in use, for the traced pass's peak.
func sampleHeap(tr *tracer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tr.sample("fl.heap_inuse_mb", float64(ms.HeapInuse)/(1<<20))
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// spanKey carries the caller's span through a request context, from the stub
// wrapper to the RoundTripper.
type spanKey struct{}

// spanHeader carries the RoundTripper's span to the fleet-side middleware.
const spanHeader = "Bench-Span"

// tracedStub times the server-side stub of one remote client. It forwards
// only the fallible, context-taking calls; the infallible methods the
// Participant and ReportClient interfaces still require degrade to nil the
// way the program's own do.
type tracedStub struct {
	rc *transport.RemoteClient
	tr *tracer
	wt *wireTrace
}

var (
	_ fl.FallibleParticipant    = (*tracedStub)(nil)
	_ core.FallibleReportClient = (*tracedStub)(nil)
)

func (s *tracedStub) ID() int                   { return s.rc.ID() }
func (s *tracedStub) Dataset() *dataset.Dataset { return nil }

func (s *tracedStub) TryLocalUpdate(ctx context.Context, global []float64, round int) ([]float64, error) {
	id := s.tr.begin("transport.update_call", 0)
	d, err := s.rc.TryLocalUpdate(context.WithValue(ctx, spanKey{}, id), global, round)
	s.tr.end(id)
	if err == nil {
		s.wt.updateEnd.Store(s.rc.ID(), updateDone{op: s.tr.op.Load(), at: s.tr.now()})
	}
	return d, err
}

func (s *tracedStub) LocalUpdate(global []float64, round int) []float64 {
	d, err := s.TryLocalUpdate(context.Background(), global, round)
	if err != nil {
		return nil
	}
	return d
}

func (s *tracedStub) TryRankReport(ctx context.Context, m *nn.Sequential, layerIdx int) ([]int, error) {
	id := s.tr.begin("transport.report_call", 0)
	defer s.tr.end(id)
	return s.rc.TryRankReport(context.WithValue(ctx, spanKey{}, id), m, layerIdx)
}

func (s *tracedStub) TryVoteReport(ctx context.Context, m *nn.Sequential, layerIdx int, p float64) ([]bool, error) {
	id := s.tr.begin("transport.report_call", 0)
	defer s.tr.end(id)
	return s.rc.TryVoteReport(context.WithValue(ctx, spanKey{}, id), m, layerIdx, p)
}

func (s *tracedStub) RankReport(m *nn.Sequential, layerIdx int) []int {
	r, err := s.TryRankReport(context.Background(), m, layerIdx)
	if err != nil {
		return nil
	}
	return r
}

func (s *tracedStub) VoteReport(m *nn.Sequential, layerIdx int, p float64) []bool {
	v, err := s.TryVoteReport(context.Background(), m, layerIdx, p)
	if err != nil {
		return nil
	}
	return v
}

// isUpdatePath tells update exchanges from report exchanges.
func isUpdatePath(path string) bool { return strings.HasSuffix(path, "/v1/update") }

// tracedRoundTripper times each HTTP exchange from the request leaving to the
// response body being closed, and counts the body bytes both ways.
type tracedRoundTripper struct {
	next http.RoundTripper
	tr   *tracer
}

func (rt *tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := "report"
	name := "transport.report_rtt"
	if isUpdatePath(req.URL.Path) {
		kind, name = "update", "transport.http_rtt"
	}
	parent, _ := req.Context().Value(spanKey{}).(spanID)
	id := rt.tr.begin(name, parent)
	out := req.Clone(req.Context()) // a RoundTripper must not modify the caller's request
	out.Header.Set(spanHeader, strconv.Itoa(int(id)))
	rt.tr.count(kind+".roundtrips", 1)
	rt.tr.count(kind+".req_bytes", req.ContentLength)
	resp, err := rt.next.RoundTrip(out)
	if err != nil {
		rt.tr.end(id)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, done: func(n int64) {
		rt.tr.end(id)
		rt.tr.count(kind+".resp_bytes", n)
	}}
	return resp, nil
}

// tracedBody counts a response body and reports when it is closed.
type tracedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// traceFleetHandler is the middleware over Fleet.Handler(): it times each
// request on the serving side, parented to the RoundTripper span that sent
// it, and publishes its span for the participant it is about to call.
func traceFleetHandler(next http.Handler, tr *tracer, wt *wireTrace) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "transport.fleet_report_handle"
		if isUpdatePath(r.URL.Path) {
			name = "transport.fleet_handle"
		}
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id := tr.begin(name, spanID(parent))
		defer tr.end(id)
		// /c/<id>/v1/...: the fleet serializes calls per client, so one
		// handler span per client id is live at a time.
		if rest, ok := strings.CutPrefix(r.URL.Path, "/c/"); ok {
			if idStr, _, ok := strings.Cut(rest, "/"); ok {
				if cid, err := strconv.Atoi(idStr); err == nil {
					wt.handler.Store(cid, id)
					defer wt.handler.Delete(cid)
				}
			}
		}
		next.ServeHTTP(w, r)
	})
}

// tracedSynthetic times the load generator itself — the synthetic client the
// fleet calls — so its cost can be subtracted from the handler's.
type tracedSynthetic struct {
	*fl.SyntheticClient
	tr *tracer
	wt *wireTrace
}

func (s *tracedSynthetic) begin(name string) spanID {
	parent, _ := s.wt.handler.Load(s.Id)
	p, _ := parent.(spanID)
	return s.tr.begin(name, p)
}

func (s *tracedSynthetic) LocalUpdate(global []float64, round int) []float64 {
	id := s.begin("transport.fleet_participant")
	defer s.tr.end(id)
	return s.SyntheticClient.LocalUpdate(global, round)
}

func (s *tracedSynthetic) RankReport(m *nn.Sequential, layerIdx int) []int {
	id := s.begin("transport.fleet_report_participant")
	defer s.tr.end(id)
	return s.SyntheticClient.RankReport(m, layerIdx)
}

func (s *tracedSynthetic) VoteReport(m *nn.Sequential, layerIdx int, p float64) []bool {
	id := s.begin("transport.fleet_report_participant")
	defer s.tr.end(id)
	return s.SyntheticClient.VoteReport(m, layerIdx, p)
}

// ---------------------------------------------------------------------------
// probes: timed direct calls into single layers
// ---------------------------------------------------------------------------

// probeSamples is how many timed calls back each probe metric.
const probeSamples = 20

// runModelProbes times nn, tensor, dataset, metrics, core and parallel
// functions on the workload's model, backend and batch size.
func runModelProbes(ms *metricSet, template *nn.Sequential, shard *dataset.Dataset, s eval.Scenario) {
	const batch = 20
	m := template.Clone()
	x, labels := shard.BatchInto(0, batch, nil, nil)
	opt := nn.NewSGD(0.05, 0, 1e-4)
	var dlogits *tensor.Tensor
	var fwd, loss, bwd, sgd, step []float64
	var allocs0 runtime.MemStats
	const warm = 5
	for i := 0; i < warm+probeSamples; i++ {
		if i == warm {
			runtime.ReadMemStats(&allocs0)
		}
		t0 := time.Now()
		m.ZeroGrads()
		logits := m.Forward(x, true)
		t1 := time.Now()
		if dlogits == nil {
			dlogits = tensor.New(logits.Shape()...)
		}
		nn.SoftmaxXentInto(dlogits, logits, labels)
		t2 := time.Now()
		m.BackwardParams(dlogits)
		t3 := time.Now()
		opt.Step(m)
		t4 := time.Now()
		if i >= warm {
			us := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e3 }
			fwd, loss, bwd = append(fwd, us(t0, t1)), append(loss, us(t1, t2)), append(bwd, us(t2, t3))
			sgd, step = append(sgd, us(t3, t4)), append(step, us(t0, t4))
		}
	}
	var allocs1 runtime.MemStats
	runtime.ReadMemStats(&allocs1)
	ms.setMedian("nn.train_step_us", step)
	ms.setMedian("nn.forward_train_us", fwd)
	ms.setMedian("nn.loss_us", loss)
	ms.setMedian("nn.backward_us", bwd)
	ms.setMedian("nn.sgd_step_us", sgd)
	ms.set("nn.train_step_allocs", float64(allocs1.Mallocs-allocs0.Mallocs)/probeSamples, probeSamples)
	ms.setMedian("nn.forward_eval_us", timeCalls(warm, probeSamples, 1e3, func() { m.Forward(x, false) }))
	ms.setMedian("nn.clone_us", timeCalls(2, probeSamples, 1e3, func() { template.Clone() }))
	ms.setMedian("nn.params_roundtrip_us", timeCalls(2, probeSamples, 1e3, func() { m.SetParamsVector(m.ParamsVector()) }))

	// tensor: the model's largest convolution as the matmul it lowers to,
	// filters × (C·K·K) times (C·K·K) × (outH·outW), float64 entry points.
	var dims tensor.ConvDims
	var filters, flops int
	for li := 0; li < m.NumLayers(); li++ {
		conv, ok := m.Layer(li).(*nn.Conv2D)
		if !ok {
			continue
		}
		d := conv.Dims()
		if f := 2 * conv.Filters() * d.C * d.K * d.K * d.OutH() * d.OutW(); f > flops {
			dims, filters, flops = d, conv.Filters(), f
		}
	}
	if flops > 0 {
		fanIn, spatial := dims.C*dims.K*dims.K, dims.OutH()*dims.OutW()
		a, b, dst := tensor.New(filters, fanIn), tensor.New(fanIn, spatial), tensor.New(filters, spatial)
		rng := rand.New(rand.NewSource(s.Seed))
		a.Randn(rng, 1)
		b.Randn(rng, 1)
		mm := timeCalls(warm, probeSamples, 1e3, func() { tensor.MatMulInto(dst, a, b) })
		ms.setMedian("tensor.matmul_us", mm)
		ms.set("tensor.matmul_gflops", float64(flops)/(median(mm)*1e3), len(mm))
		img := make([]float64, dims.C*dims.H*dims.W)
		ms.setMedian("tensor.im2col_us", timeCalls(warm, probeSamples, 1e3, func() { tensor.Im2Col(img, dims, b.Data) }))
	}

	ms.setMedian("dataset.gen_ms", timeCalls(1, probeSamples, 1e6, func() { s.Gen(s.GenCfg) }))
	ms.setMedian("dataset.batch_into_us", timeCalls(warm, probeSamples, 1e3, func() { x, labels = shard.BatchInto(0, batch, x, labels) }))

	layer := m.LastConvIndex()
	record := func() { metrics.LocalActivations(m, layer, shard, 0) }
	if s.ReportQuant == metrics.ReportInt8 {
		var q metrics.QuantActs
		record = func() { metrics.RecordQuantActivations(&q, m, layer, shard, 0) }
	}
	ms.setMedian("metrics.record_activations_ms", timeCalls(2, probeSamples, 1e6, record))

	// core: aggregating 256 reports over 64 units, both methods.
	const reports, units = 256, reportUnits
	rng := rand.New(rand.NewSource(s.Seed))
	ranks, votes := make([][]int, reports), make([][]bool, reports)
	for i := range ranks {
		acts := make([]float64, units)
		for j := range acts {
			acts[j] = rng.Float64()
		}
		ranks[i], votes[i] = core.RanksFromActivations(acts), core.VotesFromActivations(acts, 0.5)
	}
	ms.setMedian("core.aggregate_reports_us", timeCalls(2, probeSamples, 1e3, func() {
		core.AggregateRanks(ranks)
		core.AggregateVotes(votes)
	}))

	workers := parallel.Workers()
	ms.setMedian("parallel.for_dispatch_us", timeCalls(warm, probeSamples, 1e3, func() { parallel.For(workers, func(int) {}) }))
}

// runWireProbes times the fl, transport, wire and obs functions the wire
// workloads lean on, at the model's dimension.
func (w *wireSUT) runWireProbes(ms *metricSet) {
	const warm = 3
	delta := w.server.Model.ParamsVector()

	rng := rand.New(rand.NewSource(w.seed))
	ms.setMedian("fl.select_us", timeCalls(warm, probeSamples, 1e3, func() { w.registry.SampleIDs(w.cfg.fl.SelectPerRound, rng) }))
	ms.setMedian("fl.checkpoint_encode_us", timeCalls(warm, probeSamples, 1e3, func() { fl.EncodeCheckpoint(w.server.CheckpointAt(w.nextRnd)) }))
	if w.cfg.durable {
		var failed error
		ms.setMedian("fl.resume_us", timeCalls(1, probeSamples, 1e3, func() {
			if _, ok, err := w.newServer().ResumeLatest(w.dir); err != nil || !ok {
				failed = errors.Join(failed, fmt.Errorf("resume probe: resumed=%v err=%v", ok, err))
			}
		}))
		if failed != nil {
			panic(failed) // the durable check already resumed from this directory; this cannot fail after it
		}
	}

	ms.setMedian("transport.update_codec_probe_us", timeCalls(warm, probeSamples, 1e3, func() {
		if _, err := transport.DecodeVersionedUpdate(transport.AppendVersionedUpdate(nil, delta)); err != nil {
			panic(err) // a round-trip of our own encoding
		}
	}))
	sc := &fl.SyntheticClient{Id: 0, Seed: w.seed, Units: reportUnits}
	ranks, votes := sc.RankReport(nil, 0), sc.VoteReport(nil, 0, 0.5)
	ms.setMedian("transport.report_codec_probe_us", timeCalls(warm, probeSamples, 1e3, func() {
		_, err1 := transport.DecodeRanksDelta(transport.AppendRanksDelta(nil, ranks))
		_, err2 := transport.DecodeVoteBitmap(transport.AppendVoteBitmap(nil, votes))
		if err := errors.Join(err1, err2); err != nil {
			panic(err) // a round-trip of our own encoding
		}
	}))

	var env []byte
	ms.setMedian("wire.encode_us", timeCalls(warm, probeSamples, 1e3, func() {
		env = wire.NewEncoder(wire.KindUpdate).Section(1, wire.AppendFloat64s(nil, delta)).Bytes()
	}))
	ms.setMedian("wire.decode_us", timeCalls(warm, probeSamples, 1e3, func() {
		if _, err := wire.DecodeKind(env, wire.KindUpdate); err != nil {
			panic(err) // the envelope encoded just above
		}
	}))

	// obs: one audit record of a full cohort, appended to a file beside the
	// live flight log.
	if w.cfg.durable {
		fr, err := obs.NewFlightRecorder(filepath.Join(w.dir, "probe-flight.jsonl"), 0)
		if err != nil {
			panic(err) // the live recorder opened a file in this directory during set-up
		}
		audit := fl.RoundAudit{Selected: w.registry.SampleIDs(w.cfg.fl.SelectPerRound, rng), Applied: true, Aggregator: "fl.MeanAggregator"}
		audit.Completed = audit.Selected
		ms.setMedian("obs.flight_record_us", timeCalls(warm, probeSamples, 1e3, func() { _ = fr.Record(audit) }))
		_ = fr.Close()
	}
	ring := obs.NewSpanRing(8192)
	rec := obs.SpanRecord{Name: "bench.probe", Trace: 1, Span: 2, Parent: 1, Start: 1, Dur: time.Microsecond}
	const perSample = 1000
	ms.setMedian("obs.span_ring_append_ns", timeCalls(warm, probeSamples, perSample, func() {
		for i := 0; i < perSample; i++ {
			ring.Append(rec)
		}
	}))
}
