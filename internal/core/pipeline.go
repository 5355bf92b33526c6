package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// PruneMethod selects the federated pruning flavor.
type PruneMethod int

// Pruning methods (§IV-A1, §IV-A2).
const (
	// RAP is Rank Aggregation-based Pruning: clients report full rank
	// vectors; the server averages rank positions.
	RAP PruneMethod = iota + 1
	// MVP is Majority Voting-based Pruning: clients report binary prune
	// votes for a server-chosen rate; the server tallies vote shares.
	MVP
)

// String implements fmt.Stringer.
func (m PruneMethod) String() string {
	switch m {
	case RAP:
		return "RAP"
	case MVP:
		return "MVP"
	default:
		return fmt.Sprintf("PruneMethod(%d)", int(m))
	}
}

// ReportClient is the defense's view of a federated client: given the
// current global model and a target layer it produces either a rank or a
// vote report derived from locally recorded activations. Honest clients
// compute reports from true activations on their shard; adaptive attackers
// (§VI-B) return manipulated reports. Raw activations never leave the
// client, matching the paper's privacy argument.
//
// The model is shared: a collection hands the same m to every client, from
// concurrent goroutines, so a report must only read it — its parameters and
// its Params list, never a forward pass, which writes the layers' buffers.
// A client that runs the model works on a copy of its own (fl.Client
// borrows one from its nn.Replicas list).
type ReportClient interface {
	// RankReport returns the client's RAP rank vector for the layer.
	RankReport(m *nn.Sequential, layerIdx int) []int
	// VoteReport returns the client's MVP prune votes at rate p.
	VoteReport(m *nn.Sequential, layerIdx int, p float64) []bool
}

// FallibleReportClient is implemented by report clients whose reports
// travel over a network and can fail (transport.RemoteClient). Report
// collection prefers the Try methods when available: an error means the
// client drops out of this aggregation — its report is simply absent,
// exactly as if the client had not been in the cohort — and the
// collection proceeds once ReportQuorum is met.
type FallibleReportClient interface {
	ReportClient
	// TryRankReport is RankReport with failure reporting and cancellation.
	TryRankReport(ctx context.Context, m *nn.Sequential, layerIdx int) ([]int, error)
	// TryVoteReport is VoteReport with failure reporting and cancellation.
	TryVoteReport(ctx context.Context, m *nn.Sequential, layerIdx int, p float64) ([]bool, error)
}

// PipelineConfig parameterizes Algorithm 1 end to end.
type PipelineConfig struct {
	// Method selects RAP or MVP.
	Method PruneMethod
	// TargetLayer is the index of the layer to prune; -1 selects the last
	// convolutional layer (the paper's choice).
	TargetLayer int
	// VoteRate is MVP's pruning rate p (the paper finds 0.3-0.7 works well).
	VoteRate float64
	// MaxAccuracyDrop is the pruning guard: pruning stops before the
	// evaluator falls more than this below its pre-pruning baseline.
	MaxAccuracyDrop float64
	// AWMaxAccuracyDrop is the adjusting-weights guard relative to the
	// evaluator score right before AW; 0 falls back to MaxAccuracyDrop.
	AWMaxAccuracyDrop float64
	// SkipPrune and SkipAW disable individual stages, giving the paper's
	// ablation modes: FP-only (SkipAW), AW-only (SkipPrune), FP+AW
	// (FineTuneRounds=0) and All (everything on).
	SkipPrune, SkipAW bool
	// FineTuneRounds is the maximum number of fine-tuning rounds; 0 skips
	// fine-tuning entirely (the paper's FP+AW mode).
	FineTuneRounds int
	// FineTunePatience stops fine-tuning after this many rounds without
	// improvement (default 2).
	FineTunePatience int
	// AW configures the extreme-weight adjustment. AW.MinAccuracy == 0
	// derives the guard from the evaluator score before AW minus
	// MaxAccuracyDrop.
	AW AWConfig
	// AWLayers lists the layers whose extreme weights are adjusted. Empty
	// selects the last convolutional layer plus the first dense layer after
	// it: the paper clips the last conv layer of its 28×28 networks, and at
	// this reproduction's 16×16 geometry the trigger's post-pooling
	// activation collapses into a single spatial cell whose amplified
	// weights sit in that dense layer (see DESIGN.md).
	AWLayers []int
	// ReportQuorum is the minimum fraction (0,1] of clients whose rank or
	// vote reports must arrive for a prune aggregation to proceed; a
	// missed quorum is a *ReportQuorumError, since the defense cannot act
	// on an unrepresentative minority. 0 accepts any non-empty subset.
	ReportQuorum float64
	// ReportTimeout bounds each report-collection fan-out; when it expires
	// the collection context is cancelled, aborting in-flight remote
	// requests and recording the stragglers as dropouts. 0 means no
	// deadline.
	ReportTimeout time.Duration
}

// DefaultPipelineConfig returns the configuration used by the paper's
// "All" mode on the MNIST-scale experiments.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		Method:            MVP,
		TargetLayer:       -1,
		VoteRate:          0.5,
		MaxAccuracyDrop:   0.02,
		AWMaxAccuracyDrop: 0.06,
		FineTuneRounds:    10,
		FineTunePatience:  2,
		AW:                AWConfig{StartDelta: 5, MinDelta: 1, Eps: 0.25},
	}
}

// Report aggregates the telemetry of one pipeline run.
type Report struct {
	Method      PruneMethod
	TargetLayer int
	Prune       PruneResult
	FineTune    FineTuneResult
	AW          AWResult
	// Accuracy milestones as seen by the evaluator.
	AccBefore, AccAfterPrune, AccAfterFineTune, AccFinal float64
	// ReportDropouts lists the indices (positions in the clients slice) of
	// clients whose prune reports failed or were malformed and were excluded
	// from aggregation; empty when every report arrived.
	ReportDropouts []int
	// Timing is each stage's wall time as its span measured it, the one
	// field two runs of one configuration may disagree on.
	Timing StageTiming
	// Err is the *ReportQuorumError of a report collection that missed
	// its quorum. The pipeline then stops after collection and leaves the
	// model unchanged.
	Err error
}

// StageTiming holds the wall time of the pipeline's stages, zero for a
// skipped one: report collection, the prune sweep, fine-tuning, and the AW
// sweeps of every layer together.
type StageTiming struct {
	Collect, Sweep, FineTune, AW time.Duration
}

// RunPipeline executes the paper's Algorithm 1 on model m in place:
// federated pruning (rank or vote aggregation over the clients' reports),
// optional federated fine-tuning through the tuner, and adjusting extreme
// weights. eval is the server's accuracy guard. tuner may be nil only when
// cfg.FineTuneRounds is 0. A report collection below cfg.ReportQuorum
// returns at once with Report.Err set and m unchanged.
func RunPipeline(m *nn.Sequential, clients []ReportClient, tuner Tuner, eval ScopedEvaluator, cfg PipelineConfig) Report {
	if len(clients) == 0 {
		panic("core: RunPipeline with no clients")
	}
	sp := obs.StartRoot("defense.pipeline", obs.M.DefensePipelineSeconds)
	defer sp.End()
	psc := sp.Context()
	obs.M.DefensePipelines.Inc()
	layerIdx := cfg.TargetLayer
	if layerIdx < 0 {
		layerIdx = m.LastConvIndex()
		if layerIdx < 0 {
			panic("core: model has no convolutional layer to target")
		}
	}
	rep := Report{Method: cfg.Method, TargetLayer: layerIdx, AccBefore: eval.Evaluate(m)}
	obs.L().Info("defense: pipeline start",
		"method", cfg.Method.String(), "layer", layerIdx, "acc", rep.AccBefore)

	// Step 1 — federated pruning.
	rep.AccAfterPrune = rep.AccBefore
	if !cfg.SkipPrune {
		// A report is well-formed at the target layer's width, whatever
		// width most of the cohort reports (PruneToThreshold rejects a
		// target that is not Prunable).
		width := 0
		if p, ok := m.Layer(layerIdx).(nn.Prunable); ok {
			width = p.Units()
		}
		csp := obs.StartChildOf(psc, "defense.prune.collect", nil)
		collected := collectPruneOrder(
			obs.ContextWithSpan(context.Background(), csp.Context()), m, clients, layerIdx, cfg, width)
		rep.Timing.Collect = csp.End()
		rep.ReportDropouts = collected.Dropped
		obs.M.DefenseReportDropouts.Add(uint64(len(collected.Dropped)))
		if collected.Err != nil {
			rep.Err = collected.Err
			return rep
		}
		minAcc := rep.AccBefore - cfg.MaxAccuracyDrop
		ssp := obs.StartChildOf(psc, "defense.prune.sweep", obs.M.DefensePruneSweepSeconds)
		rep.Prune = PruneToThreshold(m, layerIdx, collected.Order, eval, minAcc)
		rep.Timing.Sweep = ssp.End()
		rep.AccAfterPrune = rep.Prune.FinalAccuracy
		obs.L().Info("defense: pruning done", "pruned", len(rep.Prune.Pruned),
			"dropouts", len(collected.Dropped), "acc", rep.AccAfterPrune)
	}

	// Step 2 — optional federated fine-tuning.
	rep.AccAfterFineTune = rep.AccAfterPrune
	if cfg.FineTuneRounds > 0 {
		if tuner == nil {
			panic("core: fine-tuning requested without a Tuner")
		}
		fsp := obs.StartChildOf(psc, "defense.finetune", obs.M.DefenseFineTuneSeconds)
		rep.FineTune = FineTune(m, rep.AccAfterPrune, tuner, cfg.FineTuneRounds, cfg.FineTunePatience, eval)
		rep.Timing.FineTune = fsp.End()
		rep.AccAfterFineTune = rep.FineTune.Accuracies[len(rep.FineTune.Accuracies)-1]
		obs.L().Info("defense: fine-tuning done",
			"rounds", rep.FineTune.Rounds, "acc", rep.AccAfterFineTune)
	}

	// Step 3 — adjusting extreme weights. acc is the evaluator's score of m
	// as it stands, carried rather than measured again: the stages so far
	// ended on AccAfterFineTune, and each layer's sweep ends on its last
	// kept point.
	acc := rep.AccAfterFineTune
	if cfg.SkipAW {
		rep.AccFinal = acc
		return rep
	}
	aw := cfg.AW
	if aw.StartDelta == 0 {
		aw = DefaultAWConfig(0)
	}
	drop := cfg.AWMaxAccuracyDrop
	if drop == 0 {
		drop = cfg.MaxAccuracyDrop
	}
	layers := cfg.AWLayers
	if len(layers) == 0 {
		layers = DefaultAWLayers(m, layerIdx)
	}
	fixedGuard := aw.MinAccuracy != 0
	for i, li := range layers {
		if !fixedGuard {
			// Each layer's sweep gets its own accuracy budget relative to
			// the model as it stands, so an early layer cannot starve the
			// later (often more backdoor-critical) layers.
			aw.MinAccuracy = acc - drop
		}
		// The span's attempt slot carries the swept layer index — AW has
		// no client or retry identity, and the layer is what a trace
		// reader needs to tell the sweeps apart.
		asp := obs.StartChildOf(psc, "defense.aw.layer", obs.M.DefenseAWSweepSeconds).WithAttempt(li)
		res := AdjustWeights(m, li, aw, eval)
		rep.Timing.AW += asp.End()
		acc = keptAccuracy(res, aw.MinAccuracy, acc)
		if i == 0 {
			rep.AW = res
		} else {
			rep.AW.Zeroed += res.Zeroed
			rep.AW.Curve = append(rep.AW.Curve, res.Curve...)
			if res.FinalDelta < rep.AW.FinalDelta {
				rep.AW.FinalDelta = res.FinalDelta
			}
		}
	}
	rep.AccFinal = acc
	obs.L().Info("defense: weight adjustment done",
		"zeroed", rep.AW.Zeroed, "final_delta", rep.AW.FinalDelta, "acc", rep.AccFinal)
	return rep
}

// keptAccuracy is the score of the model AdjustWeights returned: the last
// curve point at or above the guard (the sweep stops at the first point
// below it), or in, the score the sweep started from, when it kept none.
func keptAccuracy(res AWResult, guard, in float64) float64 {
	for i := len(res.Curve) - 1; i >= 0; i-- {
		if res.Curve[i].Accuracy >= guard {
			return res.Curve[i].Accuracy
		}
	}
	return in
}

// DefaultAWLayers returns the default extreme-weight adjustment targets:
// the pruning target layer (normally the last conv) plus the first Dense
// layer after it.
func DefaultAWLayers(m *nn.Sequential, pruneLayer int) []int {
	layers := []int{pruneLayer}
	for li := pruneLayer + 1; li < m.NumLayers(); li++ {
		if _, ok := m.Layer(li).(*nn.Dense); ok {
			layers = append(layers, li)
			break
		}
	}
	return layers
}

// PruneOrderResult carries the aggregated pruning sequence plus the
// collection telemetry: which clients (by index into the clients slice)
// responded and which dropped out. A dropped client contributes nothing
// to the aggregate — the order is computed exactly as if the cohort had
// never contained it. Err is a *ReportQuorumError when too few reports
// arrived, and Order is then nil.
type PruneOrderResult struct {
	Order     []int
	Responded []int
	Dropped   []int
	Err       error
}

// ReportQuorumError is a report collection in which Arrived of the Cohort's
// reports were well-formed where the quorum needs Need.
type ReportQuorumError struct {
	Arrived, Cohort, Need int
}

func (e *ReportQuorumError) Error() string {
	return fmt.Sprintf("core: %d of %d reports arrived, quorum needs %d", e.Arrived, e.Cohort, e.Need)
}

// GlobalPruneOrder collects rank or vote reports from every client and
// aggregates them into the server's global pruning sequence for the layer.
// It is GlobalPruneOrderDetail without the telemetry, for in-process
// experiments: a missed quorum panics with the *ReportQuorumError.
func GlobalPruneOrder(m *nn.Sequential, clients []ReportClient, layerIdx int, cfg PipelineConfig) []int {
	res := GlobalPruneOrderDetail(m, clients, layerIdx, cfg)
	if res.Err != nil {
		panic(res.Err)
	}
	return res.Order
}

// GlobalPruneOrderDetail collects rank or vote reports and aggregates the
// survivors into the global pruning sequence.
//
// Report collection fans out across clients: each one records activations
// over its whole local shard, which is the defense's per-client hot path
// (it scales linearly with cohort size). Every client is handed m itself,
// to read (see ReportClient): one that runs a forward pass does so on a
// working model of its own holding m's parameters, so reports are
// bit-identical to the serial path.
// Aggregation itself stays serial in client-index order, so a cohort with
// wire failures aggregates bit-identically to the same cohort with the
// failed clients removed.
//
// Clients implementing FallibleReportClient are collected through the
// fallible path under cfg.ReportTimeout; a failed (or nil) report drops
// the client from this aggregation, and so does a malformed one (see
// compactReports). When no report arrives or fewer than cfg.ReportQuorum
// of the cohort responds, Err is a *ReportQuorumError.
//
// A report is well-formed at the cohort's width, not the layer's:
// fedload's and the benchmark's synthetic clients report 64 units against
// the SmallCNN.
func GlobalPruneOrderDetail(m *nn.Sequential, clients []ReportClient, layerIdx int, cfg PipelineConfig) PruneOrderResult {
	return collectPruneOrder(context.Background(), m, clients, layerIdx, cfg, 0)
}

// collectPruneOrder is GlobalPruneOrderDetail with a caller context and
// the reports' width given (0 takes the cohort's). The collection context
// (and cfg.ReportTimeout, when set) derives from ctx, so cancellation and
// any trace span context it carries propagate into the per-client report
// calls — a remote client's wire attempts become children of the caller's
// span.
func collectPruneOrder(ctx context.Context, m *nn.Sequential, clients []ReportClient, layerIdx int, cfg PipelineConfig, width int) PruneOrderResult {
	ctx, cancel := reportCtx(ctx, cfg.ReportTimeout)
	defer cancel()
	res := PruneOrderResult{}
	switch cfg.Method {
	case RAP:
		reports, errs := fanOutReports(m, clients, func(c ReportClient, m *nn.Sequential) ([]int, error) {
			return rankReport(ctx, c, m, layerIdx)
		})
		ok := compactReports(reports, errs, width, &res, ranksInRange)
		if res.Err = checkReportQuorum(len(ok), len(clients), cfg.ReportQuorum); res.Err == nil {
			res.Order = PruneOrderFromRanks(AggregateRanks(ok))
		}
	case MVP:
		p := cfg.VoteRate
		if p == 0 {
			p = 0.5
		}
		reports, errs := fanOutReports(m, clients, func(c ReportClient, m *nn.Sequential) ([]bool, error) {
			return voteReport(ctx, c, m, layerIdx, p)
		})
		ok := compactReports(reports, errs, width, &res, func([]bool) bool { return true })
		if res.Err = checkReportQuorum(len(ok), len(clients), cfg.ReportQuorum); res.Err == nil {
			res.Order = PruneOrderFromVotes(AggregateVotes(ok))
		}
	default:
		panic(fmt.Sprintf("core: unknown prune method %v", cfg.Method))
	}
	return res
}

// fanOutReports asks every client for its report across parallel.For's
// workers, handing each the same model m (ReportClient's contract: shared,
// read-only). m's Params list is built first, since that cache is filled on
// first use and a RemoteClient reads it to encode its request. reports[i]
// and errs[i] are client i's answer.
func fanOutReports[E any](m *nn.Sequential, clients []ReportClient, report func(c ReportClient, m *nn.Sequential) ([]E, error)) ([][]E, []error) {
	reports := make([][]E, len(clients))
	errs := make([]error, len(clients))
	m.Params()
	parallel.For(len(clients), func(i int) {
		reports[i], errs[i] = report(clients[i], m)
	})
	return reports, errs
}

// errNilReport marks an infallible client that returned no report
// (transport.RemoteClient's infallible surface does this on failure).
var errNilReport = errors.New("core: client returned no report")

func rankReport(ctx context.Context, c ReportClient, m *nn.Sequential, layerIdx int) ([]int, error) {
	if fc, ok := c.(FallibleReportClient); ok {
		return fc.TryRankReport(ctx, m, layerIdx)
	}
	r := c.RankReport(m, layerIdx)
	if r == nil {
		return nil, errNilReport
	}
	return r, nil
}

func voteReport(ctx context.Context, c ReportClient, m *nn.Sequential, layerIdx int, p float64) ([]bool, error) {
	if fc, ok := c.(FallibleReportClient); ok {
		return fc.TryVoteReport(ctx, m, layerIdx, p)
	}
	v := c.VoteReport(m, layerIdx, p)
	if v == nil {
		return nil, errNilReport
	}
	return v, nil
}

// ranksInRange reports whether every rank of r lies in [1, len(r)].
func ranksInRange(r []int) bool {
	for _, v := range r {
		if v < 1 || v > len(r) {
			return false
		}
	}
	return true
}

// compactReports keeps the successful, well-formed reports in client-index
// order and files the respondent/dropout indices into res. Well-formed is
// inRange at width, or for width 0 at the cohort's width: the length most
// reports share (the first to reach that count wins a tie), so a synthetic
// fleet sets its own.
func compactReports[E any](reports [][]E, errs []error, width int, res *PruneOrderResult, inRange func([]E) bool) [][]E {
	if width == 0 {
		width = -1 // no report arrived: every one is a dropout
		best, count := 0, map[int]int{}
		for i, r := range reports {
			if errs[i] == nil && len(r) > 0 {
				count[len(r)]++
				if count[len(r)] > best {
					width, best = len(r), count[len(r)]
				}
			}
		}
	}
	ok := make([][]E, 0, len(reports))
	for i := range reports {
		if errs[i] != nil || len(reports[i]) != width || !inRange(reports[i]) {
			res.Dropped = append(res.Dropped, i)
			continue
		}
		res.Responded = append(res.Responded, i)
		ok = append(ok, reports[i])
	}
	return ok
}

// checkReportQuorum returns a *ReportQuorumError when too few of the
// cohort's reports arrived, after counting and logging the shortfall.
func checkReportQuorum(got, cohort int, quorum float64) error {
	need := 1
	if quorum > 0 {
		if n := int(math.Ceil(quorum * float64(cohort))); n > need {
			need = n
		}
	}
	if got < need {
		obs.M.DefenseReportQuorumFailures.Inc()
		obs.L().Error("defense: report collection below quorum",
			"arrived", got, "cohort", cohort, "need", need)
		return &ReportQuorumError{Arrived: got, Cohort: cohort, Need: need}
	}
	return nil
}

// reportCtx builds the collection context for a report fan-out on top of
// the caller's context.
func reportCtx(parent context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(parent, timeout)
	}
	return context.WithCancel(parent)
}
