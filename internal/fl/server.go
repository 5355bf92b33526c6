package fl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
	"github.com/fedcleanse/fedcleanse/internal/wire"
)

// Aggregator combines the update deltas of one round into a single global
// delta. MeanAggregator implements the paper's simplified FedAvg; the
// Byzantine-robust rules in internal/robust implement the same interface.
type Aggregator interface {
	// Aggregate returns the global update computed from per-client deltas.
	// Implementations must not mutate the input slices, nor retain them
	// past the moment the server has applied the result: it recycles them
	// then (DESIGN.md §19). The result is handed over the same way — the
	// server recycles it too once applied, so a rule must not keep it.
	Aggregate(deltas [][]float64) []float64
}

// WeightedAggregator is implemented by aggregation rules that need the
// clients' identities (e.g. to weight by local sample counts). When the
// server's Agg implements it, AggregateWeighted is used instead of
// Aggregate.
type WeightedAggregator interface {
	// AggregateWeighted combines deltas; ids[i] identifies the client that
	// produced deltas[i].
	AggregateWeighted(deltas [][]float64, ids []int) []float64
}

// SampleWeightedMean is the paper's unsimplified FedAvg rule (§III-A):
// w_{t+1} = w_t + η · Σ nᵢ·Δwⁱ / Σ nᵢ, weighting each client's update by
// its local sample count. The paper's experiments equalize sample counts
// precisely because this rule lets an attacker with more data dominate;
// SampleWeightedMean exists to demonstrate that (see the fl tests).
type SampleWeightedMean struct {
	// Counts maps client ID to its sample count. Unknown clients weigh 1.
	Counts map[int]int
	// Eta is the global learning rate η (0 means 1).
	Eta float64
}

var _ WeightedAggregator = SampleWeightedMean{}

// Aggregate implements Aggregator by equal weighting (no identities).
func (s SampleWeightedMean) Aggregate(deltas [][]float64) []float64 {
	return MeanAggregator{}.Aggregate(deltas)
}

// AggregateWeighted implements WeightedAggregator.
func (s SampleWeightedMean) AggregateWeighted(deltas [][]float64, ids []int) []float64 {
	if len(deltas) == 0 {
		panic("fl: aggregate of zero deltas")
	}
	if len(ids) != len(deltas) {
		panic(fmt.Sprintf("fl: %d ids for %d deltas", len(ids), len(deltas)))
	}
	eta := s.Eta
	if eta == 0 {
		eta = 1
	}
	out := wire.GetFloat64s(len(deltas[0]))
	clear(out)
	total := 0.0
	for i, d := range deltas {
		w := 1.0
		if n, ok := s.Counts[ids[i]]; ok && n > 0 {
			w = float64(n)
		}
		total += w
		tensor.Axpy(out, w, d)
	}
	tensor.Scale(out, out, eta/total)
	return out
}

// MeanAggregator is plain coordinate-wise averaging, the paper's
// w_{t+1} = w_t + (1/N) Σ Δw^i rule.
type MeanAggregator struct{}

var _ Aggregator = MeanAggregator{}

// Aggregate implements Aggregator.
func (MeanAggregator) Aggregate(deltas [][]float64) []float64 {
	if len(deltas) == 0 {
		panic("fl: aggregate of zero deltas")
	}
	// Zero, then add every delta in participant order, then scale once: the
	// scalar sequence per coordinate that the streaming fold repeats.
	out := wire.GetFloat64s(len(deltas[0]))
	clear(out)
	for _, d := range deltas {
		if len(d) != len(out) {
			panic(fmt.Sprintf("fl: delta length mismatch %d vs %d", len(d), len(out)))
		}
		tensor.Add(out, d)
	}
	tensor.Scale(out, out, 1.0/float64(len(deltas)))
	return out
}

// DropPolicy injects client failures into federated rounds: a dropped
// client is selected but never returns an update (crash, network
// partition, straggler past the round deadline). Real federations must
// tolerate this; the simulator reproduces it for robustness tests.
type DropPolicy interface {
	// Dropped reports whether the client fails to deliver in this round.
	Dropped(clientID, round int) bool
}

// RandomDrop drops every client independently with probability P per
// round, using its own deterministic randomness stream.
type RandomDrop struct {
	P   float64
	Rng *rand.Rand
}

var _ DropPolicy = (*RandomDrop)(nil)

// Dropped implements DropPolicy.
func (d *RandomDrop) Dropped(int, int) bool {
	return d.Rng.Float64() < d.P
}

// Server drives federated training rounds over a set of participants.
type Server struct {
	// Model is the global model, updated in place each round.
	Model *nn.Sequential
	// Participants is the full client population. Empty when the server
	// draws cohorts from a Registry instead.
	Participants []Participant
	// Registry, when non-nil, replaces Participants as the population:
	// each round samples cfg.SelectPerRound registered clients and
	// materializes only those (see Registry). Required for populations too
	// large to hold resident.
	Registry *Registry
	// Agg combines round deltas; nil means MeanAggregator.
	Agg Aggregator
	// Drop, when non-nil, injects client failures (see DropPolicy).
	Drop DropPolicy

	// CrashHook, when set, is invoked at scripted points inside a round
	// (see CrashPoint). The chaos suite installs hooks that panic with a
	// sentinel to model a SIGKILL at exactly that instant; production
	// servers leave it nil.
	CrashHook func(p CrashPoint, round, folds int)

	// Audit, when non-nil, receives one RoundAudit record per RoundDetail
	// call — the durable flight-recorder trail (DESIGN.md §16). nil keeps
	// auditing off, so embedded servers and tests pay nothing.
	Audit *obs.FlightRecorder
	// AuditAmend, when set, edits each audit record before it is written;
	// drivers use it to attach evaluation results (TA/ASR) computed
	// outside the round.
	AuditAmend func(*RoundAudit)

	cfg Config
	// rng drives cohort selection; sr owns it so the draw position can be
	// checkpointed (see rng.go).
	rng *rand.Rand
	sr  *seededRand
	// ckpt, when non-nil, persists round state (SetCheckpointer).
	ckpt *Checkpointer
	// pendingPartial is an interrupted round restored by ResumeFrom,
	// consumed by the next RoundDetail call.
	pendingPartial *PartialRound
	// foldScratch backs the streaming accumulator so steady-state
	// streaming rounds reuse one buffer (DESIGN.md §12).
	foldScratch tensor.Arena
}

// CrashPoint names the scripted kill points of a round, in execution
// order. They exist for the kill-and-restart chaos suite: each models the
// process dying at a different durability-critical instant.
type CrashPoint int

const (
	// CrashPreFold fires in a streaming round after the cohort is drawn
	// and the opening partial checkpoint (if due) is written, before any
	// update has folded.
	CrashPreFold CrashPoint = iota + 1
	// CrashMidCollection fires after each folded update (folds carries
	// the count), after any due partial checkpoint.
	CrashMidCollection
	// CrashPostQuorumPreApply fires once quorum is met, immediately
	// before the aggregate is applied to the model.
	CrashPostQuorumPreApply
)

// crash invokes the scripted kill hook, if any.
func (s *Server) crash(p CrashPoint, round, folds int) {
	if s.CrashHook != nil {
		s.CrashHook(p, round, folds)
	}
}

// NewServer builds a server over the given population. template provides
// the global model architecture and initial weights (cloned).
func NewServer(template *nn.Sequential, participants []Participant, cfg Config, seed int64) *Server {
	sr := newSeededRand(seed)
	return &Server{
		Model:        template.Clone(),
		Participants: append([]Participant(nil), participants...),
		Agg:          MeanAggregator{},
		cfg:          cfg.withDefaults(),
		rng:          sr.rng,
		sr:           sr,
	}
}

// NewRegistryServer builds a server that samples each round's cohort from
// a registered population instead of a resident participant slice. The
// server's memory then scales with the cohort (cfg.SelectPerRound), not
// the population.
func NewRegistryServer(template *nn.Sequential, reg *Registry, cfg Config, seed int64) *Server {
	s := NewServer(template, nil, cfg, seed)
	s.Registry = reg
	return s
}

// Config returns the server's training configuration.
func (s *Server) Config() Config { return s.cfg }

// RoundResult records one federated round's outcome: who was selected,
// whose updates arrived, who dropped (failure policy or wire failure) and
// whether the aggregate was applied. A dropped client leaves nothing
// behind in the aggregate — its delta is never buffered — only its ID
// (and transport error, if any) in this record.
type RoundResult struct {
	// Round is the round index the drivers passed in.
	Round int
	// Selected lists the IDs drawn for this round, in participant order.
	Selected []int
	// Completed lists the IDs whose updates arrived and were aggregated
	// (or would have been, had quorum been met), in participant order.
	Completed []int
	// Dropped lists the IDs that delivered nothing: DropPolicy drops
	// first, then transport failures, each in participant order.
	Dropped []int
	// Errs maps a failed client ID to its transport error; policy drops
	// have no entry. nil when no wire failure occurred.
	Errs map[int]error
	// Applied reports whether the aggregate was applied to the model —
	// false when fewer than quorum updates arrived.
	Applied bool
	// PeakInFlight is the largest number of trained-but-not-yet-folded
	// updates the streaming path held at once — its working-set bound,
	// governed by Config.StreamWindow. Zero on batch rounds, which hold
	// the whole cohort by design.
	PeakInFlight int
}

// UpdateLengthError marks a participant whose update is not a delta over
// the global vector it was handed: one of another length, or none at all
// (transport.RemoteClient's infallible fl.Participant surface returns nil
// on failure, and a remote peer can answer with anything). The round
// records it as a dropout; it never reaches an aggregator, whose own
// length checks panic because there they can only mean a bug.
type UpdateLengthError struct{ Got, Want int }

func (e *UpdateLengthError) Error() string {
	return fmt.Sprintf("fl: participant returned an update of %d values, want %d", e.Got, e.Want)
}

// Round executes one federated round: select clients, collect their
// updates from the current global parameters, aggregate, and apply. It
// returns the IDs of the clients whose updates were collected. Failed
// clients — DropPolicy drops, and FallibleParticipant errors on the wire
// path — are recorded as dropouts and excluded from the aggregate; the
// round applies once cfg.Quorum of the selected cohort has responded.
//
// Local training runs concurrently across the selected clients (bounded by
// parallel.Workers). Every participant owns its model clone and RNG, and
// the global vector is shared read-only, so the per-client deltas — and
// therefore the aggregated round — are bit-identical for any worker count.
// A round in which a set of clients fails on the wire aggregates exactly
// like a round in which the same set was dropped by policy.
func (s *Server) Round(t int) []int {
	return s.RoundDetail(t).Completed
}

// RoundDetail is Round with full failure telemetry. On a server with a
// checkpointer installed it also persists round state: a boundary
// checkpoint after each due round, and — through the streaming round —
// partial checkpoints mid-fold. A round resumed from a partial checkpoint
// (ResumeFrom) re-enters the interrupted round here: t must equal the
// checkpointed round.
//
// The whole round is one trace (DESIGN.md §16): RoundDetail roots the
// "fl.round" span (feeding fl_round_seconds), every remote call, retry
// attempt, fold merge and checkpoint write hangs off it as a child span,
// and — via the transport's trace headers — so does the handler work in
// the client and fleet processes serving the cohort. When an Audit
// recorder is installed, the round's outcome is additionally persisted as
// one RoundAudit record.
func (s *Server) RoundDetail(t int) RoundResult {
	sp := obs.StartRoot("fl.round", obs.M.FLRoundSeconds).WithRound(t)
	sc := sp.Context()
	retries0 := obs.M.TransportRetries.Value()
	attempts0 := obs.M.TransportAttempts.Value()
	var res RoundResult
	resumed, resumePrefix := false, 0
	if pp := s.pendingPartial; pp != nil {
		s.pendingPartial = nil
		if pp.Round == t {
			resumed, resumePrefix = true, pp.FoldN
			res = s.resumePartialRound(pp, t, sc)
		} else {
			// Driver bug: the resumed round must be replayed first. Fall
			// back to a fresh round — correctness of this round survives,
			// but the interrupted round's collected work is lost.
			obs.L().Warn("fl: pending partial round dropped",
				"partial_round", pp.Round, "round", t)
			res = s.runRound(s.Model, s.selectClients(), t, true, sc)
		}
	} else {
		res = s.runRound(s.Model, s.selectClients(), t, true, sc)
	}
	if s.ckpt != nil && s.ckpt.boundaryDue(t) {
		csp := obs.StartChildOf(sc, "fl.checkpoint", nil).WithRound(t)
		if err := s.ckpt.WriteBoundary(s.CheckpointAt(t + 1)); err != nil {
			obs.L().Warn("fl: boundary checkpoint failed", "round", t, "err", err)
		}
		csp.End()
	}
	dur := sp.End()
	s.recordAudit(&res, sc.Trace, dur, resumed, resumePrefix,
		obs.M.TransportRetries.Value()-retries0, obs.M.TransportAttempts.Value()-attempts0)
	return res
}

// SetCheckpointer installs c; subsequent training rounds persist their
// state on c's cadence. Fine-tuning rounds never checkpoint — they run
// inside the defense over a working model, not the global one.
func (s *Server) SetCheckpointer(c *Checkpointer) { s.ckpt = c }

// CheckpointAt captures the server's boundary state as of the given next
// round: the global model, the selection-RNG position and the population
// size.
func (s *Server) CheckpointAt(nextRound int) *Checkpoint {
	return &Checkpoint{
		NextRound:  nextRound,
		RNG:        s.sr.State(),
		Registered: s.populationSize(),
		Model:      nn.AppendModelState(nil, s.Model),
	}
}

// ResumeFrom restores the server to a checkpoint: model parameters and
// prune masks, selection-RNG position, and — for a partial checkpoint —
// the interrupted round, which the next RoundDetail(ck.NextRound) call
// completes from the recorded fold prefix. The server must be freshly
// built from the same template, config and population as the checkpointed
// one (the population size is verified; the rest cannot be).
//
// Determinism contract: a resumed run is bit-identical to the
// uninterrupted one when participants and the DropPolicy are stateless —
// pure functions of (id, round), like SyntheticClient and the chaos
// suite's scripted policies. A participant or policy that carries its own
// RNG across rounds re-runs the interrupted round with advanced state, and
// the bit-identity claim (not correctness) is lost.
func (s *Server) ResumeFrom(ck *Checkpoint) error {
	if ck.Registered != s.populationSize() {
		return fmt.Errorf("fl: resume with population %d, checkpoint has %d",
			s.populationSize(), ck.Registered)
	}
	if err := nn.ApplyModelState(s.Model, ck.Model); err != nil {
		return fmt.Errorf("fl: resume: %w", err)
	}
	s.sr.Restore(ck.RNG)
	s.pendingPartial = ck.Partial
	obs.M.FLResumes.Inc()
	if ck.Partial != nil {
		obs.M.FLResumedPartialRounds.Inc()
	}
	obs.L().Info("fl: resumed from checkpoint", "next_round", ck.NextRound,
		"rng_draws", ck.RNG.Draws, "partial", ck.Partial != nil)
	return nil
}

// ResumeLatest restores the server from the newest complete checkpoint in
// dir, returning the next round to run and whether a checkpoint was found.
func (s *Server) ResumeLatest(dir string) (nextRound int, resumed bool, err error) {
	ck, path, err := LatestCheckpoint(dir)
	if err != nil || ck == nil {
		return 0, false, err
	}
	if err := s.ResumeFrom(ck); err != nil {
		return 0, false, fmt.Errorf("%w (checkpoint %s)", err, path)
	}
	return ck.NextRound, true, nil
}

// populationSize is the registered population (registry servers) or the
// resident participant count.
func (s *Server) populationSize() int {
	if s.Registry != nil {
		return s.Registry.Len()
	}
	return len(s.Participants)
}

// runRound drives one aggregation round over the given cohort against
// model m (the global model for training rounds, the defense's working
// model for fine-tuning). With cfg.Streaming set and an aggregation rule
// that can fold incrementally, the round streams (DESIGN.md §12);
// otherwise it runs the legacy batch path. Both paths share the drop,
// failure-recording and quorum helpers below, so their survivor sets —
// and therefore their aggregates — cannot drift apart.
//
// The round runs under the trace rooted by its driver (RoundDetail or
// FineTune): sc is the round span's context, threaded into the collection
// context so every remote call and retry attempt becomes a child span,
// headers included across process boundaries. Every drop — policy or
// wire — counts into fl_dropped_total (wire failures additionally log the
// client's error with round/client attributes), and a below-quorum round
// counts into fl_quorum_failures_total. Instrumentation only observes the
// round's outcome after the fact; it touches no model arithmetic,
// scheduling or RNG stream, so rounds stay bit-identical with metrics
// enabled. durable marks training rounds against the global model — the
// only rounds partial checkpoints may describe. Fine-tuning passes false.
func (s *Server) runRound(m *nn.Sequential, selected []Participant, t int, durable bool, sc obs.SpanContext) RoundResult {
	if s.cfg.Streaming {
		if sa, ok := s.aggregator().(StreamingAggregator); ok {
			return s.runStreamingRound(m, sa, selected, t, durable, sc)
		}
		obs.M.FLStreamFallbacks.Inc()
		obs.L().Debug("fl: aggregator cannot stream, batch round",
			"round", t, "agg", fmt.Sprintf("%T", s.aggregator()))
	}
	return s.runBatchRound(m, selected, t, sc)
}

// beginRound opens a round's telemetry record.
func beginRound(selected []Participant, t int) RoundResult {
	res := RoundResult{Round: t, Selected: make([]int, 0, len(selected))}
	for _, p := range selected {
		res.Selected = append(res.Selected, p.ID())
	}
	return res
}

// filterByPolicy applies the DropPolicy, consuming its randomness stream
// in participant order before any concurrency so failure injection stays
// deterministic under every worker count, and returns the active cohort.
func (s *Server) filterByPolicy(selected []Participant, t int, res *RoundResult) []Participant {
	var active []Participant
	for _, p := range selected {
		if s.Drop != nil && s.Drop.Dropped(p.ID(), t) {
			res.Dropped = append(res.Dropped, p.ID())
			obs.M.FLDropped.Inc()
			obs.L().Debug("fl: client dropped by policy", "round", t, "client", p.ID())
			continue
		}
		active = append(active, p)
	}
	return active
}

// noteWireFailure records one client's failed update — the single code
// path both the batch and streaming rounds use, so a wire failure is
// accounted identically whichever way the round ran.
func (res *RoundResult) noteWireFailure(id, t int, err error) {
	res.Dropped = append(res.Dropped, id)
	if res.Errs == nil {
		res.Errs = make(map[int]error)
	}
	res.Errs[id] = err
	obs.M.FLDropped.Inc()
	obs.L().Warn("fl: client update failed", "round", t, "client", id, "err", err)
}

// roundContext derives the round's collection context: the deadline, plus
// the round span's context so remote calls trace as children of the round
// (the one context allocation per round; individual spans allocate
// nothing).
func (s *Server) roundContext(sc obs.SpanContext) (context.Context, context.CancelFunc) {
	ctx := context.Background()
	if sc.Valid() {
		ctx = obs.ContextWithSpan(ctx, sc)
	}
	if s.cfg.RoundTimeout > 0 {
		return context.WithTimeout(ctx, s.cfg.RoundTimeout)
	}
	return ctx, func() {}
}

// meetsQuorum decides whether a round with the given number of arrived
// updates applies; a discarded round is logged and counted. Below quorum
// the round delivers no update, as in a real deployment where the server
// abandons the round and retries.
func (s *Server) meetsQuorum(arrived, selected, t int) bool {
	if arrived > 0 && arrived >= s.quorumCount(selected) {
		return true
	}
	obs.M.FLQuorumFailures.Inc()
	obs.L().Warn("fl: round below quorum, discarded",
		"round", t, "arrived", arrived, "need", s.quorumCount(selected), "selected", selected)
	return false
}

// runBatchRound is the legacy round: materialize every delta, compact the
// survivors in participant order, aggregate once at round end, then recycle
// them. It is also what a rule that cannot stream (internal/robust) runs
// under a streaming server.
func (s *Server) runBatchRound(m *nn.Sequential, selected []Participant, t int, sc obs.SpanContext) RoundResult {
	obs.M.FLRounds.Inc()
	res := beginRound(selected, t)
	global := flatParams(m)
	active := s.filterByPolicy(selected, t, &res)
	ctx, cancel := s.roundContext(sc)
	defer cancel()
	deltas := make([][]float64, len(active))
	errs := make([]error, len(active))
	parallel.For(len(active), func(i int) {
		deltas[i], errs[i] = localUpdate(ctx, active[i], global, t)
	})
	wire.PutFloat64s(global)
	// Compact survivors in participant order, so aggregating a round with
	// wire failures is bit-identical to aggregating one where the same
	// clients were excluded up front.
	var ids []int
	var ok [][]float64
	for i, p := range active {
		if errs[i] != nil {
			res.noteWireFailure(p.ID(), t, errs[i])
			continue
		}
		ids = append(ids, p.ID())
		ok = append(ok, deltas[i])
	}
	res.Completed = ids
	obs.M.FLCompleted.Add(uint64(len(ids)))
	if !s.meetsQuorum(len(ok), len(selected), t) {
		return res
	}
	s.crash(CrashPostQuorumPreApply, t, len(ok))
	var agg []float64
	if wa, isWeighted := s.Agg.(WeightedAggregator); isWeighted {
		agg = wa.AggregateWeighted(ok, ids)
	} else {
		agg = s.aggregator().Aggregate(ok)
	}
	m.AddDeltaVector(1, agg)
	res.Applied = true
	// Only now are the deltas and the aggregate dead: the rule has seen
	// every input and its result is in the model (DESIGN.md §19). A rule
	// that returned one of its inputs gets it released once, as the input.
	for _, d := range ok {
		if len(agg) > 0 && &d[0] == &agg[0] {
			agg = nil
		}
		wire.PutFloat64s(d)
	}
	wire.PutFloat64s(agg)
	return res
}

// flatParams is m.ParamsVector() over a free-list vector: the global every
// participant of a round reads. The round puts it back as soon as its
// collection has joined — parallel.For has returned, or collectAndFold has
// received every client's outcome — because by then nothing can read it: a
// participant may not keep global past LocalUpdate (Participant), a
// RemoteClient reads it only to encode the request, on the calling
// goroutine and before its first attempt, so even a call abandoned at
// RoundTimeout has long finished with it, and a fleet handler works on its
// own decoded copy. A round that panics out of collection — a participant,
// or the chaos suite's kill hooks, which leave clients of the window still
// training — never reaches the release; the collector takes the vector.
func flatParams(m *nn.Sequential) []float64 {
	v := wire.GetFloat64s(m.NumParams())
	off := 0
	for _, p := range m.Params() {
		off += copy(v[off:], p.Value.Data)
	}
	return v
}

// runStreamingRound is the scale path: clients train concurrently inside
// a bounded window, but each arriving delta is folded — in participant
// order, through the aggregator's sharded Fold, which recycles it when its
// last shard is done with it — so the server's working set is
// O(window × dim), not O(cohort × dim).
// The fold order and the shared drop/quorum helpers make the result
// bit-identical to runBatchRound for every shard count, worker count and
// dropout set (the streaming equivalence suite pins this).
func (s *Server) runStreamingRound(m *nn.Sequential, sa StreamingAggregator, selected []Participant, t int, durable bool, sc obs.SpanContext) RoundResult {
	obs.M.FLRounds.Inc()
	res := beginRound(selected, t)
	global := flatParams(m)
	active := s.filterByPolicy(selected, t, &res)
	ctx, cancel := s.roundContext(sc)
	defer cancel()

	fold := sa.BeginFold(len(global), s.shardCount(), &s.foldScratch)
	// The opening partial checkpoint (fold 0) records the drawn cohort and
	// policy drops, so a crash before any update folds still resumes into
	// this round instead of redrawing it.
	s.partialCheckpoint(m, &res, fold, t, 0, durable, sc)
	s.crash(CrashPreFold, t, 0)
	folds := s.collectAndFold(ctx, m, fold, active, global, t, &res, durable, 0)
	wire.PutFloat64s(global)
	msp := obs.StartChildOf(sc, "fl.fold.merge", nil).WithRound(t)
	agg := fold.Finish()
	msp.End()
	obs.M.FLStreamInFlightPeak.Set(int64(res.PeakInFlight))
	obs.M.FLCompleted.Add(uint64(len(res.Completed)))
	if !s.meetsQuorum(len(res.Completed), len(selected), t) {
		return res
	}
	s.crash(CrashPostQuorumPreApply, t, folds)
	m.AddDeltaVector(1, agg)
	res.Applied = true
	return res
}

// collectAndFold runs the streaming round's collection window over active,
// folding survivors in participant order, and returns the final fold
// count. startFolds carries a resumed round's recorded prefix so the
// partial-checkpoint cadence and crash hooks see global fold counts.
func (s *Server) collectAndFold(ctx context.Context, m *nn.Sequential, fold Fold,
	active []Participant, global []float64, t int, res *RoundResult, durable bool, startFolds int) int {
	window := s.windowSize(len(active))
	type outcome struct {
		delta []float64
		err   error
	}
	results := make([]outcome, len(active))
	ready := make([]chan struct{}, len(active))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	var inFlight, peak int64
	// The producer admits at most window clients at a time; a slot is
	// released only after the fold loop below has folded that client — in
	// participant order — so a slow early client throttles admission
	// rather than growing the working set. At most window deltas exist at
	// any instant, whatever the cohort size.
	sem := make(chan struct{}, window)
	go func() {
		for i := range active {
			sem <- struct{}{}
			go func(i int) {
				d, err := localUpdate(ctx, active[i], global, t)
				if d != nil {
					n := atomic.AddInt64(&inFlight, 1)
					for {
						p := atomic.LoadInt64(&peak)
						if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
							break
						}
					}
				}
				results[i] = outcome{delta: d, err: err}
				close(ready[i])
			}(i)
		}
	}()
	folds := startFolds
	for i, p := range active {
		<-ready[i]
		out := results[i]
		results[i] = outcome{} // the fold below is the delta's only holder
		if out.err != nil {
			<-sem // a failed client holds no delta; admit the next one
			res.noteWireFailure(p.ID(), t, out.err)
			continue
		}
		res.Completed = append(res.Completed, p.ID())
		fold.Fold(p.ID(), out.delta)
		atomic.AddInt64(&inFlight, -1)
		// Admit the next client only now that this delta is handed to the
		// fold and uncounted — releasing earlier lets window+1 deltas be
		// alive — but before the checkpoint, so its write overlaps collection.
		<-sem
		folds++
		s.partialCheckpoint(m, res, fold, t, folds, durable, obs.SpanContextFrom(ctx))
		s.crash(CrashMidCollection, t, folds)
	}
	res.PeakInFlight = int(atomic.LoadInt64(&peak))
	return folds
}

// partialCheckpoint writes a mid-round checkpoint when one is due:
// quiesce the fold, snapshot its accumulator, seal it with the round's
// bookkeeping. A failed write logs and counts — the round itself carries
// on; durability degrades to the previous checkpoint.
func (s *Server) partialCheckpoint(m *nn.Sequential, res *RoundResult, fold Fold, t, folds int, durable bool, sc obs.SpanContext) {
	if !durable || s.ckpt == nil || !s.ckpt.partialDue(folds) {
		return
	}
	fc, ok := fold.(foldSnapshotter)
	if !ok {
		return
	}
	csp := obs.StartChildOf(sc, "fl.checkpoint", nil).WithRound(t)
	defer csp.End()
	acc, n, total := fc.snapshot()
	ck := s.CheckpointAt(t)
	ck.Partial = &PartialRound{
		Round:     t,
		Selected:  res.Selected,
		Completed: res.Completed,
		Dropped:   res.Dropped,
		FoldN:     n,
		Total:     total,
		Acc:       acc,
	}
	if err := s.ckpt.WritePartial(ck, folds); err != nil {
		obs.L().Warn("fl: partial checkpoint failed", "round", t, "folds", folds, "err", err)
	}
}

// resumePartialRound completes a round interrupted mid-stream: the cohort
// and drop record come from the checkpoint, the fold restarts from the
// restored accumulator, and only the participants past the recorded prefix
// are collected — in the same participant order, so the scalar fold
// sequence (and therefore the applied aggregate) is the uninterrupted
// round's.
func (s *Server) resumePartialRound(pp *PartialRound, t int, sc obs.SpanContext) RoundResult {
	sa, ok := s.aggregator().(StreamingAggregator)
	if !ok {
		// Partials are only written by streaming rounds; a server resumed
		// with a non-streaming rule is misconfigured. Redo the round over
		// the recorded cohort from scratch.
		obs.L().Warn("fl: partial checkpoint under non-streaming aggregator, re-running round", "round", t)
		return s.runRound(s.Model, s.materialize(pp.Selected), t, true, sc)
	}
	// The resume suffix is a child span of the round, so a resumed round's
	// tree shows the recorded prefix boundary explicitly.
	sp := obs.StartChildOf(sc, "fl.round.resume", nil).WithRound(t)
	defer sp.End()
	obs.M.FLRounds.Inc()
	res := RoundResult{
		Round:     t,
		Selected:  append([]int(nil), pp.Selected...),
		Completed: append([]int(nil), pp.Completed...),
		Dropped:   append([]int(nil), pp.Dropped...),
	}
	m := s.Model
	global := flatParams(m)
	// The remaining cohort: selected minus everyone the checkpoint already
	// accounts for, in the original participant order. Policy drops were
	// all recorded before the first fold, so the policy stream is not
	// re-consumed here.
	accounted := make(map[int]struct{}, len(pp.Completed)+len(pp.Dropped))
	for _, id := range pp.Completed {
		accounted[id] = struct{}{}
	}
	for _, id := range pp.Dropped {
		accounted[id] = struct{}{}
	}
	var remainingIDs []int
	for _, id := range pp.Selected {
		if _, done := accounted[id]; !done {
			remainingIDs = append(remainingIDs, id)
		}
	}
	active := s.materialize(remainingIDs)
	ctx, cancel := s.roundContext(sc)
	defer cancel()
	fold := sa.BeginFold(len(global), s.shardCount(), &s.foldScratch)
	fc, canRestore := fold.(foldSnapshotter)
	if !canRestore || len(pp.Acc) != len(global) {
		obs.L().Warn("fl: checkpointed fold state unusable, re-running round",
			"round", t, "acc_dim", len(pp.Acc), "dim", len(global))
		fold.Finish()
		return s.runRound(m, s.materialize(pp.Selected), t, true, sc)
	}
	fc.restore(pp.Acc, pp.FoldN, pp.Total)
	folds := s.collectAndFold(ctx, m, fold, active, global, t, &res, true, pp.FoldN)
	wire.PutFloat64s(global)
	msp := obs.StartChildOf(sc, "fl.fold.merge", nil).WithRound(t)
	agg := fold.Finish()
	msp.End()
	obs.M.FLStreamInFlightPeak.Set(int64(res.PeakInFlight))
	obs.M.FLCompleted.Add(uint64(len(res.Completed) - len(pp.Completed)))
	if !s.meetsQuorum(len(res.Completed), len(res.Selected), t) {
		return res
	}
	s.crash(CrashPostQuorumPreApply, t, folds)
	m.AddDeltaVector(1, agg)
	res.Applied = true
	return res
}

// materialize resolves checkpointed client IDs back to participants:
// through the registry's factory, or by ID lookup over the resident
// population. Unknown IDs — a population that changed across the restart —
// panic: resuming against a different federation is a deployment error no
// aggregate should paper over.
func (s *Server) materialize(ids []int) []Participant {
	if s.Registry != nil {
		return s.Registry.Materialize(ids)
	}
	byID := make(map[int]Participant, len(s.Participants))
	for _, p := range s.Participants {
		byID[p.ID()] = p
	}
	out := make([]Participant, len(ids))
	for i, id := range ids {
		p, ok := byID[id]
		if !ok {
			panic(fmt.Sprintf("fl: resume references unknown client %d", id))
		}
		out[i] = p
	}
	return out
}

// shardCount resolves cfg.Shards (0 = the parallel worker count).
func (s *Server) shardCount() int {
	if s.cfg.Shards > 0 {
		return s.cfg.Shards
	}
	return parallel.Workers()
}

// windowSize resolves cfg.StreamWindow for a cohort of n (0 = twice the
// parallel worker count, so training stays saturated while the in-order
// fold catches up), clamped to [1, n].
func (s *Server) windowSize(n int) int {
	w := s.cfg.StreamWindow
	if w <= 0 {
		w = 2 * parallel.Workers()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// localUpdate collects one client's update, preferring the fallible
// context-aware path when the participant supports it, and refuses one
// that is not as long as global.
func localUpdate(ctx context.Context, p Participant, global []float64, round int) ([]float64, error) {
	var d []float64
	if fp, ok := p.(FallibleParticipant); ok {
		var err error
		if d, err = fp.TryLocalUpdate(ctx, global, round); err != nil {
			return nil, err
		}
	} else {
		d = p.LocalUpdate(global, round)
	}
	if len(d) != len(global) {
		return nil, &UpdateLengthError{Got: len(d), Want: len(global)}
	}
	return d, nil
}

// aggregator returns the configured aggregation rule (MeanAggregator when
// unset).
func (s *Server) aggregator() Aggregator {
	if s.Agg == nil {
		return MeanAggregator{}
	}
	return s.Agg
}

// quorumCount converts cfg.Quorum into the minimum number of arrived
// updates for a cohort of the given size (at least one).
func (s *Server) quorumCount(selected int) int {
	q := s.cfg.Quorum
	if q <= 0 {
		return 1
	}
	n := int(math.Ceil(q * float64(selected)))
	if n < 1 {
		n = 1
	}
	return n
}

// Train runs cfg.Rounds rounds. After each round, onRound (if non-nil) is
// invoked with the completed round index; experiments use it to trace
// accuracy curves (Fig. 3, Fig. 7).
func (s *Server) Train(onRound func(round int)) {
	for t := 0; t < s.cfg.Rounds; t++ {
		s.Round(t)
		if onRound != nil {
			onRound(t)
		}
	}
}

// selectClients draws SelectPerRound participants without replacement, or
// returns the full population when SelectPerRound is 0 (the paper's
// simplified all-participate setting). At least one attacker is present in
// every training iteration per the paper's threat model; the random draw
// itself is unbiased — the guarantee comes from the experiment setups
// having attackers in the population.
//
// With a Registry installed, the cohort is sampled from the registered
// population by the registry's O(k) partial shuffle and materialized
// through its factory; the resident-participant path keeps its historical
// rng.Perm draw, so existing seeded experiments reproduce unchanged.
func (s *Server) selectClients() []Participant {
	if s.Registry != nil {
		return s.Registry.Cohort(s.cfg.SelectPerRound, s.rng)
	}
	k := s.cfg.SelectPerRound
	if k <= 0 || k >= len(s.Participants) {
		return s.Participants
	}
	idx := s.rng.Perm(len(s.Participants))[:k]
	out := make([]Participant, k)
	for i, j := range idx {
		out[i] = s.Participants[j]
	}
	return out
}

// FineTune implements the defense's federated fine-tuning contract
// (internal/core.Tuner): it runs the given number of aggregation rounds
// over the full population starting from m, updating m in place. Prune
// masks installed on m survive because AddDeltaVector re-applies them.
// Fine-tuning rounds share Round's machinery end to end: the server's
// configured Agg rule, its Drop policy, the round timeout and the quorum
// semantics all apply, and wire failures degrade to recorded dropouts.
//
// A registry-backed server cannot hold its population resident, so its
// fine-tuning rounds sample a cohort per round exactly like training
// rounds do.
func (s *Server) FineTune(m *nn.Sequential, rounds int) {
	for t := 0; t < rounds; t++ {
		obs.M.FLFineTuneRounds.Inc()
		cohort := s.Participants
		if s.Registry != nil {
			cohort = s.selectClients()
		}
		// Each fine-tuning round roots its own trace: it is driven by the
		// defense pipeline, not RoundDetail, so no round span exists above
		// it.
		sp := obs.StartRoot("fl.finetune.round", obs.M.FLRoundSeconds).WithRound(t)
		s.runRound(m, cohort, t, false, sp.Context())
		sp.End()
	}
}
