package fl

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

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
	// then (DESIGN.md §6). The result is handed over the same way — the
	// server recycles it too once applied, so a rule must not keep it.
	Aggregate(deltas [][]float64) []float64
}

// CohortMinimum is implemented by an Aggregator defined only on at least
// MinUpdates() deltas (TrimmedMean and the Krum family in internal/robust).
// The server discards a round with fewer arrivals the way it discards a
// round below quorum, instead of calling the rule, which panics on them.
type CohortMinimum interface {
	MinUpdates() int
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
	// scalar sequence per coordinate that the mean fold repeats, kept apart
	// from the fold so the fold's tests compare it with code it does not share.
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
// round. A decision is a pure function of (Seed, client, round), so it does
// not depend on which clients were asked about before, or in what order.
type RandomDrop struct {
	P    float64
	Seed int64
}

var _ DropPolicy = RandomDrop{}

const dropDomain = 0x5f_d209 // keeps RandomDrop's draws apart from a participant's

// Dropped implements DropPolicy.
func (d RandomDrop) Dropped(clientID, round int) bool {
	rng := participantRNG(dropDomain, uint64(d.Seed), uint64(clientID), uint64(round))
	defer participantRNGs.Put(rng)
	return rng.Float64() < d.P
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
	// call — the durable flight-recorder trail (DESIGN.md §10). nil keeps
	// auditing off, so embedded servers and tests pay nothing.
	Audit *obs.FlightRecorder
	// AuditAmend, when set, edits each audit record before it is written;
	// drivers use it to attach evaluation results (TA/ASR) computed
	// outside the round.
	AuditAmend func(*RoundAudit)

	cfg Config
	// seed keys every cohort draw (selectClients) and is checkpointed.
	seed int64
	// ckpt, when non-nil, persists round state (SetCheckpointer).
	ckpt *Checkpointer
	// pendingPartial is an interrupted round restored by ResumeFrom, with
	// its cohort; the next RoundDetail call consumes both.
	pendingPartial *PartialRound
	pendingCohort  []Participant
}

// CrashPoint names the scripted kill points of a round, in execution
// order. They exist for the kill-and-restart chaos suite: each models the
// process dying at a different durability-critical instant. Every round
// passes all three; what a kill leaves on disk is what its fold could
// checkpoint.
type CrashPoint int

const (
	// CrashPreFold fires once the round's start state stands — the cohort
	// drawn or restored, the opening partial checkpoint (if due) written —
	// before collection folds anything (folds carries a resumed prefix).
	CrashPreFold CrashPoint = iota + 1
	// CrashMidCollection fires after each folded update (folds carries
	// the count), once any due partial checkpoint is durable.
	CrashMidCollection
	// CrashPostQuorumPreApply fires once quorum is met, immediately
	// before the aggregate is applied to the model.
	CrashPostQuorumPreApply
)

// crash invokes the scripted kill hook, if any, once every checkpoint
// queued so far is durable: a kill point names what is on disk.
func (s *Server) crash(p CrashPoint, round, folds int) {
	if s.CrashHook != nil {
		s.drainCheckpoints()
		s.CrashHook(p, round, folds)
	}
}

// drainCheckpoints waits for the checkpoint writer, if there is one.
func (s *Server) drainCheckpoints() {
	if s.ckpt != nil {
		s.ckpt.drain()
	}
}

// NewServer builds a server over the given population. template provides
// the global model architecture and initial weights (cloned).
func NewServer(template *nn.Sequential, participants []Participant, cfg Config, seed int64) *Server {
	return &Server{
		Model:        template.Clone(),
		Participants: append([]Participant(nil), participants...),
		Agg:          MeanAggregator{},
		cfg:          cfg.withDefaults(),
		seed:         seed,
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
	// updates a round under Config.Streaming held at once — its working-set
	// bound, governed by Config.StreamWindow. Zero when nothing bounds the
	// hold: a round without Streaming, or on the collect-all fold.
	PeakInFlight int
}

// UpdateLengthError marks a participant whose update is not a delta over
// the global vector it was handed: one of another length, or none at all
// (transport.RemoteClient's infallible fl.Participant surface returns nil
// on failure, and a remote peer can answer with anything). The round
// records it as a dropout; it never reaches a fold or a rule, whose own
// length checks panic because there they can only mean a bug.
type UpdateLengthError struct{ Got, Want int }

func (e *UpdateLengthError) Error() string {
	return fmt.Sprintf("fl: participant returned an update of %d values, want %d", e.Got, e.Want)
}

// NonFiniteUpdateError marks a participant whose update has a NaN or an
// infinite coordinate — Index is the first, Value what it held — which any
// aggregation rule would spread over the whole model. Like an
// UpdateLengthError it makes the participant a dropout before the delta
// reaches a fold.
type NonFiniteUpdateError struct {
	Index int
	Value float64
}

func (e *NonFiniteUpdateError) Error() string {
	return fmt.Sprintf("fl: participant returned an update with %v at coordinate %d", e.Value, e.Index)
}

// RoundDetail executes one federated round: select clients, collect their
// updates from the current global parameters, aggregate, and apply. Its
// result carries the full failure telemetry; Completed holds the IDs of the
// clients whose updates were collected. Failed clients — DropPolicy drops,
// and FallibleParticipant errors on the wire path — are recorded as
// dropouts and excluded from the aggregate; the round applies once
// cfg.Quorum of the selected cohort has responded.
//
// Local training runs concurrently across the selected clients (bounded by
// parallel.Workers, or by the window under Config.Streaming). A delta is a
// function of (seed, id, global, round) — its participant holds the model it
// trains on alone and only reads the global and its shard — so the round is
// bit-identical for any worker count and any call history. A round in which
// a set of clients fails on the wire aggregates exactly like one in which
// the same set was dropped by policy.
//
// On a server with a checkpointer installed it also persists round state: a
// boundary checkpoint after each due round, and partial checkpoints
// mid-fold when the round's fold can be checkpointed, written behind the
// fold; every file the round cuts is durable before it returns. After
// ResumeFrom restored a partial checkpoint, the next call re-enters the
// interrupted round: t must equal the checkpointed round.
//
// The whole round is one trace (DESIGN.md §10): RoundDetail roots the
// "fl.round" span (feeding fl_round_seconds), every remote call, retry
// attempt, fold merge and checkpoint write hangs off it as a child span,
// and — via the transport's trace headers — so does the handler work in
// the client and fleet processes serving the cohort. When an Audit
// recorder is installed, the round's outcome is additionally persisted as
// one RoundAudit record.
func (s *Server) RoundDetail(t int) RoundResult {
	res, _ := s.roundUnder(obs.SpanContext{}, t)
	return res
}

// roundUnder is RoundDetail with the round's span a child of parent (a
// zero parent roots the round's own trace); it also returns the span's
// duration.
func (s *Server) roundUnder(parent obs.SpanContext, t int) (RoundResult, time.Duration) {
	sp := obs.StartChildOf(parent, "fl.round", obs.M.FLRoundSeconds).WithRound(t)
	sc := sp.Context()
	retries0 := obs.M.TransportRetries.Value()
	attempts0 := obs.M.TransportAttempts.Value()
	pp, cohort := s.pendingPartial, s.pendingCohort
	s.pendingPartial, s.pendingCohort = nil, nil
	if pp != nil && pp.Round != t {
		// Driver bug: the resumed round must be replayed first. Run a fresh
		// round — correctness of this round survives, but the interrupted
		// round's collected work is lost.
		obs.L().Warn("fl: pending partial round dropped", "partial_round", pp.Round, "round", t)
		pp = nil
	}
	if pp == nil {
		cohort = s.selectClients(selectDomain, t)
	}
	res := s.runRound(s.Model, cohort, pp, t, true, sc)
	if s.ckpt != nil {
		// Every checkpoint the round queued is durable before it returns: a
		// round below quorum applied nothing, so nothing drained it yet.
		s.ckpt.drain()
		if s.ckpt.boundaryDue(t) {
			csp := obs.StartChildOf(sc, "fl.checkpoint", obs.M.FLCheckpointWriteSeconds).WithRound(t)
			if err := s.ckpt.WriteBoundary(s.liveCheckpoint(t + 1)); err != nil {
				obs.L().Warn("fl: boundary checkpoint failed", "round", t, "err", err)
			}
			csp.End()
		}
	}
	dur := sp.End()
	s.recordAudit(&res, sc.Trace, dur, pp,
		obs.M.TransportRetries.Value()-retries0, obs.M.TransportAttempts.Value()-attempts0)
	return res, dur
}

// SetCheckpointer installs c; subsequent training rounds persist their
// state on c's cadence. Fine-tuning rounds never checkpoint — they run
// inside the defense over a working model, not the global one.
func (s *Server) SetCheckpointer(c *Checkpointer) { s.ckpt = c }

// CheckpointAt captures the server's boundary state as of the given next
// round: the global model, the seed and the population size.
func (s *Server) CheckpointAt(nextRound int) *Checkpoint {
	ck := s.liveCheckpoint(nextRound)
	ck.Model, ck.live = nn.AppendModelState(nil, s.Model), nil
	return ck
}

// liveCheckpoint is CheckpointAt without the model payload: the encoder
// reads s.Model itself, so the checkpoint must be encoded before the model
// next changes — which the round loop guarantees: it encodes every
// checkpoint on the goroutine that applies the aggregate, and only the
// writing happens behind it.
func (s *Server) liveCheckpoint(nextRound int) *Checkpoint {
	return &Checkpoint{
		NextRound:  nextRound,
		Seed:       s.seed,
		Registered: s.populationSize(),
		live:       s.Model,
	}
}

// ResumeFrom restores the server to a checkpoint: model parameters and
// prune masks and — for a partial checkpoint — the interrupted round, which
// the next RoundDetail(ck.NextRound) call completes from the recorded fold
// prefix. The server must be freshly built from the same template, config,
// seed and population as the checkpointed one. A checkpoint is a file's
// bytes: the seed, the population size and, of a partial round, everything
// the round would take on trust (resumedCohort) are checked before anything
// is restored.
//
// Determinism contract: a resumed run is bit-identical to the
// uninterrupted one. Cohorts are a pure function of (seed, round), and
// every participant and DropPolicy this package ships is a pure function of
// its call's (id, round) key; one written elsewhere keeps the claim by
// being one too.
func (s *Server) ResumeFrom(ck *Checkpoint) error {
	if ck.Seed != s.seed {
		return fmt.Errorf("fl: resume with seed %d, checkpoint has %d", s.seed, ck.Seed)
	}
	if ck.Registered != s.populationSize() {
		return fmt.Errorf("fl: resume with population %d, checkpoint has %d",
			s.populationSize(), ck.Registered)
	}
	var cohort []Participant
	if p := ck.Partial; p != nil {
		var err error
		if cohort, err = s.resumedCohort(p); err != nil {
			return fmt.Errorf("fl: resume: partial round %d: %w", p.Round, err)
		}
	}
	if err := nn.ApplyModelState(s.Model, ck.Model); err != nil {
		return fmt.Errorf("fl: resume: %w", err)
	}
	s.pendingPartial, s.pendingCohort = ck.Partial, cohort
	obs.M.FLResumes.Inc()
	if ck.Partial != nil {
		obs.M.FLResumedPartialRounds.Inc()
	}
	obs.L().Info("fl: resumed from checkpoint", "next_round", ck.NextRound,
		"partial", ck.Partial != nil)
	return nil
}

// resumedCohort checks an interrupted round against this server — its
// accumulator is as long as the model, its completions and drops split its
// cohort without repeats, every client of the cohort exists here — and
// resolves the cohort: through the registry's factory, or by ID over the
// resident population.
func (s *Server) resumedCohort(p *PartialRound) ([]Participant, error) {
	if p.FoldN != len(p.Completed) {
		return nil, fmt.Errorf("fold count %d with %d completed", p.FoldN, len(p.Completed))
	}
	if n := s.Model.NumParams(); len(p.Acc) != n {
		return nil, fmt.Errorf("accumulator of %d values for a model of %d", len(p.Acc), n)
	}
	byID := make(map[int]Participant, len(s.Participants))
	for _, q := range s.Participants {
		byID[q.ID()] = q
	}
	known := func(id int) bool { return byID[id] != nil }
	if s.Registry != nil {
		known = s.Registry.has
	}
	unaccounted := make(map[int]bool, len(p.Selected))
	for _, id := range p.Selected {
		if !known(id) {
			return nil, fmt.Errorf("client %d is not registered", id)
		}
		if unaccounted[id] {
			return nil, fmt.Errorf("client %d selected twice", id)
		}
		unaccounted[id] = true
	}
	for _, ids := range [][]int{p.Completed, p.Dropped} {
		for _, id := range ids {
			if !unaccounted[id] {
				return nil, fmt.Errorf("client %d completed or dropped twice, or never selected", id)
			}
			delete(unaccounted, id)
		}
	}
	if s.Registry != nil {
		return s.Registry.Materialize(p.Selected), nil
	}
	cohort := make([]Participant, len(p.Selected))
	for i, id := range p.Selected {
		cohort[i] = byID[id]
	}
	return cohort, nil
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

// runRound is the one round loop (DESIGN.md §6): training rounds against
// the global model, the defense's fine-tuning rounds against its working
// model m, streaming or not, fresh or resumed. A round is a start state —
// fresh: the cohort minus its policy drops; resumed (pp non-nil): the
// checkpoint's bookkeeping, the cohort's unaccounted suffix and a restored
// accumulator — then flatten the global, collect and fold, finish the
// fold, check quorum, apply. The rule picks the Fold (beginFold) and
// Config.Streaming only the window, so survivor sets, drop accounting and
// the applied sum cannot drift apart between modes.
//
// The round runs under the trace rooted by its driver (RoundDetail or
// FineTune): sc is the round span's context, threaded into the collection
// context so every remote call and retry attempt becomes a child span,
// headers included across process boundaries. Every drop counts into
// fl_dropped_total and a below-quorum round into fl_quorum_failures_total.
// Instrumentation only observes the round's outcome after the fact; it
// touches no model arithmetic, scheduling or RNG stream, so rounds stay
// bit-identical with metrics enabled. durable marks training rounds against
// the global model — the only rounds partial checkpoints may describe.
func (s *Server) runRound(m *nn.Sequential, selected []Participant, pp *PartialRound, t int, durable bool, sc obs.SpanContext) RoundResult {
	obs.M.FLRounds.Inc()
	need := s.quorumCount(len(selected))
	fold := s.beginFold(m.NumParams(), need)
	all, collects := fold.(*collectAllFold)
	if mf, ok := fold.(*meanFold); ok && pp != nil {
		mf.restore(pp.Acc, pp.FoldN)
	} else if pp != nil {
		// The one way a recorded prefix is lost: this server's fold cannot
		// take an accumulator back (the rule does not fold). The recorded
		// cohort runs fresh.
		obs.L().Warn("fl: fold cannot restore a partial checkpoint, re-running round",
			"round", t, "fold", fmt.Sprintf("%T", fold))
		pp = nil
	}
	res, active := s.startRound(selected, pp, t)
	if pp == nil {
		// The opening partial checkpoint (fold 0) records the drawn cohort
		// and policy drops, so a crash before any update folds still
		// resumes into this round instead of redrawing it.
		s.partialCheckpoint(m, &res, fold, t, durable, sc)
	} else {
		// The resume suffix is a child span of the round, so a resumed
		// round's tree shows the recorded prefix boundary explicitly.
		rsp := obs.StartChildOf(sc, "fl.round.resume", nil).WithRound(t)
		defer rsp.End()
	}
	prior := len(res.Completed)
	global := flatParams(m)
	ctx, cancel := s.roundContext(sc)
	defer cancel()
	s.crash(CrashPreFold, t, prior)
	// Under Streaming a round trains, and holds, a window of clients. Without
	// it (or on the collect-all fold, which keeps every delta anyway) nothing
	// bounds the hold, and parallel.Workers() clients train at a time.
	windowed := s.cfg.Streaming && !collects
	workers, hold := parallel.NumBlocks(len(active)), len(active)
	if windowed {
		workers = s.windowSize(len(active))
		hold = workers
	}
	peak, panicked := s.collectAndFold(ctx, m, fold, active, global, t, &res, durable, workers, hold)
	wire.PutFloat64s(global)
	if panicked != nil {
		// Raised again only now that every collection worker has returned;
		// the unfinished fold, accumulator and all, goes to the collector.
		panic(panicked)
	}
	if windowed {
		res.PeakInFlight = peak
		obs.M.FLStreamInFlightPeak.Set(int64(peak))
	}
	merge := obs.M.FLShardMergeSeconds // the mean fold's scale, not a batch rule's Aggregate
	if collects {
		merge = nil
	}
	msp := obs.StartChildOf(sc, "fl.fold.merge", merge).WithRound(t)
	agg := fold.Finish()
	msp.End()
	defer all.release(agg) // applied or discarded, dead once the round returns
	arrived := len(res.Completed)
	obs.M.FLCompleted.Add(uint64(arrived - prior))
	if arrived < need {
		// Below quorum the round delivers no update, as in a real deployment
		// where the server abandons the round and retries.
		obs.M.FLQuorumFailures.Inc()
		obs.L().Warn("fl: round below quorum, discarded",
			"round", t, "arrived", arrived, "need", need, "selected", len(selected))
		return res
	}
	// The round's partials are durable before its aggregate lands.
	s.drainCheckpoints()
	s.crash(CrashPostQuorumPreApply, t, arrived)
	m.AddDeltaVector(1, agg)
	res.Applied = true
	return res
}

// beginFold opens the round's fold: the rule's own whenever the rule can
// fold one delta at a time, else the collect-all fold — which is how a
// batch-only rule (internal/robust) runs, under a streaming server counted
// into fl_stream_fallbacks_total. need is the round's quorum.
func (s *Server) beginFold(dim, need int) Fold {
	rule := s.aggregator()
	if sa, ok := rule.(StreamingAggregator); ok {
		return sa.BeginFold(dim, 0, nil)
	}
	if s.cfg.Streaming {
		obs.M.FLStreamFallbacks.Inc()
	}
	return &collectAllFold{rule: rule, need: need}
}

// startRound is a round's start state: its telemetry record and the
// clients still to collect, in participant order. Fresh (pp nil), those are
// the cohort minus its policy drops. Resumed, they are the cohort minus the
// completions and drops the checkpoint recorded, which the record takes
// over; policy drops were all recorded before the first fold, so the policy
// is not consulted again.
func (s *Server) startRound(selected []Participant, pp *PartialRound, t int) (res RoundResult, active []Participant) {
	res = RoundResult{Round: t, Selected: make([]int, 0, len(selected))}
	var accounted map[int]bool
	if pp != nil {
		res.Completed = append([]int(nil), pp.Completed...)
		res.Dropped = append([]int(nil), pp.Dropped...)
		accounted = make(map[int]bool, len(selected))
		for _, ids := range [][]int{pp.Completed, pp.Dropped} {
			for _, id := range ids {
				accounted[id] = true
			}
		}
	}
	for _, p := range selected {
		res.Selected = append(res.Selected, p.ID())
		switch {
		case accounted[p.ID()]:
		case pp == nil && s.Drop != nil && s.Drop.Dropped(p.ID(), t):
			res.Dropped = append(res.Dropped, p.ID())
			obs.M.FLDropped.Inc()
			obs.L().Debug("fl: client dropped by policy", "round", t, "client", p.ID())
		default:
			active = append(active, p)
		}
	}
	return res, active
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

// flatParams is m.ParamsVector() over a free-list vector: the global every
// participant of a round reads. runRound puts it back as soon as collection
// has joined — every client's outcome received — because by then nothing
// can read it (DESIGN.md §6): a participant may not keep global past
// LocalUpdate, a RemoteClient reads it only to encode the request or to
// compare it with the last one encoded, before its first attempt, and a
// fleet handler works on a copy decoded from the request's bytes. A
// round that a kill hook panics out of, clients of the window still
// training, never reaches the release; the collector takes the vector.
func flatParams(m *nn.Sequential) []float64 {
	v := wire.GetFloat64s(m.NumParams())
	off := 0
	for _, p := range m.Params() {
		off += copy(v[off:], p.Value.Data)
	}
	return v
}

// collectAllFold is the Fold of a rule that cannot fold: it keeps every
// survivor's delta in participant order and hands the rule the whole cohort
// once, in Finish — the only shape a rule that needs every delta at once
// (internal/robust) can take. It is the server's, not a BeginFold on those
// rules: they stay batch-only.
type collectAllFold struct {
	rule Aggregator
	// need is the round's quorum, which covers the rule's CohortMinimum.
	// Finish runs the rule on nothing less: a discarded round's aggregate
	// is never read.
	need   int
	deltas [][]float64
}

// Fold implements Fold.
func (f *collectAllFold) Fold(_ int, delta []float64) {
	f.deltas = append(f.deltas, delta)
}

// Finish implements Fold: the round's one Aggregate call.
func (f *collectAllFold) Finish() []float64 {
	if len(f.deltas) < f.need {
		return nil
	}
	return f.rule.Aggregate(f.deltas)
}

// release recycles the deltas and the aggregate once it has been applied or
// its round discarded. Only then are they dead: the rule has seen every
// input and its result is in the model (DESIGN.md §6). A rule that returned
// one of its inputs gets it released once, as the input. On a nil f — a
// round on the mean fold — it releases the aggregate alone.
func (f *collectAllFold) release(agg []float64) {
	if f != nil {
		for _, d := range f.deltas {
			if len(agg) > 0 && &d[0] == &agg[0] {
				agg = nil
			}
			wire.PutFloat64s(d)
		}
	}
	wire.PutFloat64s(agg)
}

// outcome is what one client's update call left: a delta, the error that
// makes the client a dropout, or the value it panicked with.
type outcome struct {
	delta    []float64
	err      error
	panicked any
}

// collectAndFold is the round's collection loop: workers goroutines each
// take the next admitted client — a claim loop, so uneven client cost idles
// nobody — while this goroutine folds the outcomes in participant order. A
// client is admitted once fewer than hold are admitted but not yet folded,
// so at most hold deltas exist at any instant whatever the cohort size, and
// a slow early client throttles admission rather than growing the working
// set. A due partial checkpoint is encoded here, after the fold, and
// written behind it while collection goes on; the one after the last
// client is skipped when the round's boundary checkpoint replaces it. It
// returns the most trained-but-unfolded deltas it saw, and the first panic
// of a participant in participant order: the siblings drain, nothing more
// is folded, the lost round's vectors go to the collector.
func (s *Server) collectAndFold(ctx context.Context, m *nn.Sequential, fold Fold, active []Participant,
	global []float64, t int, res *RoundResult, durable bool, workers, hold int) (peak int, panicked any) {
	n := len(active)
	results := make([]outcome, n)
	// Workers announce each finished index on done, sized so that no send
	// ever blocks — not even after a kill hook has taken the receiver away.
	done, arrived := make(chan int, n), make([]bool, n)
	var held atomic.Int64
	// Admitted indices wait here for a free worker. At most hold are ever
	// outstanding, so a send never blocks; closing it on the way out —
	// normally, or under a kill hook's panic — ends the workers.
	work := make(chan int, hold)
	defer close(work)
	for w := 0; w < workers; w++ {
		go func() {
			for i := range work {
				results[i] = localUpdate(ctx, active[i], global, t)
				if results[i].delta != nil {
					held.Add(1)
				}
				done <- i
			}
		}()
	}
	admitted := 0
	admit := func(folded int) {
		for ; admitted < n && admitted-folded < hold; admitted++ {
			work <- admitted
		}
	}
	admit(0)
	for i, p := range active {
		for !arrived[i] {
			arrived[<-done] = true
		}
		out := results[i]
		results[i] = outcome{} // the fold below is the delta's only holder
		switch {
		case out.panicked != nil || panicked != nil:
			// The round is lost; keep admitting so every sibling returns.
			if panicked == nil {
				panicked = out.panicked
			}
			admit(i + 1)
		case out.err != nil:
			admit(i + 1) // a failed client holds no delta
			res.Dropped = append(res.Dropped, p.ID())
			if res.Errs == nil {
				res.Errs = make(map[int]error)
			}
			res.Errs[p.ID()] = out.err
			obs.M.FLDropped.Inc()
			obs.L().Warn("fl: client update failed", "round", t, "client", p.ID(), "err", out.err)
		default:
			res.Completed = append(res.Completed, p.ID())
			fold.Fold(p.ID(), out.delta)
			peak = max(peak, int(held.Add(-1))+1)
			// Admit the next client only now that this delta is handed to
			// the fold and uncounted — earlier lets hold+1 deltas be alive —
			// but before the checkpoint is encoded.
			admit(i + 1)
			if i < n-1 || s.ckpt == nil || !s.ckpt.boundaryDue(t) {
				s.partialCheckpoint(m, res, fold, t, durable, obs.SpanContextFrom(ctx))
			}
			s.crash(CrashMidCollection, t, len(res.Completed))
		}
	}
	return peak, panicked
}

// partialCheckpoint queues a mid-round checkpoint when one is due after
// the folds so far: it seals the fold's accumulator — read in place,
// nothing folds while this goroutine encodes — with the round's
// bookkeeping, and leaves the write to the checkpointer's writer. Only
// MeanAggregator's fold can be checkpointed; any other writes none. A
// failed write logs and counts — the round itself carries on; durability
// degrades to the previous checkpoint.
func (s *Server) partialCheckpoint(m *nn.Sequential, res *RoundResult, fold Fold, t int, durable bool, sc obs.SpanContext) {
	folds := len(res.Completed)
	mf, ok := fold.(*meanFold)
	if !ok || !durable || s.ckpt == nil || !s.ckpt.partialDue(folds) {
		return
	}
	csp := obs.StartChildOf(sc, "fl.checkpoint", obs.M.FLCheckpointWriteSeconds).WithRound(t)
	ck := s.liveCheckpoint(t)
	ck.Partial = &PartialRound{
		Round:     t,
		Selected:  res.Selected,
		Completed: res.Completed,
		Dropped:   res.Dropped,
		FoldN:     mf.n,
		Acc:       mf.acc,
	}
	s.ckpt.queuePartial(ck, folds, csp)
}

// windowSize resolves cfg.StreamWindow for a cohort of n (0 = twice the
// parallel worker count, so training stays saturated while the in-order
// fold catches up), clamped to [1, n].
func (s *Server) windowSize(n int) int {
	w := s.cfg.StreamWindow
	if w <= 0 {
		w = 2 * parallel.Workers()
	}
	return max(1, min(w, n))
}

// localUpdate collects one client's update on a collection worker,
// preferring the fallible context-aware path when the participant supports
// it, and refuses one that is not as long as global or is not finite (the
// vector, the caller's, goes back to the free list). A panic stays in the
// outcome instead of taking the process down from a goroutine nobody can
// recover on.
func localUpdate(ctx context.Context, p Participant, global []float64, round int) (out outcome) {
	defer func() {
		if v := recover(); v != nil {
			out = outcome{panicked: v}
		}
	}()
	var d []float64
	if fp, ok := p.(FallibleParticipant); ok {
		var err error
		if d, err = fp.TryLocalUpdate(ctx, global, round); err != nil {
			return outcome{err: err}
		}
	} else {
		d = p.LocalUpdate(global, round)
	}
	if len(d) != len(global) {
		return outcome{err: &UpdateLengthError{Got: len(d), Want: len(global)}}
	}
	if i := firstNonFinite(d); i >= 0 {
		err := &NonFiniteUpdateError{Index: i, Value: d[i]}
		wire.PutFloat64s(d)
		return outcome{err: err}
	}
	return outcome{delta: d}
}

// firstNonFinite is the index of d's first NaN or ±Inf, or -1. x−x is 0
// for every finite x and NaN for the rest, and a sum is non-finite when a
// term is, so a block of eight costs seven adds and one comparison; a block
// whose finite terms overflow is scanned one by one and passes.
func firstNonFinite(d []float64) int {
	i := 0
	for ; len(d)-i >= 8; i += 8 {
		q := d[i : i+8 : i+8]
		if s := ((q[0] + q[1]) + (q[2] + q[3])) + ((q[4] + q[5]) + (q[6] + q[7])); s-s != 0 {
			for j, x := range q {
				if x-x != 0 {
					return i + j
				}
			}
		}
	}
	for ; i < len(d); i++ {
		if d[i]-d[i] != 0 {
			return i
		}
	}
	return -1
}

// aggregator returns the configured aggregation rule (MeanAggregator when
// unset).
func (s *Server) aggregator() Aggregator {
	if s.Agg == nil {
		return MeanAggregator{}
	}
	return s.Agg
}

// quorumCount is the minimum number of arrived updates a round over a
// cohort of the given size applies: cfg.Quorum of the cohort, at least one,
// and at least the rule's CohortMinimum.
func (s *Server) quorumCount(selected int) int {
	need := 1
	if s.cfg.Quorum > 0 {
		need = max(1, int(math.Ceil(s.cfg.Quorum*float64(selected))))
	}
	if cm, ok := s.aggregator().(CohortMinimum); ok {
		need = max(need, cm.MinUpdates())
	}
	return need
}

// Train runs cfg.Rounds rounds as one trace: an "fl.train" root span with
// every round's "fl.round" span as its child. After each round, onRound
// (if non-nil) is invoked with the completed round index; experiments use
// it to trace accuracy curves (Figs. 3 and 10). Train returns the training
// time, the summed durations of the round spans, which leaves out the time
// onRound took.
func (s *Server) Train(onRound func(round int)) time.Duration {
	sp := obs.StartRoot("fl.train", nil)
	defer sp.End()
	var took time.Duration
	for t := 0; t < s.cfg.Rounds; t++ {
		_, d := s.roundUnder(sp.Context(), t)
		took += d
		if onRound != nil {
			onRound(t)
		}
	}
	return took
}

// Cohort draws keep training and fine-tuning rounds of one index apart.
const (
	selectDomain   = 0x5e_1ec7
	fineTuneDomain = 0xf1_7e5e
)

// selectClients draws round t's SelectPerRound participants without
// replacement, or returns the full population when SelectPerRound is 0 (the
// paper's simplified all-participate setting). At least one attacker is
// present in every training iteration per the paper's threat model; the
// random draw itself is unbiased — the guarantee comes from the experiment
// setups having attackers in the population.
//
// A cohort is a pure function of (domain, seed, t): the same draw for a
// fresh server, a resumed one, and one that ran any rounds or fine-tuning
// before. One O(k) partial shuffle (sampleIndices) picks it, over the
// resident participants or, with a Registry installed, over the registered
// population, materialized through its factory.
func (s *Server) selectClients(domain uint64, t int) []Participant {
	k := s.cfg.SelectPerRound
	if s.Registry == nil && (k <= 0 || k >= len(s.Participants)) {
		return s.Participants
	}
	rng := participantRNG(domain, uint64(s.seed), uint64(t))
	defer participantRNGs.Put(rng)
	if s.Registry != nil {
		return s.Registry.Cohort(k, rng)
	}
	out := make([]Participant, k)
	for i, j := range sampleIndices(len(s.Participants), k, rng) {
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
// fine-tuning rounds sample a cohort per round like training rounds do,
// keyed by (fineTuneDomain, seed, t) with t counted from 0 in every call:
// fine-tuning leaves the training cohorts untouched. core.FineTune asks
// for one round per call, so its steps over a registry server share one
// cohort, as they share one batch order.
func (s *Server) FineTune(m *nn.Sequential, rounds int) {
	for t := 0; t < rounds; t++ {
		obs.M.FLFineTuneRounds.Inc()
		cohort := s.Participants
		if s.Registry != nil {
			cohort = s.selectClients(fineTuneDomain, t)
		}
		// Each fine-tuning round roots its own trace: it is driven by the
		// defense pipeline, not RoundDetail, so no round span exists above
		// it.
		sp := obs.StartRoot("fl.finetune.round", obs.M.FLRoundSeconds).WithRound(t)
		s.runRound(m, cohort, nil, t, false, sp.Context())
		sp.End()
	}
}
