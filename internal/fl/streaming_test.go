package fl

import (
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// The streaming equivalence suite: every streaming round must be
// bit-identical — parameters AND telemetry — to the batch round it
// replaces, for every shard count, worker count and dropout set. This is
// the contract that lets the scale path ship without forking the
// repository's numeric baselines.

// streamRun drives a full quorum-federation training run with the given
// streaming knobs and returns final parameters plus per-round telemetry.
func streamRun(t *testing.T, workers, shards, window int, streaming bool,
	quorum float64, fail map[int]bool, wire bool) ([]float64, []RoundResult) {
	t.Helper()
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	var s *Server
	if wire {
		s = buildQuorumFederation(t, quorum, fail)
	} else {
		s = buildQuorumFederation(t, quorum, nil)
		if len(fail) > 0 {
			s.Drop = dropIDs(fail)
		}
	}
	s.cfg.Streaming = streaming
	s.cfg.Shards = shards
	s.cfg.StreamWindow = window
	var rounds []RoundResult
	for r := 0; r < s.Config().Rounds; r++ {
		rounds = append(rounds, s.RoundDetail(r))
	}
	return s.Model.ParamsVector(), rounds
}

// TestStreamingRoundsMatchBatchRounds is the tentpole table: streaming
// training runs, swept over shards {1,2,8} × workers {1,2,8}, against the
// single-worker batch reference — with no dropouts, a wire-failing
// minority, a policy-dropped minority, and a below-quorum round that must
// leave the model untouched on both paths.
func TestStreamingRoundsMatchBatchRounds(t *testing.T) {
	cases := []struct {
		name    string
		fail    map[int]bool
		wire    bool
		quorum  float64
		applied bool
	}{
		{"no dropouts", nil, false, 0.5, true},
		{"wire minority", map[int]bool{2: true, 4: true}, true, 0.5, true},
		{"policy minority", map[int]bool{1: true}, false, 0.5, true},
		{"below quorum", map[int]bool{1: true, 2: true, 3: true, 4: true}, true, 0.5, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			refParams, refRounds := streamRun(t, 1, 0, 0, false, tc.quorum, tc.fail, tc.wire)
			for _, res := range refRounds {
				if res.Applied != tc.applied {
					t.Fatalf("batch reference round %d applied=%v, want %v", res.Round, res.Applied, tc.applied)
				}
				if res.PeakInFlight != 0 {
					t.Fatalf("batch round reported PeakInFlight=%d, want 0", res.PeakInFlight)
				}
			}
			for _, shards := range []int{1, 2, 8} {
				for _, workers := range []int{1, 2, 8} {
					params, rounds := streamRun(t, workers, shards, 0, true, tc.quorum, tc.fail, tc.wire)
					for i := range params {
						if params[i] != refParams[i] {
							t.Fatalf("shards=%d workers=%d: param %d = %v, want %v (streaming diverges from batch)",
								shards, workers, i, params[i], refParams[i])
						}
					}
					for r, res := range rounds {
						want := refRounds[r]
						if !sameInts(res.Selected, want.Selected) ||
							!sameInts(res.Completed, want.Completed) ||
							!sameInts(res.Dropped, want.Dropped) ||
							res.Applied != want.Applied {
							t.Fatalf("shards=%d workers=%d round %d: %+v, want %+v", shards, workers, r, res, want)
						}
						if len(res.Completed) > 0 && res.PeakInFlight < 1 {
							t.Fatalf("shards=%d workers=%d round %d: PeakInFlight=%d with %d completions",
								shards, workers, r, res.PeakInFlight, len(res.Completed))
						}
					}
				}
			}
		})
	}
}

// TestStreamingWindowBoundsInFlight: with a window of 2, a cohort of 12
// never holds more than 2 trained-but-unfolded updates, whatever the
// worker count — the memory bound that lets cohort size outgrow RAM.
func TestStreamingWindowBoundsInFlight(t *testing.T) {
	_, _, template, cfg := tinySetup(t, 71)
	cfg.Streaming = true
	cfg.StreamWindow = 2
	n := template.NumParams()
	var parts []Participant
	for i := 0; i < 12; i++ {
		parts = append(parts, &fakeParticipant{id: i, delta: scaled(n, float64(i+1))})
	}
	for _, w := range []int{1, 8} {
		prev := parallel.SetWorkers(w)
		srv := NewServer(template, parts, cfg, 72)
		res := srv.RoundDetail(0)
		parallel.SetWorkers(prev)
		if !res.Applied || len(res.Completed) != 12 {
			t.Fatalf("workers=%d: round %+v", w, res)
		}
		if res.PeakInFlight < 1 || res.PeakInFlight > 2 {
			t.Fatalf("workers=%d: PeakInFlight=%d, want within [1,2]", w, res.PeakInFlight)
		}
	}
}

// batchOnlyAgg aggregates but cannot stream — the stand-in for the
// Byzantine-robust rules.
type batchOnlyAgg struct{}

func (batchOnlyAgg) Aggregate(deltas [][]float64) []float64 {
	return MeanAggregator{}.Aggregate(deltas)
}

// TestStreamingFallsBackForBatchOnlyRules: a streaming server over an
// aggregator that cannot fold runs the batch path — identical result,
// zero PeakInFlight — and counts the fallback.
func TestStreamingFallsBackForBatchOnlyRules(t *testing.T) {
	_, _, template, cfg := tinySetup(t, 75)
	n := template.NumParams()
	parts := []Participant{
		&fakeParticipant{id: 0, delta: ones(n)},
		&fakeParticipant{id: 1, delta: scaled(n, 3)},
	}
	ref := NewServer(template, parts, cfg, 76)
	ref.Agg = batchOnlyAgg{}
	ref.RoundDetail(0)

	cfg.Streaming = true
	srv := NewServer(template, parts, cfg, 76)
	srv.Agg = batchOnlyAgg{}
	before := obs.M.FLStreamFallbacks.Value()
	res := srv.RoundDetail(0)
	if got := obs.M.FLStreamFallbacks.Value() - before; got != 1 {
		t.Fatalf("fallback counter moved by %d, want 1", got)
	}
	if res.PeakInFlight != 0 {
		t.Fatalf("fallback round reported PeakInFlight=%d, want 0 (batch path)", res.PeakInFlight)
	}
	want := ref.Model.ParamsVector()
	got := srv.Model.ParamsVector()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("param %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestShardedFoldMatchesAggregate is the unit-level bit-identity check:
// folding random deltas one at a time equals the one-shot Aggregate,
// bitwise, for shard counts beyond the coordinate count.
func TestShardedFoldMatchesAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const dim, clients = 37, 9
	deltas := make([][]float64, clients)
	for i := range deltas {
		deltas[i] = make([]float64, dim)
		for j := range deltas[i] {
			deltas[i][j] = rng.NormFloat64()
		}
	}
	for _, shards := range []int{1, 2, 3, 8, 64} {
		// Fold takes each delta over and recycles it, so it is fed copies.
		fold := MeanAggregator{}.BeginFold(dim, shards, nil)
		for i, d := range deltas {
			fold.Fold(i, append([]float64(nil), d...))
		}
		got := fold.Finish()
		want := MeanAggregator{}.Aggregate(deltas)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("shards=%d: coord %d = %v, want %v", shards, j, got[j], want[j])
			}
		}
	}
}

// TestFoldContract pins the Fold lifecycle: nil aggregate when nothing
// folded, panic on reuse after Finish, on double Finish and on a
// mismatched delta length.
func TestFoldContract(t *testing.T) {
	if got := (MeanAggregator{}).BeginFold(4, 2, nil).Finish(); got != nil {
		t.Fatalf("empty fold returned %v, want nil", got)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	f := MeanAggregator{}.BeginFold(4, 1, nil)
	mustPanic("length mismatch", func() { f.Fold(0, make([]float64, 3)) })
	f.Fold(0, make([]float64, 4))
	f.Finish()
	mustPanic("fold after finish", func() { f.Fold(1, make([]float64, 4)) })
	mustPanic("double finish", func() { f.Finish() })
}
