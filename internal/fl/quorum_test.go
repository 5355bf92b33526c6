package fl

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// wireFailing wraps a Participant so its fallible surface errors without
// touching the wrapped client — the client never trains, exactly as if a
// remote stub's server were unreachable. Rounds driven over it must
// therefore aggregate bit-identically to rounds where DropPolicy excluded
// the same client up front.
type wireFailing struct {
	Participant
	fail bool
}

var errWire = errors.New("injected wire failure")

func (w *wireFailing) TryLocalUpdate(_ context.Context, global []float64, round int) ([]float64, error) {
	if w.fail {
		return nil, errWire
	}
	return w.Participant.LocalUpdate(global, round), nil
}

// buildQuorumFederation rebuilds the buildFederation population from the
// same seeds, with cfg.Quorum set and each participant optionally wrapped
// in a wire-failure shim. failIDs == nil leaves participants unwrapped so
// the run exercises the plain DropPolicy path.
func buildQuorumFederation(t *testing.T, quorum float64, failIDs map[int]bool) *Server {
	t.Helper()
	train, _, template, cfg := tinySetup(t, 21)
	cfg.Quorum = quorum
	const clients = 6
	shards := dataset.PartitionKLabel(train, clients, 3, 40, rand.New(rand.NewSource(22)))
	parts := make([]Participant, clients)
	for i := 0; i < clients; i++ {
		if i == 0 {
			poison := dataset.PoisonConfig{
				Trigger:     dataset.PixelPattern(3, dataset.Shape{C: 1, H: 16, W: 16}),
				VictimLabel: 9,
				TargetLabel: 2,
				Copies:      2,
			}
			parts[i] = NewAttacker(i, shards[i], template, cfg, poison, 3, 100)
		} else {
			parts[i] = NewClient(i, shards[i], template, cfg, 200+int64(i))
		}
		if failIDs != nil {
			parts[i] = &wireFailing{Participant: parts[i], fail: failIDs[i]}
		}
	}
	return NewServer(template, parts, cfg, 300)
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuorumRoundsMatchDropPolicyRuns is the dropout-equivalence table: a
// training run in which a fixed set of clients fails on the wire must be
// bit-identical — parameters and round telemetry — to a run in which the
// same set is dropped by the in-process DropPolicy, for 0, minority and
// majority dropouts, at worker counts 1, 2 and 8.
func TestQuorumRoundsMatchDropPolicyRuns(t *testing.T) {
	cases := []struct {
		name    string
		fail    map[int]bool
		quorum  float64
		applied bool
	}{
		{"no dropouts", map[int]bool{}, 0.5, true},
		{"minority dropout", map[int]bool{2: true}, 0.5, true},
		{"exact quorum", map[int]bool{1: true, 2: true, 3: true}, 0.5, true},
		{"below quorum", map[int]bool{1: true, 2: true, 3: true, 4: true}, 0.5, false},
		{"majority dropout no quorum", map[int]bool{1: true, 2: true, 3: true, 4: true}, 0, true},
	}
	type runOut struct {
		params []float64
		rounds []RoundResult
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(w int, wire bool) runOut {
				prev := parallel.SetWorkers(w)
				defer parallel.SetWorkers(prev)
				var s *Server
				if wire {
					s = buildQuorumFederation(t, tc.quorum, tc.fail)
				} else {
					s = buildQuorumFederation(t, tc.quorum, nil)
					s.Drop = dropIDs(tc.fail)
				}
				var rounds []RoundResult
				for r := 0; r < s.Config().Rounds; r++ {
					rounds = append(rounds, s.RoundDetail(r))
				}
				return runOut{params: s.Model.ParamsVector(), rounds: rounds}
			}
			ref := run(1, false)
			for _, res := range ref.rounds {
				if res.Applied != tc.applied {
					t.Fatalf("drop run round %d applied=%v, want %v", res.Round, res.Applied, tc.applied)
				}
			}
			for _, w := range []int{1, 2, 8} {
				got := run(w, true)
				for i := range got.params {
					if got.params[i] != ref.params[i] {
						t.Fatalf("workers=%d: param %d = %v, want %v (wire failures diverge from policy drops)",
							w, i, got.params[i], ref.params[i])
					}
				}
				for r, res := range got.rounds {
					want := ref.rounds[r]
					if !sameInts(res.Completed, want.Completed) {
						t.Fatalf("workers=%d round %d: completed %v, want %v", w, r, res.Completed, want.Completed)
					}
					if !sameInts(res.Dropped, want.Dropped) {
						t.Fatalf("workers=%d round %d: dropped %v, want %v", w, r, res.Dropped, want.Dropped)
					}
					if !sameInts(res.Selected, want.Selected) {
						t.Fatalf("workers=%d round %d: selected %v, want %v", w, r, res.Selected, want.Selected)
					}
					if res.Applied != want.Applied {
						t.Fatalf("workers=%d round %d: applied=%v, want %v", w, r, res.Applied, want.Applied)
					}
					if len(res.Errs) != len(tc.fail) {
						t.Fatalf("workers=%d round %d: %d transport errors recorded, want %d",
							w, r, len(res.Errs), len(tc.fail))
					}
					for id := range tc.fail {
						if !errors.Is(res.Errs[id], errWire) {
							t.Fatalf("workers=%d round %d: client %d error %v, want errWire", w, r, id, res.Errs[id])
						}
					}
					if want.Errs != nil {
						t.Fatalf("policy drops recorded transport errors: %v", want.Errs)
					}
				}
			}
		})
	}
}

// TestFineTuneMatchesDropPolicyRun extends the equivalence to the defense's
// fine-tuning loop, which shares Round's machinery.
func TestFineTuneMatchesDropPolicyRun(t *testing.T) {
	fail := map[int]bool{2: true, 5: true}
	run := func(w int, wire bool) []float64 {
		prev := parallel.SetWorkers(w)
		defer parallel.SetWorkers(prev)
		var s *Server
		if wire {
			s = buildQuorumFederation(t, 0.5, fail)
		} else {
			s = buildQuorumFederation(t, 0.5, nil)
			s.Drop = dropIDs(fail)
		}
		m := s.Model.Clone()
		s.FineTune(m, 2)
		return m.ParamsVector()
	}
	ref := run(1, false)
	for _, w := range []int{1, 2, 8} {
		got := run(w, true)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: fine-tuned param %d diverges between wire failures and policy drops", w, i)
			}
		}
	}
}

// TestFineTuneHonorsAggAndDrop pins the fix for FineTune hard-coding
// MeanAggregator: the configured rule and the drop policy must both apply
// to fine-tuning rounds.
func TestFineTuneHonorsAggAndDrop(t *testing.T) {
	_, _, template, cfg := tinySetup(t, 70)
	n := template.NumParams()
	parts := []Participant{
		&fakeParticipant{id: 0, delta: ones(n)},
		&fakeParticipant{id: 1, delta: scaled(n, 5)},
		&fakeParticipant{id: 2, delta: scaled(n, 100)}, // dropped
	}
	srv := NewServer(template, parts, cfg, 71)
	srv.Agg = sumAgg{}
	srv.Drop = dropIDs{2: true}
	m := srv.Model.Clone()
	before := m.ParamsVector()
	srv.FineTune(m, 1)
	after := m.ParamsVector()
	// The survivors' sum is 1 + 5 = 6; a sum over all three would be 106
	// and the mean of the survivors 3.
	for i := range after {
		if math.Abs(after[i]-(before[i]+6)) > 1e-12 {
			t.Fatalf("param %d: %g -> %g, want +6 (FineTune ignored Agg or Drop)", i, before[i], after[i])
		}
	}
}

// sumAgg is a rule other than the mean: the coordinate-wise sum.
type sumAgg struct{}

func (sumAgg) Aggregate(deltas [][]float64) []float64 {
	out := make([]float64, len(deltas[0]))
	for _, d := range deltas {
		for j, v := range d {
			out[j] += v
		}
	}
	return out
}

// TestFineTuneBelowQuorumIsNoOp: fine-tuning rounds observe the same
// quorum rule as training rounds.
func TestFineTuneBelowQuorumIsNoOp(t *testing.T) {
	_, _, template, cfg := tinySetup(t, 72)
	cfg.Quorum = 0.75
	n := template.NumParams()
	parts := []Participant{
		&fakeParticipant{id: 0, delta: ones(n)},
		&fakeParticipant{id: 1, delta: ones(n)},
	}
	srv := NewServer(template, parts, cfg, 73)
	srv.Drop = dropIDs{1: true} // 1 of 2 responds < ceil(0.75·2)=2
	m := srv.Model.Clone()
	before := m.ParamsVector()
	srv.FineTune(m, 1)
	after := m.ParamsVector()
	for i := range after {
		if after[i] != before[i] {
			t.Fatal("below-quorum fine-tune round modified the model")
		}
	}
}
