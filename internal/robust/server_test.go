package robust

import (
	"bytes"
	"log/slog"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
)

// minimumRules are the rules with a cohort-size precondition.
var minimumRules = []fl.Aggregator{TrimmedMean{Trim: 1}, Krum{F: 1}, MultiKrum{F: 1}, Bulyan{F: 1}}

// syntheticServer is a server over n synthetic clients aggregating with
// rule.
func syntheticServer(rule fl.Aggregator, n int) *fl.Server {
	template := nn.NewSequential(nn.NewDense("d", 3, 2, rand.New(rand.NewSource(4))))
	parts := make([]fl.Participant, n)
	for i := range parts {
		parts[i] = &fl.SyntheticClient{Id: i, Seed: 6}
	}
	s := fl.NewServer(template, parts, fl.Config{Rounds: 20}, 7)
	s.Agg = rule
	return s
}

// TestRoundsBelowTheRuleMinimumAreDiscarded: with the default quorum and
// nine clients in ten dropping, rounds deliver fewer updates than the
// rules take. Each such round is discarded like a below-quorum round —
// not applied, counted into fl_quorum_failures_total, one warning — and
// the server survives all twenty.
func TestRoundsBelowTheRuleMinimumAreDiscarded(t *testing.T) {
	var logs bytes.Buffer
	obs.SetLogger(slog.New(obs.NewConsoleHandler(&logs, slog.LevelWarn)))
	defer obs.SetLogger(nil)
	for _, rule := range append([]fl.Aggregator{Median{}}, minimumRules...) {
		need := 1
		if cm, ok := rule.(fl.CohortMinimum); ok {
			need = cm.MinUpdates()
		}
		s := syntheticServer(rule, 10)
		s.Drop = fl.RandomDrop{P: 0.9, Seed: 3}
		logs.Reset()
		failures0 := obs.M.FLQuorumFailures.Value()
		refused := 0
		for r := 0; r < 20; r++ {
			res := s.RoundDetail(r)
			if below := len(res.Completed) < need; res.Applied == below {
				t.Fatalf("%T round %d: %d of min %d arrived, applied %v", rule, r, len(res.Completed), need, res.Applied)
			} else if below {
				refused++
			}
		}
		if refused == 0 && need > 1 {
			t.Fatalf("%T: no round fell below the minimum %d; the setup no longer exercises the discard", rule, need)
		}
		if got := obs.M.FLQuorumFailures.Value() - failures0; got != uint64(refused) {
			t.Fatalf("%T: %d quorum failures counted for %d refused rounds", rule, got, refused)
		}
		if got := strings.Count(logs.String(), "below quorum"); got != refused {
			t.Fatalf("%T: %d warnings for %d refused rounds:\n%s", rule, got, refused, logs.String())
		}
	}
}

// TestRulesAtTheirMinimum: a round that delivers exactly a rule's minimum
// applies what the rule computes from the same deltas; one update fewer and
// the round is refused, leaving the model as it was.
func TestRulesAtTheirMinimum(t *testing.T) {
	for _, rule := range minimumRules {
		need := rule.(fl.CohortMinimum).MinUpdates()
		s := syntheticServer(rule, need)
		global := s.Model.ParamsVector()
		deltas := make([][]float64, need)
		for i, p := range s.Participants {
			deltas[i] = p.LocalUpdate(global, 0)
		}
		want := s.Model.Clone()
		want.AddDeltaVector(1, rule.Aggregate(deltas))
		if res := s.RoundDetail(0); !res.Applied {
			t.Fatalf("%T: a round of %d updates was refused", rule, need)
		}
		wantV := want.ParamsVector()
		for i, v := range s.Model.ParamsVector() {
			if w := wantV[i]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%T: param %d = %v after the round, %v from the rule called directly", rule, i, v, w)
			}
		}

		s = syntheticServer(rule, need-1)
		before := s.Model.ParamsVector()
		if res := s.RoundDetail(0); res.Applied {
			t.Fatalf("%T: a round of %d updates, below the minimum %d, was applied", rule, need-1, need)
		}
		for i, v := range s.Model.ParamsVector() {
			if math.Float64bits(v) != math.Float64bits(before[i]) {
				t.Fatalf("%T: refused round moved param %d", rule, i)
			}
		}
	}
}
