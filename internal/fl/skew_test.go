package fl

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// skewedCohort builds the paper-shaped federation: 10 clients of which 4
// are attackers (3x the local epochs on a poisoned, larger shard) at the
// contiguous indices [first, first+4). Client cost is skewed by
// construction, so under the claim loop which worker runs which client
// changes with the worker count and from run to run — the tests below pin
// that none of it is observable.
func skewedCohort(t *testing.T, first int) *Server {
	t.Helper()
	return buildCohort(t, 10, func(i int) bool { return i >= first && i < first+4 })
}

var errReporterDown = errors.New("injected report failure")

// downReporter is a report client whose fallible surface always fails: the
// remote stub behind a dead link.
type downReporter struct{ core.ReportClient }

func (downReporter) TryRankReport(context.Context, *nn.Sequential, int) ([]int, error) {
	return nil, errReporterDown
}

func (downReporter) TryVoteReport(context.Context, *nn.Sequential, int, float64) ([]bool, error) {
	return nil, errReporterDown
}

// skewedCase places the attackers and picks the failure injection.
type skewedCase struct {
	name  string
	first int  // attackers sit at [first, first+4)
	drop  bool // train under a RandomDrop policy
	down  int  // index of a client whose reports fail, or -1
}

// skewedOutcome is everything a worker count could leak into.
type skewedOutcome struct {
	Completed [][]int
	Trained   []float64
	Tuned     []float64
	RAP, MVP  core.PruneOrderResult
}

// runSkewed trains, fine-tunes and collects every report kind over one
// skewed cohort under w workers, returning the trained model and the
// report clients beside the outcome.
func runSkewed(t *testing.T, w int, tc skewedCase) (skewedOutcome, *nn.Sequential, []core.ReportClient) {
	t.Helper()
	prev := parallel.SetWorkers(w)
	defer parallel.SetWorkers(prev)
	s := skewedCohort(t, tc.first)
	if tc.drop {
		s.Drop = RandomDrop{P: 0.3, Seed: 77}
	}
	var out skewedOutcome
	for r := 0; r < s.Config().Rounds; r++ {
		out.Completed = append(out.Completed, s.RoundDetail(r).Completed)
	}
	out.Trained = s.Model.ParamsVector()
	tuned := s.Model.Clone()
	s.FineTune(tuned, 1)
	out.Tuned = tuned.ParamsVector()

	clients := ReportClients(s.Participants)
	if tc.down >= 0 {
		clients[tc.down] = downReporter{clients[tc.down]}
	}
	li := s.Model.LastConvIndex()
	out.RAP = core.GlobalPruneOrderDetail(s.Model, clients, li, core.PipelineConfig{Method: core.RAP})
	out.MVP = core.GlobalPruneOrderDetail(s.Model, clients, li, core.PipelineConfig{Method: core.MVP, VoteRate: 0.5})
	return out, s.Model, clients
}

// perClientCloneReports is the collection the per-worker clones replaced:
// every client on a fresh clone of its own, serially, failed clients left
// out, aggregated in client order.
func perClientCloneReports(m *nn.Sequential, clients []core.ReportClient, li int) (rap, mvp []int) {
	var ranks [][]int
	var votes [][]bool
	for _, c := range clients {
		if _, isDown := c.(downReporter); isDown {
			continue
		}
		ranks = append(ranks, c.RankReport(m.Clone(), li))
		votes = append(votes, c.VoteReport(m.Clone(), li, 0.5))
	}
	return core.PruneOrderFromRanks(core.AggregateRanks(ranks)),
		core.PruneOrderFromVotes(core.AggregateVotes(votes))
}

// TestSkewedCohortBitIdenticalAcrossWorkers: rounds, fine-tuning and both
// report collections over the paper's skewed cohort are
// bit-identical at workers 1/2/3/8, wherever the attackers sit, with a
// DropPolicy and with a report client that fails — and the per-worker
// clones give exactly the reports per-client clones gave.
func TestSkewedCohortBitIdenticalAcrossWorkers(t *testing.T) {
	cases := []skewedCase{
		{name: "attackers 5-8", first: 5, down: -1},
		{name: "attackers 0-3", first: 0, down: -1},
		{name: "attackers 5-8, drop policy", first: 5, drop: true, down: -1},
		{name: "attackers 0-3, failing reporter", first: 0, down: 2},
	}
	workers := []int{2, 3, 8}
	if testing.Short() {
		// The race job: each placement once, under its failure injection,
		// against one odd fan-out.
		cases, workers = cases[2:], []int{3}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, model, clients := runSkewed(t, 1, tc)
			if tc.down >= 0 {
				want := []int{tc.down}
				if !reflect.DeepEqual(ref.RAP.Dropped, want) || !reflect.DeepEqual(ref.MVP.Dropped, want) {
					t.Fatalf("dropped reporters RAP %v MVP %v, want %v",
						ref.RAP.Dropped, ref.MVP.Dropped, want)
				}
			}
			for _, w := range workers {
				got, _, _ := runSkewed(t, w, tc)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("workers=%d differs from workers=1:\n got %+v\nwant %+v", w, summarize(got), summarize(ref))
				}
			}
			rap, mvp := perClientCloneReports(model, clients, model.LastConvIndex())
			if !reflect.DeepEqual(ref.RAP.Order, rap) || !reflect.DeepEqual(ref.MVP.Order, mvp) {
				t.Fatalf("per-worker clones changed the reports: RAP %v vs %v, MVP %v vs %v",
					ref.RAP.Order, rap, ref.MVP.Order, mvp)
			}
		})
	}
}

// summarize trims the parameter vectors out of a failure message.
func summarize(o skewedOutcome) skewedOutcome {
	o.Trained, o.Tuned = o.Trained[:4], o.Tuned[:4]
	return o
}
