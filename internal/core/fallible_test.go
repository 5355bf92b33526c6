package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
)

// flakyReportClient is a fakeReportClient whose fallible surface fails on
// demand, standing in for a remote stub behind a bad network.
type flakyReportClient struct {
	fakeReportClient
	failRanks, failVotes bool
}

var errFlaky = errors.New("injected report failure")

func (f *flakyReportClient) TryRankReport(_ context.Context, m *nn.Sequential, li int) ([]int, error) {
	if f.failRanks {
		return nil, errFlaky
	}
	return f.RankReport(m, li), nil
}

func (f *flakyReportClient) TryVoteReport(_ context.Context, m *nn.Sequential, li int, p float64) ([]bool, error) {
	if f.failVotes {
		return nil, errFlaky
	}
	return f.VoteReport(m, li, p), nil
}

// nilReportClient models a remote stub's infallible surface after a wire
// failure: nil reports.
type nilReportClient struct{}

func (nilReportClient) RankReport(*nn.Sequential, int) []int           { return nil }
func (nilReportClient) VoteReport(*nn.Sequential, int, float64) []bool { return nil }

// requireQuorumError fails unless err is the *ReportQuorumError of a
// collection in which arrived of cohort reports came where need were due.
func requireQuorumError(t *testing.T, err error, arrived, cohort, need int) {
	t.Helper()
	var qe *ReportQuorumError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want a *ReportQuorumError", err)
	}
	if want := (ReportQuorumError{Arrived: arrived, Cohort: cohort, Need: need}); *qe != want {
		t.Fatalf("quorum error %+v, want %+v", *qe, want)
	}
}

// requireSameParams fails unless m's parameters are want, bit for bit.
func requireSameParams(t *testing.T, m *nn.Sequential, want []float64) {
	t.Helper()
	for i, v := range m.ParamsVector() {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("param %d = %v, want the input's %v", i, v, want[i])
		}
	}
}

// TestGlobalPruneOrderSkipsFailedReports: a cohort with wire failures must
// aggregate bit-identically to the same cohort with the failed clients
// removed, for both pruning methods.
func TestGlobalPruneOrderSkipsFailedReports(t *testing.T) {
	m := pipelineModel(90)
	healthy := []ReportClient{
		&fakeReportClient{acts: []float64{5, 4, 3, 2, 0.1, 0.2}},
		&fakeReportClient{acts: []float64{4, 5, 2, 3, 0.2, 0.1}},
	}
	failing := &flakyReportClient{
		fakeReportClient: fakeReportClient{acts: []float64{0.1, 0.2, 5, 4, 3, 2}},
		failRanks:        true, failVotes: true,
	}
	mixed := []ReportClient{healthy[0], failing, healthy[1]}

	for _, method := range []PruneMethod{RAP, MVP} {
		cfg := PipelineConfig{Method: method, VoteRate: 0.5}
		res := GlobalPruneOrderDetail(m, mixed, 0, cfg)
		want := GlobalPruneOrder(m, healthy, 0, cfg)
		if len(res.Order) != len(want) {
			t.Fatalf("%v: order length %d, want %d", method, len(res.Order), len(want))
		}
		for i := range want {
			if res.Order[i] != want[i] {
				t.Fatalf("%v: order %v, want %v (failed client leaked into aggregate)",
					method, res.Order, want)
			}
		}
		if len(res.Dropped) != 1 || res.Dropped[0] != 1 {
			t.Fatalf("%v: dropped %v, want [1]", method, res.Dropped)
		}
		if len(res.Responded) != 2 || res.Responded[0] != 0 || res.Responded[1] != 2 {
			t.Fatalf("%v: responded %v, want [0 2]", method, res.Responded)
		}
	}
}

// TestGlobalPruneOrderNilReportIsDropout: the infallible surface's nil
// report (a remote stub after a failed call) counts as a dropout too.
func TestGlobalPruneOrderNilReportIsDropout(t *testing.T) {
	m := pipelineModel(91)
	clients := []ReportClient{
		&fakeReportClient{acts: []float64{5, 4, 3, 2, 0.1, 0.2}},
		nilReportClient{},
	}
	cfg := PipelineConfig{Method: MVP, VoteRate: 0.5}
	res := GlobalPruneOrderDetail(m, clients, 0, cfg)
	if len(res.Dropped) != 1 || res.Dropped[0] != 1 {
		t.Fatalf("dropped %v, want [1]", res.Dropped)
	}
}

// cannedReportClient returns fixed reports, whatever the model's shape.
type cannedReportClient struct {
	ranks []int
	votes []bool
}

func (c cannedReportClient) RankReport(*nn.Sequential, int) []int           { return c.ranks }
func (c cannedReportClient) VoteReport(*nn.Sequential, int, float64) []bool { return c.votes }

// TestMalformedReportIsDropout: a report the aggregators cannot take — a
// length other than the cohort's 6 units, or a rank outside [1, 6] — drops
// its client, and the pipeline prunes exactly as the cohort without
// it would. An in-range rank report that is not a permutation (the §VI-B
// rank manipulator's) is aggregated, not dropped.
func TestMalformedReportIsDropout(t *testing.T) {
	healthy := []ReportClient{
		&fakeReportClient{acts: []float64{5, 4, 3, 2, 0.1, 0.2}},
		&fakeReportClient{acts: []float64{4, 5, 2, 3, 0.2, 0.1}},
	}
	cases := []struct {
		name    string
		method  PruneMethod
		bad     cannedReportClient
		dropped bool
	}{
		{"ranks too short", RAP, cannedReportClient{ranks: []int{1, 2, 3, 4, 5}}, true},
		{"ranks too long", RAP, cannedReportClient{ranks: []int{1, 2, 3, 4, 5, 6, 7}}, true},
		{"rank 0", RAP, cannedReportClient{ranks: []int{0, 2, 3, 4, 5, 6}}, true},
		{"rank units+1", RAP, cannedReportClient{ranks: []int{1, 2, 3, 4, 5, 7}}, true},
		{"votes wrong length", MVP, cannedReportClient{votes: []bool{true, false, true, false, true}}, true},
		{"in-range non-permutation", RAP, cannedReportClient{ranks: []int{6, 6, 6, 6, 6, 6}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultPipelineConfig()
			cfg.Method = tc.method
			cfg.TargetLayer = 0
			cfg.FineTuneRounds = 0
			eval := twoPrunes(0.95)
			mixed := []ReportClient{healthy[0], tc.bad, healthy[1]}
			rep := RunPipeline(pipelineModel(97), mixed, nil, eval, cfg)
			if !tc.dropped {
				if len(rep.ReportDropouts) != 0 {
					t.Fatalf("report dropouts %v, want none", rep.ReportDropouts)
				}
				return
			}
			if len(rep.ReportDropouts) != 1 || rep.ReportDropouts[0] != 1 {
				t.Fatalf("report dropouts %v, want [1]", rep.ReportDropouts)
			}
			want := RunPipeline(pipelineModel(97), healthy, nil, eval, cfg)
			if !reflect.DeepEqual(rep.Prune.Pruned, want.Prune.Pruned) {
				t.Fatalf("pruned %v, want %v (malformed report leaked into the aggregate)",
					rep.Prune.Pruned, want.Prune.Pruned)
			}
			// The malformed report counts against the quorum like a lost one:
			// the pipeline stops after collection with the model untouched.
			cfg.ReportQuorum = 1
			m := pipelineModel(97)
			in := m.ParamsVector()
			rep = RunPipeline(m, mixed, nil, eval, cfg)
			requireQuorumError(t, rep.Err, 2, 3, 3)
			requireSameParams(t, m, in)
			if len(rep.Prune.Pruned) != 0 {
				t.Fatalf("pruned %v below quorum", rep.Prune.Pruned)
			}
		})
	}

	// The width is the cohort's, not the model's: a fleet of synthetic
	// clients reporting 8 units against the 6-unit layer is well-formed.
	wide := cannedReportClient{ranks: []int{8, 7, 6, 5, 4, 3, 2, 1}}
	res := GlobalPruneOrderDetail(pipelineModel(98), []ReportClient{wide, wide}, 0, PipelineConfig{Method: RAP})
	if len(res.Dropped) != 0 || len(res.Order) != 8 {
		t.Fatalf("8-unit cohort: dropped %v, order %v", res.Dropped, res.Order)
	}
}

// TestRunPipelineDropsReportsOffTheLayerWidth: RunPipeline's collection
// takes the target layer's width, not the cohort's. Six of ten clients
// report twice the layer's six units; at the cohort's width their order
// reached PruneToThreshold and indexed past the layer. They are dropouts:
// the run completes at quorum 0 on the four others' order, and at 0.5
// returns the quorum error with the model untouched.
func TestRunPipelineDropsReportsOffTheLayerWidth(t *testing.T) {
	acts := []float64{5, 4, 3, 2, 0.1, 0.2}
	clients := make([]ReportClient, 10)
	for i := range clients {
		a := acts
		if i < 6 {
			a = append(append([]float64(nil), acts...), acts...)
		}
		clients[i] = &fakeReportClient{acts: a}
	}
	eval := twoPrunes(0.9)
	for _, method := range []PruneMethod{RAP, MVP} {
		cfg := DefaultPipelineConfig()
		cfg.Method, cfg.TargetLayer, cfg.FineTuneRounds = method, 0, 0
		rep := RunPipeline(pipelineModel(99), clients, nil, eval, cfg)
		if !reflect.DeepEqual(rep.ReportDropouts, []int{0, 1, 2, 3, 4, 5}) {
			t.Fatalf("%v: dropouts %v, want the six wide reports", method, rep.ReportDropouts)
		}
		want := GlobalPruneOrder(pipelineModel(99), clients[6:], 0, cfg)[:2]
		if !reflect.DeepEqual(rep.Prune.Pruned, want) {
			t.Fatalf("%v: pruned %v, want %v from the well-formed reports", method, rep.Prune.Pruned, want)
		}
		cfg.ReportQuorum = 0.5
		before := obs.M.DefenseReportQuorumFailures.Value()
		m := pipelineModel(99)
		in := m.ParamsVector()
		rep = RunPipeline(m, clients, nil, eval, cfg)
		requireQuorumError(t, rep.Err, 4, 10, 5)
		requireSameParams(t, m, in)
		if got := obs.M.DefenseReportQuorumFailures.Value() - before; got != 1 {
			t.Errorf("%v: %d quorum failures counted, want 1", method, got)
		}
	}
}

// TestGlobalPruneOrderQuorumMissIsAnError: too many failures abort the
// collection with a *ReportQuorumError and no order, and the telemetry
// still says who answered.
func TestGlobalPruneOrderQuorumMissIsAnError(t *testing.T) {
	m := pipelineModel(92)
	clients := []ReportClient{
		&fakeReportClient{acts: []float64{5, 4, 3, 2, 0.1, 0.2}},
		&flakyReportClient{failRanks: true, failVotes: true},
		&flakyReportClient{failRanks: true, failVotes: true},
	}
	cfg := PipelineConfig{Method: MVP, VoteRate: 0.5, ReportQuorum: 0.67}
	res := GlobalPruneOrderDetail(m, clients, 0, cfg)
	requireQuorumError(t, res.Err, 1, 3, 3)
	if res.Order != nil || !reflect.DeepEqual(res.Responded, []int{0}) || !reflect.DeepEqual(res.Dropped, []int{1, 2}) {
		t.Fatalf("order %v, responded %v, dropped %v; want no order, [0], [1 2]", res.Order, res.Responded, res.Dropped)
	}
}

// TestGlobalPruneOrderAllFailedPanics: with every report lost there is
// nothing to aggregate, quorum or not. GlobalPruneOrderDetail returns the
// error; GlobalPruneOrder, which only in-process experiments call, panics
// with it.
func TestGlobalPruneOrderAllFailedPanics(t *testing.T) {
	m := pipelineModel(93)
	clients := []ReportClient{&flakyReportClient{failRanks: true, failVotes: true}}
	cfg := PipelineConfig{Method: RAP}
	requireQuorumError(t, GlobalPruneOrderDetail(m, clients, 0, cfg).Err, 0, 1, 1)
	defer func() {
		err, _ := recover().(error)
		requireQuorumError(t, err, 0, 1, 1)
	}()
	GlobalPruneOrder(m, clients, 0, cfg)
}

// TestRunPipelineRecordsReportDropouts: the pipeline report surfaces which
// clients' prune reports were lost.
func TestRunPipelineRecordsReportDropouts(t *testing.T) {
	m := pipelineModel(96)
	clients := []ReportClient{
		&fakeReportClient{acts: []float64{5, 4, 3, 2, 0.1, 0.2}},
		&flakyReportClient{
			fakeReportClient: fakeReportClient{acts: []float64{1, 1, 1, 1, 1, 1}},
			failRanks:        true, failVotes: true,
		},
	}
	eval := twoPrunes(0.95)
	cfg := DefaultPipelineConfig()
	cfg.TargetLayer = 0
	cfg.FineTuneRounds = 0
	rep := RunPipeline(m, clients, nil, eval, cfg)
	if len(rep.ReportDropouts) != 1 || rep.ReportDropouts[0] != 1 {
		t.Fatalf("report dropouts %v, want [1]", rep.ReportDropouts)
	}
}
