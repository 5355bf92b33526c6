package core

import (
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// fakeReportClient serves canned activations.
type fakeReportClient struct {
	acts []float64
}

func (f *fakeReportClient) RankReport(_ *nn.Sequential, _ int) []int {
	return RanksFromActivations(f.acts)
}

func (f *fakeReportClient) VoteReport(_ *nn.Sequential, _ int, p float64) []bool {
	return VotesFromActivations(f.acts, p)
}

// fakeTuner counts fine-tune calls, whatever their int argument means.
type fakeTuner struct{ calls int }

func (f *fakeTuner) FineTune(*nn.Sequential, int) { f.calls++ }

// twoPrunes scores acc until more than two units of layer 0 are pruned,
// then 0: the accuracy guard stops pruning at two units.
func twoPrunes(acc float64) Evaluator {
	return func(m *nn.Sequential) float64 {
		if m.Layer(0).(nn.Prunable).PrunedCount() > 2 {
			return 0
		}
		return acc
	}
}

// pipelineModel returns a conv(6)->relu->flatten->dense model.
func pipelineModel(seed int64) *nn.Sequential {
	rng := rand.New(rand.NewSource(seed))
	d := tensor.ConvDims{C: 1, H: 4, W: 4, K: 3, Stride: 1, Pad: 1}
	return nn.NewSequential(
		nn.NewConv2D("conv", d, 6, rng),
		nn.NewReLU("relu"),
		nn.NewFlatten("flatten"),
		nn.NewDense("fc", 6*16, 3, rng),
	)
}

func TestRunPipelineAllStages(t *testing.T) {
	m := pipelineModel(70)
	// Units 4 and 5 are dormant for all clients: they get pruned first.
	clients := []ReportClient{
		&fakeReportClient{acts: []float64{5, 4, 3, 2, 0.1, 0.2}},
		&fakeReportClient{acts: []float64{4, 5, 2, 3, 0.2, 0.1}},
	}
	tuner := &fakeTuner{}
	eval := twoPrunes(0.95)
	cfg := DefaultPipelineConfig()
	cfg.TargetLayer = 0
	cfg.FineTuneRounds = 3
	cfg.FineTunePatience = 5 // eval is constant, patience must end it
	rep := RunPipeline(m, clients, tuner, eval, cfg)

	if rep.TargetLayer != 0 {
		t.Fatalf("target layer %d, want 0", rep.TargetLayer)
	}
	if len(rep.Prune.Pruned) != 2 {
		t.Fatalf("pruned %d units, want 2", len(rep.Prune.Pruned))
	}
	conv := m.Layer(0).(*nn.Conv2D)
	if !conv.UnitPruned(4) || !conv.UnitPruned(5) {
		t.Fatalf("wrong units pruned: %v", rep.Prune.Pruned)
	}
	if tuner.calls == 0 {
		t.Fatal("tuner never invoked")
	}
	if rep.AccBefore != 0.95 || rep.AccFinal != 0.95 {
		t.Fatalf("accuracy milestones %g/%g", rep.AccBefore, rep.AccFinal)
	}
}

func TestRunPipelineFineTuneEarlyStop(t *testing.T) {
	m := pipelineModel(71)
	clients := []ReportClient{&fakeReportClient{acts: []float64{1, 2, 3, 4, 5, 6}}}
	tuner := &fakeTuner{}
	eval := Evaluator(func(*nn.Sequential) float64 { return 0.9 }) // never improves
	cfg := DefaultPipelineConfig()
	cfg.TargetLayer = 0
	cfg.FineTuneRounds = 50
	cfg.FineTunePatience = 2
	RunPipeline(m, clients, tuner, eval, cfg)
	if tuner.calls != 2 {
		t.Fatalf("fine-tuned %d rounds, want early stop at 2", tuner.calls)
	}
}

func TestRunPipelineSkipFlags(t *testing.T) {
	eval := Evaluator(func(*nn.Sequential) float64 { return 1 })
	clients := []ReportClient{&fakeReportClient{acts: []float64{1, 2, 3, 4, 5, 6}}}

	m := pipelineModel(72)
	cfg := DefaultPipelineConfig()
	cfg.TargetLayer = 0
	cfg.SkipPrune = true
	cfg.FineTuneRounds = 0
	rep := RunPipeline(m, clients, nil, eval, cfg)
	if len(rep.Prune.Pruned) != 0 || m.Layer(0).(*nn.Conv2D).PrunedCount() != 0 {
		t.Fatal("SkipPrune pruned anyway")
	}

	m = pipelineModel(73)
	cfg = DefaultPipelineConfig()
	cfg.TargetLayer = 0
	cfg.SkipAW = true
	cfg.FineTuneRounds = 0
	rep = RunPipeline(m, clients, nil, eval, cfg)
	if rep.AW.Zeroed != 0 {
		t.Fatal("SkipAW adjusted weights anyway")
	}
}

func TestRunPipelinePanics(t *testing.T) {
	eval := Evaluator(func(*nn.Sequential) float64 { return 1 })
	clients := []ReportClient{&fakeReportClient{acts: []float64{1, 2, 3, 4, 5, 6}}}
	// No clients.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no clients accepted")
			}
		}()
		RunPipeline(pipelineModel(74), nil, nil, eval, DefaultPipelineConfig())
	}()
	// Fine-tuning without a tuner.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("fine-tuning without tuner accepted")
			}
		}()
		cfg := DefaultPipelineConfig()
		cfg.TargetLayer = 0
		cfg.FineTuneRounds = 1
		RunPipeline(pipelineModel(75), clients, nil, eval, cfg)
	}()
	// No conv layer with TargetLayer = -1.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("dense-only model accepted with TargetLayer=-1")
			}
		}()
		rng := rand.New(rand.NewSource(76))
		m := nn.NewSequential(nn.NewDense("fc", 4, 2, rng))
		RunPipeline(m, clients, nil, eval, DefaultPipelineConfig())
	}()
}

func TestGlobalPruneOrderMethods(t *testing.T) {
	m := pipelineModel(77)
	clients := []ReportClient{
		&fakeReportClient{acts: []float64{6, 5, 4, 3, 2, 1}},
		&fakeReportClient{acts: []float64{6, 5, 4, 3, 2, 1}},
	}
	cfg := DefaultPipelineConfig()
	for _, method := range []PruneMethod{RAP, MVP} {
		cfg.Method = method
		order := GlobalPruneOrder(m, clients, 0, cfg)
		if len(order) != 6 {
			t.Fatalf("%v order length %d", method, len(order))
		}
		switch method {
		case RAP:
			// Rank aggregation is fully ordered: unit 5 (most dormant) first.
			if order[0] != 5 {
				t.Fatalf("RAP order %v, want unit 5 first", order)
			}
		case MVP:
			// At rate 0.5, units 3-5 all get unanimous prune votes; they
			// must occupy the first three slots (ties broken by index).
			first := map[int]bool{order[0]: true, order[1]: true, order[2]: true}
			if !first[3] || !first[4] || !first[5] {
				t.Fatalf("MVP order %v, want {3,4,5} first", order)
			}
		}
	}
	// Unknown method panics.
	defer func() {
		if recover() == nil {
			t.Fatal("unknown method accepted")
		}
	}()
	cfg.Method = PruneMethod(99)
	GlobalPruneOrder(m, clients, 0, cfg)
}

func TestPruneMethodString(t *testing.T) {
	if RAP.String() != "RAP" || MVP.String() != "MVP" {
		t.Fatal("method names wrong")
	}
	if PruneMethod(9).String() == "" {
		t.Fatal("unknown method has empty name")
	}
}

func TestDefaultAWLayersFindsDense(t *testing.T) {
	m := pipelineModel(80)
	layers := DefaultAWLayers(m, 0)
	if len(layers) != 2 || layers[0] != 0 || layers[1] != 3 {
		t.Fatalf("AW layers %v, want [0 3]", layers)
	}
	// Model without a dense layer after the target: only the target.
	rng := rand.New(rand.NewSource(81))
	d := tensor.ConvDims{C: 1, H: 4, W: 4, K: 3, Stride: 1, Pad: 1}
	convOnly := nn.NewSequential(nn.NewConv2D("conv", d, 2, rng), nn.NewReLU("r"))
	if got := DefaultAWLayers(convOnly, 0); len(got) != 1 {
		t.Fatalf("AW layers %v, want [0]", got)
	}
}

func TestFineTuneTracksBest(t *testing.T) {
	m := pipelineModel(82)
	tuner := &fakeTuner{}
	// From 0.5, accuracy improves for 3 rounds then plateaus.
	seq := []float64{0.6, 0.7, 0.8, 0.8, 0.8, 0.8}
	i, calls := 0, 0
	eval := Evaluator(func(*nn.Sequential) float64 {
		calls++
		v := seq[i]
		if i < len(seq)-1 {
			i++
		}
		return v
	})
	res := FineTune(m, 0.5, tuner, 10, 2, eval)
	if res.Rounds != 5 { // 3 improving + 2 stale
		t.Fatalf("ran %d rounds, want 5", res.Rounds)
	}
	if res.Accuracies[0] != 0.5 {
		t.Fatalf("missing pre-tuning accuracy: %v", res.Accuracies)
	}
	// The starting score is the caller's: one evaluation per round.
	if calls != res.Rounds {
		t.Fatalf("%d evaluations for %d rounds", calls, res.Rounds)
	}
}
