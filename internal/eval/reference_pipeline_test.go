package eval

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// refPipeline is the serial reference for core.RunPipeline (Algorithm 1).
// It scores every model with metrics.Accuracy over a full forward pass and
// announces no evaluation scope, undoes a rejected prune or clip by keeping
// the clone taken before it, and hands every report its own clone of the
// model. It returns the defended model; m is consumed.
func refPipeline(m *nn.Sequential, clients []core.ReportClient, tuner core.Tuner, val *dataset.Dataset, cfg core.PipelineConfig) (*nn.Sequential, core.Report) {
	acc := func(m *nn.Sequential) float64 { return metrics.Accuracy(m, val, 0) }
	li := cfg.TargetLayer
	if li < 0 {
		li = m.LastConvIndex()
	}
	rep := core.Report{Method: cfg.Method, TargetLayer: li, AccBefore: acc(m)}
	rep.AccAfterPrune = rep.AccBefore
	if !cfg.SkipPrune {
		var order []int
		order, rep.ReportDropouts = refPruneOrder(m, clients, li, cfg)
		rep.Prune = core.PruneResult{BaselineAccuracy: acc(m)}
		rep.Prune.FinalAccuracy = rep.Prune.BaselineAccuracy
		limit := len(order) - 1
		if cfg.MaxPruneUnits > 0 && cfg.MaxPruneUnits < limit {
			limit = cfg.MaxPruneUnits
		}
		for _, u := range order[:limit] {
			next := m.Clone()
			next.PruneModelUnit(li, u)
			a := acc(next)
			rep.Prune.Steps = append(rep.Prune.Steps, core.PruneStep{Unit: u, Accuracy: a})
			if a < rep.AccBefore-cfg.MaxAccuracyDrop {
				break
			}
			m = next
			rep.Prune.Pruned = append(rep.Prune.Pruned, u)
			rep.Prune.FinalAccuracy = a
		}
		rep.AccAfterPrune = rep.Prune.FinalAccuracy
	}
	rep.AccAfterFineTune = rep.AccAfterPrune
	if cfg.FineTuneRounds > 0 {
		patience := cfg.FineTunePatience
		if patience <= 0 {
			patience = 2
		}
		ft := core.FineTuneResult{Accuracies: []float64{acc(m)}}
		best, stale := ft.Accuracies[0], 0
		for r := 0; r < cfg.FineTuneRounds && stale < patience; r++ {
			tuner.FineTune(m, 1)
			a := acc(m)
			ft.Accuracies = append(ft.Accuracies, a)
			ft.Rounds++
			if a > best+1e-9 {
				best, stale = a, 0
			} else {
				stale++
			}
		}
		rep.FineTune = ft
		rep.AccAfterFineTune = ft.Accuracies[len(ft.Accuracies)-1]
	}
	if !cfg.SkipAW {
		aw := cfg.AW
		if aw.StartDelta == 0 {
			aw = core.DefaultAWConfig(0)
		}
		drop := cfg.AWMaxAccuracyDrop
		if drop == 0 {
			drop = cfg.MaxAccuracyDrop
		}
		layers := cfg.AWLayers
		if len(layers) == 0 {
			layers = core.DefaultAWLayers(m, li)
		}
		fixed := aw.MinAccuracy != 0
		for i, l := range layers {
			if !fixed {
				aw.MinAccuracy = acc(m) - drop
			}
			original := refWeights(m, l).Clone()
			mu, sigma := original.Mean(), original.Std()
			res := core.AWResult{FinalDelta: aw.StartDelta + aw.Eps}
			for delta := aw.StartDelta; delta >= aw.MinDelta-1e-12; delta -= aw.Eps {
				next := m.Clone()
				w, zeroed := refWeights(next, l), 0
				for j, v := range original.Data {
					w.Data[j] = v
					if v < mu-delta*sigma || v > mu+delta*sigma {
						w.Data[j] = 0
						zeroed++
					}
				}
				next.EnforceMasks()
				a := acc(next)
				res.Curve = append(res.Curve, core.AWPoint{Delta: delta, Zeroed: zeroed, Accuracy: a})
				if a < aw.MinAccuracy {
					break
				}
				m, res.FinalDelta, res.Zeroed = next, delta, zeroed
			}
			if i == 0 {
				rep.AW = res
				continue
			}
			rep.AW.Zeroed += res.Zeroed
			rep.AW.Curve = append(rep.AW.Curve, res.Curve...)
			rep.AW.FinalDelta = math.Min(rep.AW.FinalDelta, res.FinalDelta)
		}
	}
	rep.AccFinal = acc(m)
	return m, rep
}

// refPruneOrder collects one report per client, each on a fresh clone, and
// drops a missing report, one whose width is not the layer's unit count,
// or a rank outside [1, units].
func refPruneOrder(m *nn.Sequential, clients []core.ReportClient, li int, cfg core.PipelineConfig) ([]int, []int) {
	units := m.Layer(li).(nn.Prunable).Units()
	rate := cfg.VoteRate
	if rate == 0 {
		rate = 0.5
	}
	var ranks [][]int
	var votes [][]bool
	var dropped []int
	for i, c := range clients {
		if cfg.Method == core.RAP {
			if r := c.RankReport(m.Clone(), li); len(r) == units && refRanksInRange(r) {
				ranks = append(ranks, r)
				continue
			}
		} else if v := c.VoteReport(m.Clone(), li, rate); len(v) == units {
			votes = append(votes, v)
			continue
		}
		dropped = append(dropped, i)
	}
	need := math.Max(1, math.Ceil(cfg.ReportQuorum*float64(len(clients))))
	if arrived := len(clients) - len(dropped); float64(arrived) < need {
		panic(fmt.Sprintf("reference: %d of %d reports arrived", arrived, len(clients)))
	}
	if cfg.Method == core.RAP {
		return core.PruneOrderFromRanks(core.AggregateRanks(ranks)), dropped
	}
	return core.PruneOrderFromVotes(core.AggregateVotes(votes)), dropped
}

func refRanksInRange(r []int) bool {
	for _, v := range r {
		if v < 1 || v > len(r) {
			return false
		}
	}
	return true
}

// refWeights is the weight tensor AW clips in layer li.
func refWeights(m *nn.Sequential, li int) *tensor.Tensor {
	if c, ok := m.Layer(li).(*nn.Conv2D); ok {
		return c.W.Value
	}
	return m.Layer(li).(*nn.Dense).W.Value
}

// refClient is a report client that fails in one of the ways a collection
// must absorb: no report (a dropout) or a report twice the layer's width.
type refClient struct {
	core.ReportClient
	wide bool
}

func (c refClient) RankReport(m *nn.Sequential, li int) []int {
	if !c.wide {
		return nil
	}
	r := c.ReportClient.RankReport(m, li)
	return append(r, r...)
}

func (c refClient) VoteReport(m *nn.Sequential, li int, p float64) []bool {
	if !c.wide {
		return nil
	}
	v := c.ReportClient.VoteReport(m, li, p)
	return append(v, v...)
}

// TestRunPipelineMatchesReference compares core.RunPipeline with
// refPipeline bit for bit — prune order and stop step, fine-tuning curve,
// Δ curve and zeroed count, every Report field but the stage timings, and
// every parameter and prune mask of the defended model — over random
// configurations: RAP or MVP, float64 or float32, float64 or int8 reports,
// workers 1/2/8, report dropouts (a missing report or a minority of
// wrong-width ones) with and without a quorum that is just met, SkipPrune,
// SkipAW, zero to two fine-tuning rounds and the AW layer list.
func TestRunPipelineMatchesReference(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(0))
	perBackend := 10
	if !testing.Short() {
		perBackend = 16
	}
	rng := rand.New(rand.NewSource(35))
	for _, backend := range []nn.Backend{nn.Float64, nn.Float32} {
		s := MNISTScenario(9, 2)
		s.FL.Rounds = 10
		s.FL.LocalEpochs = 1
		s.Backend = backend
		tr := Run(s)
		li := tr.Server.Model.LastConvIndex()
		for k := 0; k < perBackend; k++ {
			cfg := core.DefaultPipelineConfig()
			cfg.Method = []core.PruneMethod{core.RAP, core.MVP}[rng.Intn(2)]
			cfg.MaxAccuracyDrop = []float64{0.01, 0.02, 0.05}[rng.Intn(3)]
			cfg.MaxPruneUnits = []int{0, 0, 3}[rng.Intn(3)]
			cfg.SkipPrune = rng.Intn(5) == 0
			cfg.SkipAW = rng.Intn(5) == 0
			cfg.FineTuneRounds = rng.Intn(3)
			cfg.FineTunePatience = 1 + rng.Intn(2)
			cfg.AWLayers = [][]int{nil, {li}, core.DefaultAWLayers(tr.Server.Model, li)[1:]}[rng.Intn(3)]
			quant := []metrics.ReportQuant{metrics.ReportFloat64, metrics.ReportInt8}[rng.Intn(2)]
			setReportQuant(tr.Participants, quant)
			clients := fl.ReportClients(tr.Participants)
			failed := rng.Intn(4)
			for _, i := range rng.Perm(len(clients))[:failed] {
				clients[i] = refClient{ReportClient: clients[i], wide: rng.Intn(2) == 0}
			}
			if rng.Intn(2) == 0 {
				cfg.ReportQuorum = (float64(len(clients)-failed) - 0.5) / float64(len(clients))
			}
			workers := []int{1, 2, 8}[rng.Intn(3)]
			name := fmt.Sprintf("%v/%v/%v/workers=%d/failed=%d/cfg=%+v", backend, quant, cfg.Method, workers, failed, cfg)

			parallel.SetWorkers(workers)
			got := tr.Server.Model.Clone()
			rep := core.RunPipeline(got, clients, tr.Server, tr.ValidationEvaluator(), cfg)
			want, ref := refPipeline(tr.Server.Model.Clone(), clients, tr.Server, tr.Validation, cfg)

			for _, f := range []struct {
				field     string
				got, want any
			}{
				{"Method", rep.Method, ref.Method},
				{"TargetLayer", rep.TargetLayer, ref.TargetLayer},
				{"Prune", rep.Prune, ref.Prune},
				{"FineTune", rep.FineTune, ref.FineTune},
				{"AW", rep.AW, ref.AW},
				{"AccBefore", rep.AccBefore, ref.AccBefore},
				{"AccAfterPrune", rep.AccAfterPrune, ref.AccAfterPrune},
				{"AccAfterFineTune", rep.AccAfterFineTune, ref.AccAfterFineTune},
				{"AccFinal", rep.AccFinal, ref.AccFinal},
				{"ReportDropouts", rep.ReportDropouts, ref.ReportDropouts},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Fatalf("%s: Report.%s = %+v, reference %+v", name, f.field, f.got, f.want)
				}
			}
			pg, pw := got.ParamsVector(), want.ParamsVector()
			for i := range pw {
				if math.Float64bits(pg[i]) != math.Float64bits(pw[i]) {
					t.Fatalf("%s: param %d = %v, reference %v", name, i, pg[i], pw[i])
				}
			}
			pl, wl := got.Layer(li).(nn.Prunable), want.Layer(li).(nn.Prunable)
			for u := 0; u < pl.Units(); u++ {
				if pl.UnitPruned(u) != wl.UnitPruned(u) {
					t.Fatalf("%s: unit %d pruned %v, reference %v", name, u, pl.UnitPruned(u), wl.UnitPruned(u))
				}
			}
		}
	}
}
