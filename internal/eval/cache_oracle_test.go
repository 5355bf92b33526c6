package eval

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/fl"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

// TestEvaluationCacheMatchesFullForwards is the whole-pipeline oracle for
// the defense's evaluation cache (DESIGN.md §9): RunPipeline guarded by
// metrics.SuffixEvaluator, which replays only the layers a scope can
// change, and by the plain core.Evaluator adapter, which runs a full
// forward pass per probe and ignores scopes, must return the same Report
// and the same parameters bit for bit. The per-loop suites in
// core/incremental_test.go compare each loop alone; this one runs the
// loops in sequence, with fine-tuning and AW between the scopes, over
// RAP/MVP × both backends × both report precisions × the paper's modes ×
// workers 1/2.
func TestEvaluationCacheMatchesFullForwards(t *testing.T) {
	if testing.Short() {
		t.Skip("federated training is slow")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(0))
	modes := []struct {
		name string
		set  func(*core.PipelineConfig)
	}{
		{"all", func(*core.PipelineConfig) {}},
		{"skip-prune", func(c *core.PipelineConfig) { c.SkipPrune = true }},
		{"skip-aw", func(c *core.PipelineConfig) { c.SkipAW = true }},
		{"no-finetune", func(c *core.PipelineConfig) { c.FineTuneRounds = 0 }},
	}
	for _, backend := range []nn.Backend{nn.Float64, nn.Float32} {
		s := MNISTScenario(9, 2)
		s.FL.Rounds = 6
		s.FL.LocalEpochs = 1
		s.Backend = backend
		tr := Run(s)
		clients := fl.ReportClients(tr.Participants)
		full := core.Evaluator(func(m *nn.Sequential) float64 { return metrics.Accuracy(m, tr.Validation, 0) })
		for _, quant := range []metrics.ReportQuant{metrics.ReportFloat64, metrics.ReportInt8} {
			setReportQuant(tr.Participants, quant)
			for _, method := range []core.PruneMethod{core.RAP, core.MVP} {
				for _, mode := range modes {
					for _, workers := range []int{1, 2} {
						name := fmt.Sprintf("%v/%v/%v/%s/workers=%d", backend, quant, method, mode.name, workers)
						parallel.SetWorkers(workers)
						cfg := core.DefaultPipelineConfig()
						cfg.Method = method
						cfg.FineTuneRounds = 1
						mode.set(&cfg)

						cached := tr.Server.Model.Clone()
						repCached := core.RunPipeline(cached, clients, tr.Server, metrics.NewSuffixEvaluator(tr.Validation, 0), cfg)
						plain := tr.Server.Model.Clone()
						repPlain := core.RunPipeline(plain, clients, tr.Server, full, cfg)

						repCached.Timing, repPlain.Timing = core.StageTiming{}, core.StageTiming{} // wall time
						if !reflect.DeepEqual(repCached, repPlain) {
							t.Fatalf("%s: cached report %+v, full-forward report %+v", name, repCached, repPlain)
						}
						pc, pp := cached.ParamsVector(), plain.ParamsVector()
						for i := range pp {
							if math.Float64bits(pc[i]) != math.Float64bits(pp[i]) {
								t.Fatalf("%s: param %d = %v cached, %v full-forward", name, i, pc[i], pp[i])
							}
						}
					}
				}
			}
		}
	}
}
