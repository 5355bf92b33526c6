// Naive-vs-cached equivalence of every mutate-then-evaluate loop (ISSUE 3):
// running PruneToThreshold, PruneSweep, AdjustWeights and AWSweep with the
// plain Evaluator adapter (full forward per step) and with the cached
// metrics.SuffixEvaluator must produce byte-equal curves and byte-equal
// final models, at any worker count.
package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/fedcleanse/fedcleanse/internal/core"
	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/metrics"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/parallel"
)

type incrFixture struct {
	template  *nn.Sequential
	val, test *dataset.Dataset
	poison    dataset.PoisonConfig
	layerIdx  int
	order     []int
}

func newIncrFixture(t *testing.T) *incrFixture {
	t.Helper()
	_, test := dataset.GenSynthMNIST(dataset.GenConfig{TrainPerClass: 2, TestPerClass: 16, Seed: 91})
	rng := rand.New(rand.NewSource(92))
	f := &incrFixture{
		template: nn.NewSmallCNN(nn.Input{C: 1, H: 16, W: 16}, 10, rng),
		val:      &dataset.Dataset{Shape: test.Shape, Classes: test.Classes, Samples: test.Samples[:test.Len()/2]},
		test:     &dataset.Dataset{Shape: test.Shape, Classes: test.Classes, Samples: test.Samples[test.Len()/2:]},
		poison: dataset.PoisonConfig{
			Trigger:     dataset.PixelPattern(3, dataset.Shape{C: 1, H: 16, W: 16}),
			VictimLabel: 9,
			TargetLabel: 2,
		},
	}
	f.layerIdx = f.template.LastConvIndex()
	units := f.template.Layer(f.layerIdx).(nn.Prunable).Units()
	f.order = rng.Perm(units)
	return f
}

// naiveTA and naiveASR are the pre-caching evaluators: a full forward pass
// through fresh metrics calls on every step.
func (f *incrFixture) naiveTA() core.ScopedEvaluator {
	return core.Evaluator(func(m *nn.Sequential) float64 { return metrics.Accuracy(m, f.val, 0) })
}

func (f *incrFixture) naiveASR() core.ScopedEvaluator {
	return core.Evaluator(func(m *nn.Sequential) float64 {
		return metrics.AttackSuccessRate(m, f.test, f.poison, 0)
	})
}

func (f *incrFixture) cachedTA() core.ScopedEvaluator { return metrics.NewSuffixEvaluator(f.val, 0) }
func (f *incrFixture) cachedASR() core.ScopedEvaluator {
	return metrics.NewCachedASR(f.test, f.poison, 0)
}

func bytesEqualCurve(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: point %d is %v, want %v (bitwise)", what, i, got[i], want[i])
		}
	}
}

func modelsEqual(t *testing.T, what string, got, want *nn.Sequential) {
	t.Helper()
	bytesEqualCurve(t, what+" params", got.ParamsVector(), want.ParamsVector())
	gp, wp := got.Params(), want.Params()
	for i := range gp {
		if gp[i].Stat != wp[i].Stat {
			t.Fatalf("%s: stat flag diverges at param %d", what, i)
		}
	}
}

// eachWorkerCount runs the check at 1, 2 and 8 workers — the cached path
// must be bit-identical to the naive one regardless of kernel fan-out.
func eachWorkerCount(t *testing.T, run func(t *testing.T)) {
	for _, w := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			run(t)
		})
	}
}

func TestPruneSweepCachedMatchesNaive(t *testing.T) {
	f := newIncrFixture(t)
	eachWorkerCount(t, func(t *testing.T) {
		mN := f.template.Clone()
		want := core.PruneSweep(mN, f.layerIdx, f.order, f.naiveTA(), f.naiveASR())
		mC := f.template.Clone()
		got := core.PruneSweep(mC, f.layerIdx, f.order, f.cachedTA(), f.cachedASR())
		bytesEqualCurve(t, "TA curve", got[0], want[0])
		bytesEqualCurve(t, "ASR curve", got[1], want[1])
		modelsEqual(t, "swept model", mC, mN)
	})
}

func TestPruneToThresholdCachedMatchesNaive(t *testing.T) {
	f := newIncrFixture(t)
	// Pick a threshold strictly between the sweep's min and max accuracy so
	// the guard fires mid-sweep and the revert path runs in both variants.
	probe := f.template.Clone()
	curve := core.PruneSweep(probe, f.layerIdx, f.order, f.naiveTA())[0]
	lo, hi := curve[0], curve[0]
	for _, v := range curve {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if lo == hi {
		t.Fatalf("degenerate fixture: accuracy constant at %v along the sweep", lo)
	}
	minAcc := (lo + hi) / 2
	eachWorkerCount(t, func(t *testing.T) {
		mN := f.template.Clone()
		want := core.PruneToThreshold(mN, f.layerIdx, f.order, f.naiveTA(), minAcc, 0)
		mC := f.template.Clone()
		got := core.PruneToThreshold(mC, f.layerIdx, f.order, f.cachedTA(), minAcc, 0)
		if len(got.Steps) != len(want.Steps) || len(got.Pruned) != len(want.Pruned) {
			t.Fatalf("trace shape: %d/%d steps, %d/%d pruned",
				len(got.Steps), len(want.Steps), len(got.Pruned), len(want.Pruned))
		}
		if len(want.Steps) != len(want.Pruned)+1 {
			t.Fatalf("threshold did not trigger a mid-sweep revert (%d steps, %d pruned)",
				len(want.Steps), len(want.Pruned))
		}
		for i := range got.Steps {
			if got.Steps[i].Unit != want.Steps[i].Unit {
				t.Fatalf("step %d pruned unit %d, want %d", i, got.Steps[i].Unit, want.Steps[i].Unit)
			}
			bytesEqualCurve(t, "step accuracy", []float64{got.Steps[i].Accuracy}, []float64{want.Steps[i].Accuracy})
		}
		bytesEqualCurve(t, "baseline/final",
			[]float64{got.BaselineAccuracy, got.FinalAccuracy},
			[]float64{want.BaselineAccuracy, want.FinalAccuracy})
		modelsEqual(t, "guarded model", mC, mN)
	})
}

func TestAdjustWeightsCachedMatchesNaive(t *testing.T) {
	f := newIncrFixture(t)
	layers := core.DefaultAWLayers(f.template, f.layerIdx)
	eachWorkerCount(t, func(t *testing.T) {
		for _, li := range layers {
			cfg := core.AWConfig{StartDelta: 3, MinDelta: 0.5, Eps: 0.5, MinAccuracy: 0}
			mN := f.template.Clone()
			want := core.AdjustWeights(mN, li, cfg, f.naiveTA())
			mC := f.template.Clone()
			got := core.AdjustWeights(mC, li, cfg, f.cachedTA())
			if len(got.Curve) != len(want.Curve) {
				t.Fatalf("layer %d: %d curve points, want %d", li, len(got.Curve), len(want.Curve))
			}
			for i := range got.Curve {
				bytesEqualCurve(t, "AW accuracy", []float64{got.Curve[i].Accuracy}, []float64{want.Curve[i].Accuracy})
				if got.Curve[i].Zeroed != want.Curve[i].Zeroed {
					t.Fatalf("layer %d step %d zeroed %d, want %d", li, i, got.Curve[i].Zeroed, want.Curve[i].Zeroed)
				}
			}
			modelsEqual(t, "adjusted model", mC, mN)
		}
	})
}

func TestAWSweepCachedMatchesNaive(t *testing.T) {
	f := newIncrFixture(t)
	deltas := []float64{5, 4, 3, 2, 1, 0.5}
	layers := core.DefaultAWLayers(f.template, f.layerIdx)
	eachWorkerCount(t, func(t *testing.T) {
		for _, li := range layers {
			mN := f.template.Clone()
			want := core.AWSweep(mN, li, deltas, f.naiveTA(), f.naiveASR())
			mC := f.template.Clone()
			got := core.AWSweep(mC, li, deltas, f.cachedTA(), f.cachedASR())
			bytesEqualCurve(t, "TA curve", got[0], want[0])
			bytesEqualCurve(t, "ASR curve", got[1], want[1])
			modelsEqual(t, "swept model", mC, mN)
		}
	})
}

// TestPruneSweepCachedAfterGuardedRevert chains the real pipeline order:
// a guarded prune (with a revert) followed by AW on the same cached
// evaluator instance — scopes must hand over cleanly.
func TestCachedEvaluatorScopeHandover(t *testing.T) {
	f := newIncrFixture(t)
	probe := f.template.Clone()
	curve := core.PruneSweep(probe, f.layerIdx, f.order, f.naiveTA())[0]
	lo, hi := curve[0], curve[0]
	for _, v := range curve {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	minAcc := (lo + hi) / 2

	run := func(ta core.ScopedEvaluator, m *nn.Sequential) (core.PruneResult, core.AWResult) {
		pr := core.PruneToThreshold(m, f.layerIdx, f.order, ta, minAcc, 0)
		aw := core.AdjustWeights(m, f.layerIdx, core.AWConfig{StartDelta: 3, MinDelta: 1, Eps: 1, MinAccuracy: 0}, ta)
		return pr, aw
	}
	mN := f.template.Clone()
	wantPR, wantAW := run(f.naiveTA(), mN)
	mC := f.template.Clone()
	ta := f.cachedTA() // one instance across both loops, like RunPipeline
	gotPR, gotAW := run(ta, mC)

	bytesEqualCurve(t, "final accuracy", []float64{gotPR.FinalAccuracy}, []float64{wantPR.FinalAccuracy})
	if gotAW.Zeroed != wantAW.Zeroed || math.Float64bits(gotAW.FinalDelta) != math.Float64bits(wantAW.FinalDelta) {
		t.Fatalf("AW after handover: zeroed %d Δ %v, want %d %v",
			gotAW.Zeroed, gotAW.FinalDelta, wantAW.Zeroed, wantAW.FinalDelta)
	}
	modelsEqual(t, "pipeline-order model", mC, mN)
	// And the evaluator still works unscoped after both loops.
	bytesEqualCurve(t, "post-loop Evaluate",
		[]float64{ta.Evaluate(mC)}, []float64{metrics.Accuracy(mN, f.val, 0)})
}
