package core

import (
	"fmt"

	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/obs"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// AWConfig parameterizes the adjusting-extreme-weights step (§IV-C,
// Algorithm 1 "Process: Adjusting Weights").
type AWConfig struct {
	// StartDelta is the initial (large) Δ in units of the layer's weight
	// standard deviation.
	StartDelta float64
	// MinDelta stops the sweep even if accuracy holds (0 allows sweeping to
	// a degenerate Δ; experiments use ≥ 0.5).
	MinDelta float64
	// Eps is the per-step decrement of Δ.
	Eps float64
	// MinAccuracy is the evaluator guard: the sweep stops — and the last
	// clip is reverted — once accuracy would fall below it.
	MinAccuracy float64
}

// DefaultAWConfig mirrors the experiment settings used throughout §V:
// Δ starts at 5 standard deviations and shrinks by 0.25 per step.
func DefaultAWConfig(minAccuracy float64) AWConfig {
	return AWConfig{StartDelta: 5, MinDelta: 1, Eps: 0.25, MinAccuracy: minAccuracy}
}

// AWPoint traces one step of the Δ sweep.
type AWPoint struct {
	Delta    float64
	Zeroed   int // cumulative weights zeroed at this Δ
	Accuracy float64
}

// AWResult reports the outcome of AdjustWeights.
type AWResult struct {
	// FinalDelta is the last Δ whose clip was kept.
	FinalDelta float64
	// Zeroed is the number of weights set to zero in the returned model.
	Zeroed int
	// Curve traces the sweep including a final rejected step, if any.
	Curve []AWPoint
}

// AdjustWeights zeroes weights of the Conv2D (or Dense) layer at layerIdx
// whose values fall outside μ ± Δ·σ, starting from cfg.StartDelta and
// decreasing Δ by cfg.Eps while the evaluator stays at or above
// cfg.MinAccuracy. μ and σ are computed once from the layer's weights
// before any clipping (Algorithm 1 line 1). The clip at each Δ is applied
// to the original weights (clipping is monotone in Δ, so re-clipping the
// already-clipped tensor is equivalent). The final sub-threshold clip is
// reverted. m is modified in place.
//
// Prune masks are re-enforced after every clip, exactly as in AWSweep, so
// pruned units stay dead at each evaluated point (numerically this is a
// no-op — a pruned unit's original weights are already zero, and the clip
// writes either the original value or zero — but the invariant should not
// depend on that reasoning at a distance). Every mutation touches only
// layer layerIdx, which the suffix scope announces to cached evaluators.
func AdjustWeights(m *nn.Sequential, layerIdx int, cfg AWConfig, eval ScopedEvaluator) AWResult {
	w := layerWeights(m, layerIdx)
	mu, sigma := w.Mean(), w.Std()
	original := w.Clone()
	eval.BeginSuffix(m, layerIdx)
	defer eval.EndScope()
	var res AWResult
	res.FinalDelta = cfg.StartDelta + cfg.Eps // sentinel: nothing clipped yet
	backup := original.Clone()
	for delta := cfg.StartDelta; delta >= cfg.MinDelta-1e-12; delta -= cfg.Eps {
		zeroed := tensor.ZeroOutside(w.Data, original.Data, mu, sigma, delta)
		m.EnforceMasks()
		acc := eval.Evaluate(m)
		res.Curve = append(res.Curve, AWPoint{Delta: delta, Zeroed: zeroed, Accuracy: acc})
		if acc < cfg.MinAccuracy {
			// Revert to the previous Δ's clip and stop.
			w.CopyFrom(backup)
			break
		}
		backup.CopyFrom(w)
		res.FinalDelta = delta
		res.Zeroed = zeroed
	}
	obs.M.DefenseZeroedWeights.Add(uint64(res.Zeroed))
	obs.L().Debug("defense: layer sweep done",
		"layer", layerIdx, "zeroed", res.Zeroed, "final_delta", res.FinalDelta)
	return res
}

// AWSweep applies the clip at each Δ of the sweep without any accuracy
// guard, recording every evaluator after each step (the instrument behind
// Fig. 6). The model is left clipped at the final Δ; callers pass a clone.
// The first recorded point is Δ=+∞ (no clipping), matching the figure's
// "Δ=0 stands for the original model" convention.
func AWSweep(m *nn.Sequential, layerIdx int, deltas []float64, evals ...ScopedEvaluator) [][]float64 {
	w := layerWeights(m, layerIdx)
	mu, sigma := w.Mean(), w.Std()
	original := w.Clone()
	for _, e := range evals {
		e.BeginSuffix(m, layerIdx)
		defer e.EndScope()
	}
	curves := make([][]float64, len(evals))
	for i, e := range evals {
		curves[i] = append(curves[i], e.Evaluate(m))
	}
	for _, delta := range deltas {
		tensor.ZeroOutside(w.Data, original.Data, mu, sigma, delta)
		m.EnforceMasks()
		for i, e := range evals {
			curves[i] = append(curves[i], e.Evaluate(m))
		}
	}
	return curves
}

// layerWeights returns the weight tensor of a Conv2D or Dense layer.
func layerWeights(m *nn.Sequential, layerIdx int) *tensor.Tensor {
	switch l := m.Layer(layerIdx).(type) {
	case *nn.Conv2D:
		return l.W.Value
	case *nn.Dense:
		return l.W.Value
	default:
		panic(fmt.Sprintf("core: layer %d (%s) has no adjustable weight matrix", layerIdx, m.Layer(layerIdx).Name()))
	}
}
