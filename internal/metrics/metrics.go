// Package metrics provides the shared evaluation primitives used across
// the federated-learning simulator, the defense pipeline and the
// experiment harness: plain test accuracy and the attack success rate.
package metrics

import (
	"github.com/fedcleanse/fedcleanse/internal/dataset"
	"github.com/fedcleanse/fedcleanse/internal/nn"
	"github.com/fedcleanse/fedcleanse/internal/tensor"
)

// DefaultBatch is the evaluation batch size used when callers pass 0.
const DefaultBatch = 64

// Accuracy returns the fraction of ds samples whose argmax prediction
// matches the label. batch ≤ 0 selects DefaultBatch.
func Accuracy(m *nn.Sequential, ds *dataset.Dataset, batch int) float64 {
	if ds.Len() == 0 {
		return 0
	}
	if batch <= 0 {
		batch = DefaultBatch
	}
	correct := 0
	var (
		x      *tensor.Tensor
		labels []int
		pred   []int
	)
	for lo := 0; lo < ds.Len(); lo += batch {
		hi := lo + batch
		if hi > ds.Len() {
			hi = ds.Len()
		}
		x, labels = ds.BatchInto(lo, hi, x, labels)
		pred = nn.ArgmaxInto(pred, m.Forward(x, false))
		for i, p := range pred {
			if p == labels[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(ds.Len())
}

// AttackSuccessRate evaluates a backdoor: it builds the triggered
// victim-label test set for cfg and returns the fraction predicted as the
// attack target. This is the paper's AA metric.
func AttackSuccessRate(m *nn.Sequential, test *dataset.Dataset, cfg dataset.PoisonConfig, batch int) float64 {
	atk := dataset.PoisonTestSet(test, cfg)
	return Accuracy(m, atk, batch)
}

// LocalActivations records the paper's per-neuron average activation
// statistic a_i (§IV-A) for the Prunable layer at layerIdx of m, over every
// sample of ds. The result has one entry per output unit of that layer.
func LocalActivations(m *nn.Sequential, layerIdx int, ds *dataset.Dataset, batch int) []float64 {
	p, ok := m.Layer(layerIdx).(nn.Prunable)
	if !ok {
		panic("metrics: LocalActivations target layer is not prunable")
	}
	units := p.Units()
	if batch <= 0 {
		batch = DefaultBatch
	}
	sums := make([]float64, units)
	obs := 0
	var (
		x      *tensor.Tensor
		labels []int
	)
	for lo := 0; lo < ds.Len(); lo += batch {
		hi := lo + batch
		if hi > ds.Len() {
			hi = ds.Len()
		}
		x, labels = ds.BatchInto(lo, hi, x, labels)
		obs += nn.AccumulateUnitActivations(m.ForwardTo(layerIdx+1, x), units, sums)
	}
	if obs > 0 {
		inv := 1.0 / float64(obs)
		for i := range sums {
			sums[i] *= inv
		}
	}
	return sums
}
